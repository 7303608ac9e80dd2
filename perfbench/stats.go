package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it: p is supported by n samples when n·(1−p) ≥ minTail.
const minTail = 10

// supported reports whether n samples support the p-quantile (0 < p < 1).
func supported(p float64, n int) bool {
	return float64(n)*(1-p) >= minTail-1e-9
}

// quantile returns the p-quantile of sorted by linear interpolation between
// the closest ranks (rank p·(n−1), zero-based). It returns NaN for an empty
// slice.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latency summarises one timing distribution in milliseconds: its median,
// its tail percentiles, and the sample count that supports them.
type latency struct {
	N   int
	P50 float64
	P90 float64
	P99 float64
}

// summarize builds a latency summary from durations. Reports mark a
// percentile that N does not support (see supported).
func summarize(ds []time.Duration) latency {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return latency{N: len(ms), P50: quantile(ms, 0.50), P90: quantile(ms, 0.90), P99: quantile(ms, 0.99)}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// stratified returns the mean over groups of each group's p50 and p90
// latency over the whole window. Averaging per-group percentiles keeps a
// percentile from falling on the boundary between groups whose latencies do
// not overlap, where it would jump between them from run to run. It fails
// when there is no group, or when a group has too few samples to support
// its p90: every declared percentile rests on at least minTail samples
// beyond it.
func stratified(groups map[string][]time.Duration) (p50, p90 float64, err error) {
	if len(groups) == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	var x50, x90 []float64
	for _, g := range sortedKeys(groups) {
		l := summarize(groups[g])
		if !supported(0.9, l.N) {
			return 0, 0, fmt.Errorf("%s has %d samples, too few for a p90 (%d needed); lengthen --seconds", g, l.N, int(math.Ceil(minTail/0.1)))
		}
		x50, x90 = append(x50, l.P50), append(x90, l.P90)
	}
	return mean(x50), mean(x90), nil
}

// trendParts is how many equal parts a report splits a window into, to show
// how the rate moves within it. The metrics use the whole window.
const trendParts = 5

// partOf returns the part an event at offset at (from the window's start)
// falls in, for a window of length secs.
func partOf(at time.Duration, secs float64) int {
	b := int(at.Seconds() / secs * trendParts)
	return min(max(b, 0), trendParts-1)
}

// trend formats the rate of events in each part of a window of secs
// seconds, given each event's offset from the window's start.
func trend(offsets []time.Duration, secs float64) string {
	var counts [trendParts]float64
	for _, at := range offsets {
		counts[partOf(at, secs)]++
	}
	rates := make([]float64, trendParts)
	for i, c := range counts {
		rates[i] = c / (secs / trendParts)
	}
	return fmtFloats(rates)
}
