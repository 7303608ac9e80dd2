package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{0.50, 20, true}, {0.50, 19, false},
		{0.90, 100, true}, {0.90, 99, false},
		{0.99, 1000, true}, {0.99, 999, false},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSummarizeKeepsCount(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(1000-i) * time.Millisecond
	}
	l := summarize(ds)
	if l.N != 1000 || math.Abs(l.P50-500.5) > 1e-9 || math.Abs(l.P90-900.1) > 1e-9 || math.Abs(l.P99-990.01) > 1e-9 {
		t.Errorf("summarize = %+v", l)
	}
}

func TestTrendParts(t *testing.T) {
	for _, c := range []struct {
		at   time.Duration
		want int
	}{{-time.Second, 0}, {0, 0}, {1999 * time.Millisecond, 0}, {2 * time.Second, 1}, {9999 * time.Millisecond, 4}, {11 * time.Second, 4}} {
		if got := partOf(c.at, 10); got != c.want {
			t.Errorf("partOf(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	at := []time.Duration{0, time.Second, 3 * time.Second, 9 * time.Second}
	if got := trend(at, 10); got != "[1.0000 0.5000 0.0000 0.0000 0.5000]" {
		t.Errorf("trend = %s", got)
	}
}

func TestStratifiedAveragesGroupPercentiles(t *testing.T) {
	ramp := func(n, base int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(base+i) * time.Millisecond
		}
		return out
	}
	// Two groups that do not overlap: a pooled median would sit on the
	// boundary between them; the stratified one averages the two medians.
	groups := map[string][]time.Duration{"fast": ramp(101, 0), "slow": ramp(201, 1000)}
	p50, p90, err := stratified(groups)
	if err != nil || p50 != (50+1100)/2.0 || math.Abs(p90-(90+1180)/2.0) > 1e-9 {
		t.Errorf("stratified = %v %v %v", p50, p90, err)
	}
	// 99 samples put fewer than ten beyond the p90: the run must fail.
	groups["fast"] = ramp(99, 0)
	if _, _, err := stratified(groups); err == nil || !strings.Contains(err.Error(), "fast has 99 samples") {
		t.Errorf("unsupported p90: err = %v", err)
	}
	if _, _, err := stratified(map[string][]time.Duration{}); err == nil {
		t.Error("no groups: want an error")
	}
}

func TestSelfTimeSubtractsCoveredIntervalOnce(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{{Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}, {Start: 200, End: 300}}
	// Covered: [10, 50) and [90, 100) = 50; overlap and the part outside
	// the parent count once or not at all.
	if got := selfTime(parent, children); got != 50 {
		t.Errorf("selfTime = %v, want 50", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
	nested := []span{{Start: 10, End: 90}, {Start: 20, End: 30}}
	if got := selfTime(parent, nested); got != 20 {
		t.Errorf("selfTime with a nested child = %v, want 20", got)
	}
}

func TestReplaySelfCanGoNegative(t *testing.T) {
	serve := span{Start: 0, End: 100}
	if got := replaySelf(serve, []span{{Start: 500, End: 560}}); got != 40 {
		t.Errorf("replaySelf = %v, want 40", got)
	}
	if got := replaySelf(serve, []span{{Start: 500, End: 650}}); got != -50 {
		t.Errorf("replaySelf = %v, want -50", got)
	}
}

func TestPhaseMetricSumsShards(t *testing.T) {
	if got := phaseMetric("shard1/kdtree/knn-batch/write"); got != "kdtree.knn-batch.write" {
		t.Errorf("phaseMetric = %q", got)
	}
	if got := phaseMetric("shard/route"); got != "shard.route" {
		t.Errorf("phaseMetric = %q", got)
	}
}

var (
	metricName  = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("bad metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
		if !unitPattern.MatchString(d.unit) {
			t.Errorf("metric %q: bad unit %q", d.name, d.unit)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json's metric lists in
// step with what the benchmark prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to perfbench: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark prints %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestTinyRuns runs every workload at a tiny size, untraced and traced, and
// checks that every catalogue metric is emitted with its unit and that no
// answer was wrong.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			// Six seconds hold the hundred samples per group that a p90
			// needs (see stratified), also at point-c1's write rate and
			// under the race detector.
			o := options{workload: name, seed: 3, seconds: 6, trace: traced, outdir: t.TempDir(),
				n: 3000, delaunayN: 500, setupReps: 1, warmup: 20, readBatch: 20}
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			m, err := workloads[name](o, tr)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Errorf("%s trace=%v: %d failed of %d attempted: %v", name, traced, m.failed, m.attempted, m.notes)
			}
			res, err := finish(o, m)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q", name, traced, d.name, v.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v.Value)
				}
			}
		}
	}
}
