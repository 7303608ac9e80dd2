// Command perfbench is the repository's benchmark. One run measures one
// workload for a fixed time and prints a report, then, as its last line, a
// JSON result carrying the end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1):
//
//	bash perfbench/run.sh --workload point-c1 --seed 1 --seconds 25 --trace 0
//
// Workloads:
//
//	point-c1        one closed-loop HTTP client against a single-engine daemon
//	shard-mixed-c2  two closed-loop HTTP clients, reads and writes, two shards
//	engine-bulk     read and mixed batches straight on a wegeom.Engine
//
// The benchmark reaches the program only through public entry points:
// serve.Boot and the Server accessors, coalesce.New, and the Engine's
// build, batch and mixed-batch methods. See README.md for every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// options is one run's configuration.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	outdir    string
	n         int // items per tree
	delaunayN int // engine-bulk Delaunay points
	setupReps int // set-ups per run; setup_s is the fastest
	readBatch int // queries per engine-bulk read batch
	warmup    int // warm-up requests per HTTP client; engine-bulk warms up one round
}

// measurement is what one workload run produces.
type measurement struct {
	attempted int64
	failed    int64
	notes     []string // check failures and caveats, printed in the report
	e2e       map[string]float64
	layers    map[string]float64
	extra     []string // report lines (tables, counts) printed before the result
	record    map[string]any
}

func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if len(m.notes) < 20 {
		m.notes = append(m.notes, "FAIL "+fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var seed int64
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&seed, "seed", 1, "seed all inputs derive from")
	flag.Float64Var(&o.seconds, "seconds", 25, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.outdir, "outdir", ".bench_build", "directory trace files are written to")
	flag.Parse()
	o.seed, o.trace = uint64(seed), traceFlag == 1
	// The sizes: N = 100 000 because boots at 20 000 items are too short to
	// time steadily; five set-ups per run, of which setup_s takes the fastest.
	// Read batches of 200 queries keep an engine-bulk round near 60 ms at
	// this N on two cores, so a 25 s window holds about 450 calls of every
	// kind, enough for each kind's p90 (see stratified).
	o.n, o.delaunayN, o.setupReps, o.warmup, o.readBatch = 100000, 20000, 5, 300, 200
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m, err := wl(o, tr)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := os.MkdirAll(o.outdir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(o.outdir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		m.extra = append(m.extra, "spans written to "+path)
	}
	res, err := finish(o, m)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// finish prints the report and assembles the result line: the end-to-end
// catalogue for an untraced run, the per-layer catalogue for a traced one.
func finish(o options, m *measurement) (*result, error) {
	rec := runRecord(o)
	for k, v := range m.record {
		rec[k] = v
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("run record: %s\n", recJSON)
	for _, line := range m.extra {
		fmt.Println(line)
	}
	errFrac := ratio(float64(m.failed), float64(m.attempted))
	fmt.Printf("error_frac = %.6f ratio (%d failed or wrong of %d attempted)\n", errFrac, m.failed, m.attempted)
	for _, n := range m.notes {
		fmt.Println(n)
	}
	cat, vals := endToEnd, m.e2e
	if o.trace {
		cat, vals = perLayer, m.layers
		fmt.Println("end-to-end metrics of this traced run's untraced window:")
		printMetrics(endToEnd, m.e2e)
		fmt.Println("per-layer metrics (traced window):")
	} else {
		fmt.Println("end-to-end metrics:")
	}
	printMetrics(cat, vals)
	if !o.trace {
		printUndeclared(m.e2e)
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	for _, d := range cat {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if m.attempted < 1 {
		return nil, fmt.Errorf("workload %s attempted nothing", o.workload)
	}
	return res, nil
}

func printMetrics(cat []metricDef, vals map[string]float64) {
	for _, d := range cat {
		fmt.Printf("  %-44s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}

// printUndeclared prints the measured window metrics that the end-to-end
// catalogue leaves out.
func printUndeclared(vals map[string]float64) {
	declared := map[string]bool{}
	for _, d := range endToEnd {
		declared[d.name] = true
	}
	for _, k := range sortedKeys(vals) {
		if !declared[k] {
			fmt.Printf("  %-44s %14.6g (printed only, not in the result)\n", k, vals[k])
		}
	}
}

// runRecord is the provenance every report carries.
func runRecord(o options) map[string]any {
	rec := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"n":          o.n,
		"setup_reps": o.setupReps,
		"warmup":     o.warmup,
		"git_commit": "unknown (built outside a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rec["git_commit"] = s.Value
			case "vcs.modified":
				rec["git_modified"] = s.Value
			}
		}
	}
	return rec
}

// workload runs one named workload and returns its measurement; tr is nil
// for an untraced run.
type workload func(o options, tr *tracer) (*measurement, error)

var workloads = map[string]workload{
	"point-c1":       func(o options, tr *tracer) (*measurement, error) { return runHTTP(o, tr, pointC1) },
	"shard-mixed-c2": func(o options, tr *tracer) (*measurement, error) { return runHTTP(o, tr, shardMixedC2) },
	"engine-bulk":    runEngineBulk,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// splitmix derives independent 64-bit seeds from one seed and a stream
// number, so the daemon's data and every client stream follow from -seed.
func splitmix(seed uint64, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
