package main

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"time"

	wegeom "repro"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd is the catalogue a run with tracing off prints. Every metric is
// defined on every workload; README.md gives the per-workload definitions.
// write_p90_ms is measured and printed but not declared: CPU steal from the
// host moved it by more than any allowed bound from run to run.
var endToEnd = []metricDef{
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"throughput_rps", "req/s"},
	{"query_qps", "queries/s"},
	{"update_ops_per_s", "ops/s"},
	{"model_reads_per_req", "count"},
	{"model_writes_per_req", "count"},
	{"model_reads_per_query", "count"},
	{"model_writes_per_query", "count"},
	{"model_writes_per_update", "count"},
	{"setup_s", "s"},
	{"setup_writes_per_item", "count"},
	{"heap_mb", "MB"},
}

// readOps and mixedOpNames are the Engine's Report.Op values of the ten
// read batches and the three mixed batches.
var (
	readOps = []string{
		"stab-batch", "stab-count-batch", "query3sided-batch", "count3sided-batch",
		"range-query-batch", "sumy-batch", "knn-batch", "kd-range-batch",
		"kd-range-count-batch", "locate-batch",
	}
	mixedOpNames = []string{"interval-mixed-batch", "rangetree-mixed-batch", "kd-mixed-batch"}
	structures   = []string{"interval", "pst", "rangetree", "kdtree", "delaunay"}
)

// ledgerPhases are the ledger phases a measured window charges, with any
// shardN/ prefix removed. Each gives <phase>.reads_per_op and
// <phase>.writes_per_op (see phaseMetric).
var ledgerPhases = []string{
	"interval/stab-batch/count", "interval/stab-batch/write", "interval/count-batch",
	"pst/query3-batch/count", "pst/query3-batch/write", "pst/count3-batch",
	"rangetree/query-batch/count", "rangetree/query-batch/write", "rangetree/sumy-batch",
	"kdtree/knn-batch/count", "kdtree/knn-batch/write",
	"kdtree/range-batch/count", "kdtree/range-batch/write", "kdtree/range-count-batch",
	"delaunay/locate-batch/count", "delaunay/locate-batch/write",
	"mbatch/interval/sort", "mbatch/interval/apply", "mbatch/interval/query/count", "mbatch/interval/query/write",
	"mbatch/rangetree/sort", "mbatch/rangetree/apply", "mbatch/rangetree/query/count", "mbatch/rangetree/query/write",
	"mbatch/kdtree/sort", "mbatch/kdtree/apply", "mbatch/kdtree/query/count", "mbatch/kdtree/query/write",
	"shard/route",
}

// perLayer is the catalogue a traced run prints. A layer a workload does
// not exercise reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	c := []metricDef{
		{"serve.transport_p50_ms", "ms"},
		{"serve.codec_p50_ms", "ms"},
		{"serve.resp_bytes_per_req", "bytes"},
		{"coalesce.wait_p50_ms", "ms"},
		{"coalesce.timeout_flush_frac", "ratio"},
		{"coalesce.mean_batch", "count"},
		{"coalesce.inflight_peak", "count"},
		{"coalesce.retries", "count"},
		{"shard.read_call_p50_ms", "ms"},
		{"shard.mixed_call_p50_ms", "ms"},
		{"shard.fanout_mean", "count"},
	}
	for _, op := range readOps {
		c = append(c, metricDef{"engine." + op + ".us_per_query", "us"})
	}
	for _, op := range mixedOpNames {
		c = append(c, metricDef{"engine." + op + ".us_per_op", "us"})
	}
	for _, p := range ledgerPhases {
		c = append(c, metricDef{phaseMetric(p) + ".reads_per_op", "count"}, metricDef{phaseMetric(p) + ".writes_per_op", "count"})
	}
	c = append(c,
		metricDef{"parallel.active_worker_frac", "ratio"},
		metricDef{"go.allocs_per_op", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
	)
	for _, s := range structures {
		c = append(c, metricDef{"setup." + s + "_s", "s"})
	}
	for _, s := range structures {
		c = append(c, metricDef{"setup." + s + ".writes_per_item", "count"})
	}
	return c
}

var shardPrefix = regexp.MustCompile(`^shard[0-9]+/`)

// basePhase strips a shardN/ prefix so the shards' phases sum.
func basePhase(name string) string { return shardPrefix.ReplaceAllString(name, "") }

// phaseMetric turns a ledger phase into a metric name stem.
func phaseMetric(name string) string { return strings.ReplaceAll(basePhase(name), "/", ".") }

// zeroLayers returns every per-layer metric set to 0.
func zeroLayers() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = 0
	}
	return out
}

// phaseLayers records <phase>.{reads,writes}_per_op for per-phase costs
// summed over shards and divided by ops(phase), and returns any charged
// phase the catalogue does not name.
func phaseLayers(layers map[string]float64, phases map[string]wegeom.Snapshot, ops func(base string) float64) []string {
	sum := map[string]wegeom.Snapshot{}
	for name, c := range phases {
		sum[basePhase(name)] = sum[basePhase(name)].Add(c)
	}
	var unknown []string
	for _, base := range sortedKeys(sum) {
		stem := phaseMetric(base)
		if _, ok := layers[stem+".reads_per_op"]; !ok {
			unknown = append(unknown, base)
			continue
		}
		n := ops(base)
		layers[stem+".reads_per_op"] = ratio(float64(sum[base].Reads), n)
		layers[stem+".writes_per_op"] = ratio(float64(sum[base].Writes), n)
	}
	return unknown
}

// setupLayers records setup.<structure>.writes_per_item from the build
// phases charged while booting.
func setupLayers(layers map[string]float64, phases map[string]wegeom.Snapshot, n, delaunayN int) {
	for name, c := range phases {
		base := basePhase(name)
		for _, s := range structures {
			if strings.HasPrefix(base, s+"/") {
				items := n
				if s == "delaunay" {
					items = delaunayN
				}
				layers["setup."+s+".writes_per_item"] += ratio(float64(c.Writes), float64(items))
			}
		}
	}
}

// call is one distinct runner or Engine call recovered from the spans.
type call struct {
	layer, op string
	dur       time.Duration
	queries   int
	fanout    int
	workers   int
	active    int
}

func isMixedOp(op string) bool { return strings.Contains(op, "mixed") }

// callLayers records the per-call engine, shard and parallel metrics.
func callLayers(layers map[string]float64, calls []call) {
	perQuery := map[string][]float64{}
	var shardReads, shardMixed []float64
	var fanout, workerFrac []float64
	for _, c := range calls {
		if c.layer == "engine" && c.queries > 0 {
			perQuery[c.op] = append(perQuery[c.op], float64(c.dur)/float64(time.Microsecond)/float64(c.queries))
		}
		if c.layer == "shard" {
			if isMixedOp(c.op) {
				shardMixed = append(shardMixed, msOf(c.dur))
			} else {
				shardReads = append(shardReads, msOf(c.dur))
				fanout = append(fanout, float64(c.fanout))
			}
		}
		if c.layer == "engine" && c.workers > 0 {
			workerFrac = append(workerFrac, float64(c.active)/float64(c.workers))
		}
	}
	for op, v := range perQuery {
		unit := ".us_per_query"
		if isMixedOp(op) {
			unit = ".us_per_op"
		}
		layers["engine."+op+unit] = median(v)
	}
	if len(shardReads) > 0 {
		layers["shard.read_call_p50_ms"] = median(shardReads)
		layers["shard.fanout_mean"] = mean(fanout)
	}
	if len(shardMixed) > 0 {
		layers["shard.mixed_call_p50_ms"] = median(shardMixed)
	}
	layers["parallel.active_worker_frac"] = mean(workerFrac)
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// goLayers records the Go runtime's allocation and GC activity between two
// MemStats readings, per operation.
func goLayers(layers map[string]float64, before, after *runtime.MemStats, ops float64) {
	layers["go.allocs_per_op"] = ratio(float64(after.Mallocs-before.Mallocs), ops)
	layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	layers["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// requestSpans groups one window's spans by request id.
type requestSpans struct {
	client, serve, coalesce *span
	runners                 []span
}

func groupSpans(spans []span) map[int64]*requestSpans {
	out := map[int64]*requestSpans{}
	for i := range spans {
		s := &spans[i]
		g := out[s.ID]
		if g == nil {
			g = &requestSpans{}
			out[s.ID] = g
		}
		switch s.Layer {
		case "client":
			g.client = s
		case "serve":
			g.serve = s
		case "coalesce":
			g.coalesce = s
		default:
			g.runners = append(g.runners, *s)
		}
	}
	return out
}

// layerTimes holds each layer's self time per request, in milliseconds, and
// how many replay-derived codec self times came out negative.
type layerTimes struct {
	client, transport, codec, wait, runner []float64
	negCodec                               int
}

func selfTimes(groups map[int64]*requestSpans) layerTimes {
	var t layerTimes
	for _, g := range groups {
		if g.client == nil || g.serve == nil || g.coalesce == nil {
			continue
		}
		t.client = append(t.client, msOf(g.client.dur()))
		t.transport = append(t.transport, msOf(selfTime(*g.client, []span{*g.serve})))
		codec := replaySelf(*g.serve, []span{*g.coalesce})
		if codec < 0 {
			t.negCodec++
		}
		t.codec = append(t.codec, msOf(codec))
		t.wait = append(t.wait, msOf(selfTime(*g.coalesce, g.runners)))
		var run time.Duration
		for _, r := range g.runners {
			run += r.dur()
		}
		t.runner = append(t.runner, msOf(run))
	}
	return t
}

// distinctCalls recovers each runner call once from spans that a coalesced
// batch recorded once per member request.
func distinctCalls(spans []span) []call {
	type key struct {
		layer      string
		start, end int64
	}
	seen := map[key]bool{}
	var out []call
	for _, s := range spans {
		if s.Layer != "engine" && s.Layer != "shard" {
			continue
		}
		k := key{s.Layer, s.Start, s.End}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, call{layer: s.Layer, op: s.Op, dur: s.dur(), queries: s.Queries, fanout: s.Fanout, workers: s.Workers, active: s.Active})
	}
	return out
}

// httpLayers computes the per-layer metrics of a traced HTTP window.
func httpLayers(layers map[string]float64, w *window) []string {
	t := selfTimes(groupSpans(w.spans))
	layers["serve.transport_p50_ms"] = median(t.transport)
	layers["serve.codec_p50_ms"] = median(t.codec)
	layers["coalesce.wait_p50_ms"] = median(t.wait)
	var bytes, reqs float64
	for _, s := range w.samples {
		if s.err == nil {
			bytes += float64(s.bytes)
			reqs++
		}
	}
	layers["serve.resp_bytes_per_req"] = ratio(bytes, reqs)
	flushes := w.co.SizeFlushes + w.co.TimeoutFlushes + w.co.DrainFlushes
	layers["coalesce.timeout_flush_frac"] = ratio(float64(w.co.TimeoutFlushes), float64(flushes))
	layers["coalesce.mean_batch"] = w.co.MeanBatch()
	layers["coalesce.inflight_peak"] = float64(w.peak)
	layers["coalesce.retries"] = float64(w.co.Retries)
	callLayers(layers, distinctCalls(w.spans))
	goLayers(layers, &w.mem, &w.memEnd, reqs)
	return phaseLayers(layers, w.phases, func(string) float64 { return reqs })
}

// httpSelfTable prints the per-layer self-time table of a traced window.
func httpSelfTable(w *window, wl httpWorkload) []string {
	t := selfTimes(groupSpans(w.spans))
	clientMean := mean(t.client)
	row := func(name string, xs []float64, neg int, note string) string {
		return fmt.Sprintf("  %-34s %7d %10.4f %10.4f %7.1f%% %5d  %s", name, len(xs), median(xs), mean(xs), 100*ratio(mean(xs), clientMean), neg, note)
	}
	runner := "engine (replayed)"
	if wl.shards > 1 {
		runner = "shard router + engines (replayed)"
	}
	out := []string{
		fmt.Sprintf("per-layer self time, %s (ms per request):", wl.name),
		fmt.Sprintf("  %-34s %7s %10s %10s %8s %5s", "layer", "spans", "p50", "mean", "share", "neg"),
		row("client (whole request)", t.client, 0, ""),
		row("transport: client - serve", t.transport, 0, "net/http, loopback, client"),
		row("serve codec: serve - replayed coalesce", t.codec, t.negCodec, "parse, demux, JSON encode"),
		row("coalesce wait: coalesce - runner", t.wait, 0, "window wait, flush, demux"),
		row(runner, t.runner, 0, ""),
	}
	if wl.clients > 1 {
		out = append(out, "  note: with more than one client each request is replayed alone, not in the batch the daemon coalesced it into, so the replayed layers are an estimate")
	}
	if t.negCodec > 0 {
		out = append(out, fmt.Sprintf("  FLAG: %d of %d replay-derived codec self times are negative: for those requests the replay does not represent the daemon's path", t.negCodec, len(t.codec)))
	}
	return out
}

// sortedPhaseList formats phase costs for the report.
func sortedPhaseList(phases map[string]wegeom.Snapshot) []string {
	var out []string
	for _, n := range sortedKeys(phases) {
		out = append(out, fmt.Sprintf("    %-40s %v", n, phases[n]))
	}
	return out
}
