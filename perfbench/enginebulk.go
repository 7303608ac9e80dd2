package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	wegeom "repro"
	"repro/internal/gen"
)

// mixedBlock is the number of items one engine-bulk mixed batch inserts and
// deletes: each round runs the ten read kinds in batches of o.readBatch
// queries, then one mixed batch per updatable tree made of mixedBlock
// queries, mixedBlock inserts, the same queries, the matching deletes and
// the queries once more.
const mixedBlock = 2

// bulk holds engine-bulk's built structures and its read batch size.
type bulk struct {
	readBatch int
	eng       *wegeom.Engine
	iv        *wegeom.IntervalTree
	pst       *wegeom.PriorityTree
	rt        *wegeom.RangeTree
	kd        *wegeom.KDTree
	tri       *wegeom.Triangulation
}

// bulkCall is one timed Engine call and what the benchmark keeps of its
// Report. The Report itself is dropped: it carries a snapshot of every shard
// of the Engine's meter, and keeping a 25 s window's worth of them grew the
// live heap from 200 MB to over 900 MB.
type bulkCall struct {
	op      string
	mixed   bool
	end     time.Time
	dur     time.Duration
	ops     int // queries of a read batch, ops of a mixed batch
	updates int
	total   wegeom.Snapshot
	phases  map[string]wegeom.Snapshot
	workers int
	active  int
}

// newBulkCall records a call that ended now, begun at t0.
func newBulkCall(rep *wegeom.Report, t0 time.Time, mixed bool, ops, updates int) bulkCall {
	end := time.Now()
	return bulkCall{op: rep.Op, mixed: mixed, end: end, dur: end.Sub(t0), ops: ops, updates: updates,
		total: rep.Total, phases: rep.PhaseTotals(), workers: rep.Workers, active: rep.ActiveWorkers()}
}

// bulkWindow is one measured window of the engine-bulk loop.
type bulkWindow struct {
	start     time.Time
	secs      float64
	calls     []bulkCall
	kept      []kept
	mixedKept []mixedKept
	mem       runtime.MemStats
	end       runtime.MemStats
}

func runEngineBulk(o options, tr *tracer) (*measurement, error) {
	ctx := context.Background()
	m := &measurement{e2e: map[string]float64{}, layers: zeroLayers(), record: map[string]any{}}
	dataSeed := splitmix(o.seed, 0)
	m.record["data_seed"] = dataSeed
	m.record["engine"] = fmt.Sprintf("N=%d per tree, %d Delaunay points, default parallelism, read batches of %d, mixed batches of %d ops", o.n, o.delaunayN, o.readBatch, 5*mixedBlock)

	// Set-up: build the five structures setupReps times after a forced GC;
	// setup_s is the fastest set-up's summed wall time of the five builds,
	// since interference from the host only ever slows one.
	var b *bulk
	buildSecs := map[string][]float64{}
	var totals []float64
	for rep := 0; rep < o.setupReps; rep++ {
		b = nil
		runtime.GC()
		nb, secs, writes, err := buildBulk(ctx, o, dataSeed)
		if err != nil {
			return nil, err
		}
		b = nb
		sum := 0.0
		for s, v := range secs {
			buildSecs[s] = append(buildSecs[s], v)
			sum += v
		}
		totals = append(totals, sum)
		var all int64
		for s, w := range writes {
			items := o.n
			if s == "delaunay" {
				items = o.delaunayN
			}
			m.layers["setup."+s+".writes_per_item"] = ratio(float64(w), float64(items))
			all += w
		}
		m.e2e["setup_writes_per_item"] = ratio(float64(all), float64(4*o.n+o.delaunayN))
	}
	m.e2e["setup_s"] = slices.Min(totals)
	for s, v := range buildSecs {
		m.layers["setup."+s+"_s"] = slices.Min(v)
	}
	m.extra = append(m.extra, fmt.Sprintf("setup: %d builds of all five structures, seconds %s", len(totals), fmtFloats(totals)))

	streamSeed := splitmix(o.seed, 1)
	m.record["stream_seed"] = streamSeed
	st := newStream(streamSeed, 0, o.n, nil)
	st.idBase = 1 << 29
	warm := b.loop(ctx, st, func(round int) bool { return round < 1 }, nil, nil)
	for _, err := range warm.errs {
		m.fail("warm-up: %v", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.e2e["heap_mb"] = float64(ms.HeapAlloc) / 1e6

	data := genDataset(o.n, dataSeed)
	sizes0 := b.sizes()

	measure := func(tr *tracer) (*bulkWindow, []error) {
		w := &bulkWindow{}
		runtime.ReadMemStats(&w.mem)
		w.start = time.Now()
		deadline := w.start.Add(time.Duration(o.seconds * float64(time.Second)))
		res := b.loop(ctx, st, func(int) bool { return time.Now().Before(deadline) }, tr, data)
		w.secs = time.Since(w.start).Seconds()
		runtime.ReadMemStats(&w.end)
		w.calls, w.kept, w.mixedKept = res.calls, res.kept, res.mixedKept
		return w, res.errs
	}
	plain, errs := measure(nil)
	windows := []*bulkWindow{plain}
	if err := bulkE2E(m.e2e, plain); err != nil {
		return nil, fmt.Errorf("untraced window: %w", err)
	}
	var traced *bulkWindow
	if tr != nil {
		var terrs []error
		traced, terrs = measure(tr)
		errs = append(errs, terrs...)
		windows = append(windows, traced)
	}
	for _, err := range errs {
		m.fail("%v", err)
	}
	sizes1 := b.sizes()
	m.attempted += int64(len(sizes0))
	for i := range sizes0 {
		if sizes0[i] != sizes1[i] || sizes0[i] != o.n {
			m.fail("structure %s size %d at start, %d at end, generated %d", structures[i], sizes0[i], sizes1[i], o.n)
		}
	}
	for _, w := range windows {
		m.attempted += int64(len(w.calls))
		for _, k := range w.kept {
			if err := checkResponse(data, b.tri, k); err != nil {
				m.fail("%s wrong answer: %v", endpointPath[k.req.ep], err)
			}
		}
		for _, k := range w.mixedKept {
			if err := k.check(data); err != nil {
				m.fail("mixed batch wrong answer: %v", err)
			}
		}
	}
	m.extra = append(m.extra, bulkReport("untraced window", plain)...)
	if traced != nil {
		if unknown := bulkLayers(m.layers, traced); len(unknown) > 0 {
			m.extra = append(m.extra, "phases charged but not in the per-layer catalogue: "+strings.Join(unknown, ", "))
		}
		e2eTraced := map[string]float64{}
		if err := bulkE2E(e2eTraced, traced); err != nil {
			m.extra = append(m.extra, "traced window: "+err.Error())
		}
		m.extra = append(m.extra, bulkReport("traced window", traced)...)
		m.extra = append(m.extra, overheadTable(m.e2e, e2eTraced)...)
		m.extra = append(m.extra, bulkSelfTable(traced)...)
	}
	return m, nil
}

// buildBulk generates the input from seed and builds the five structures,
// timing each build.
func buildBulk(ctx context.Context, o options, seed uint64) (*bulk, map[string]float64, map[string]int64, error) {
	d := genDataset(o.n, seed)
	b := &bulk{readBatch: o.readBatch, eng: wegeom.NewEngine(wegeom.WithSeed(seed))}
	dpts := b.eng.ShufflePoints(gen.UniformPoints(o.delaunayN, seed+5))
	pst := d.pstPoints()
	secs, writes := map[string]float64{}, map[string]int64{}
	timed := func(s string, f func() (*wegeom.Report, error)) error {
		t0 := time.Now()
		rep, err := f()
		secs[s] = time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("build %s: %w", s, err)
		}
		writes[s] = rep.Total.Writes
		return nil
	}
	var err error
	steps := []struct {
		name string
		f    func() (*wegeom.Report, error)
	}{
		{"interval", func() (r *wegeom.Report, e error) { b.iv, r, e = b.eng.NewIntervalTree(ctx, d.ivs); return }},
		{"pst", func() (r *wegeom.Report, e error) { b.pst, r, e = b.eng.NewPriorityTree(ctx, pst); return }},
		{"rangetree", func() (r *wegeom.Report, e error) { b.rt, r, e = b.eng.NewRangeTree(ctx, d.pts); return }},
		{"kdtree", func() (r *wegeom.Report, e error) { b.kd, r, e = b.eng.BuildKDTree(ctx, 2, d.kd); return }},
		{"delaunay", func() (r *wegeom.Report, e error) { b.tri, r, e = b.eng.Triangulate(ctx, dpts); return }},
	}
	for _, s := range steps {
		if err = timed(s.name, s.f); err != nil {
			return nil, nil, nil, err
		}
	}
	return b, secs, writes, nil
}

// sizes returns the four updatable structures' sizes, in structures order.
func (b *bulk) sizes() []int {
	return []int{b.iv.Len(), b.pst.Len(), b.rt.Len(), b.kd.Len()}
}

type loopResult struct {
	calls     []bulkCall
	kept      []kept
	mixedKept []mixedKept
	errs      []error
}

// bulkReads is the order of the ten read kinds in a round.
var bulkReads = []endpoint{epStab, epStabCount, epQ3, epQ3Count, epRange, epRangeSum, epKNN, epKDRange, epKDRangeCount, epLocate}

// loop runs rounds while more(round) holds. With data non-nil it keeps one
// sampled answer per batch for the brute-force check; with tr non-nil it
// records an engine span per call.
func (b *bulk) loop(ctx context.Context, st *stream, more func(round int) bool, tr *tracer, data *dataset) loopResult {
	var res loopResult
	id := int64(0)
	for round := 0; more(round); round++ {
		for _, ep := range bulkReads {
			reqs := make([]request, b.readBatch)
			for i := range reqs {
				reqs[i] = st.draw(ep)
			}
			var s0 int64
			if tr != nil {
				s0 = tr.now()
			}
			t0 := time.Now()
			rep, answer, err := b.read(ctx, ep, reqs)
			c := newBulkCall(rep, t0, false, b.readBatch, 0)
			id++
			if tr != nil {
				tr.add(engineSpan(id, s0, tr.now(), c))
			}
			res.calls = append(res.calls, c)
			if err != nil {
				res.errs = append(res.errs, fmt.Errorf("%s: %w", rep.Op, err))
				continue
			}
			if data != nil {
				i := st.rng.Intn(b.readBatch)
				res.kept = append(res.kept, kept{req: reqs[i], resp: answer(i)})
			}
		}
		for _, structure := range []string{"interval", "range", "kd"} {
			blk := make([]*mixedReq, mixedBlock)
			for i := range blk {
				blk[i] = st.mixedOn(structure)
			}
			var s0 int64
			if tr != nil {
				s0 = tr.now()
			}
			t0 := time.Now()
			rep, answers, err := b.mixed(ctx, structure, blk)
			c := newBulkCall(rep, t0, true, 5*mixedBlock, 2*mixedBlock)
			id++
			if tr != nil {
				tr.add(engineSpan(id, s0, tr.now(), c))
			}
			res.calls = append(res.calls, c)
			if err == nil {
				err = checkEpochs(blk, answers)
			}
			if err == nil && data != nil {
				j := st.rng.Intn(mixedBlock)
				res.mixedKept = append(res.mixedKept, mixedKept{blk: blk, j: j, epochs: answers(j)})
			}
			if err != nil {
				res.errs = append(res.errs, fmt.Errorf("%s: %w", rep.Op, err))
			}
		}
	}
	return res
}

func engineSpan(id, start, end int64, c bulkCall) span {
	return span{ID: id, Layer: "engine", Op: c.op, Start: start, End: end, Queries: c.ops, Workers: c.workers, Active: c.active}
}

func count(v int64) *float64 {
	f := float64(v)
	return &f
}

// read runs one read batch of kind ep and returns a function giving query
// i's answer in response form.
func (b *bulk) read(ctx context.Context, ep endpoint, reqs []request) (*wegeom.Report, func(int) *response, error) {
	switch ep {
	case epStab, epStabCount:
		qs := make([]float64, len(reqs))
		for i, r := range reqs {
			qs[i] = r.q
		}
		if ep == epStabCount {
			out, rep, err := b.eng.StabCountBatch(ctx, b.iv, qs)
			return rep, func(i int) *response { return &response{Count: count(out[i])} }, err
		}
		out, rep, err := b.eng.StabBatch(ctx, b.iv, qs)
		return rep, func(i int) *response { return &response{Intervals: slices.Clone(out.Results(i))} }, err
	case epQ3, epQ3Count:
		qs := make([]wegeom.PSTQuery, len(reqs))
		for i, r := range reqs {
			qs[i] = r.pstQuery()
		}
		if ep == epQ3Count {
			out, rep, err := b.eng.Count3SidedBatch(ctx, b.pst, qs)
			return rep, func(i int) *response { return &response{Count: count(out[i])} }, err
		}
		out, rep, err := b.eng.Query3SidedBatch(ctx, b.pst, qs)
		return rep, func(i int) *response {
			var ps []wegeom.RTPoint
			for _, p := range out.Results(i) {
				ps = append(ps, wegeom.RTPoint{X: p.X, Y: p.Y, ID: p.ID})
			}
			return &response{Points: ps}
		}, err
	case epRange, epRangeSum:
		qs := make([]wegeom.RTQuery, len(reqs))
		for i, r := range reqs {
			qs[i] = r.rect
		}
		if ep == epRangeSum {
			out, rep, err := b.eng.SumYBatch(ctx, b.rt, qs)
			return rep, func(i int) *response { v := out[i]; return &response{SumY: &v} }, err
		}
		out, rep, err := b.eng.RangeQueryBatch(ctx, b.rt, qs)
		return rep, func(i int) *response { return &response{Points: slices.Clone(out.Results(i))} }, err
	case epKNN:
		qs := make([]wegeom.KPoint, len(reqs))
		for i, r := range reqs {
			qs[i] = wegeom.KPoint{r.pt.X, r.pt.Y}
		}
		out, rep, err := b.eng.KNNBatch(ctx, b.kd, qs, knnK)
		return rep, func(i int) *response { return &response{Neighbors: slices.Clone(out.Results(i))} }, err
	case epKDRange, epKDRangeCount:
		qs := make([]wegeom.KBox, len(reqs))
		for i, r := range reqs {
			qs[i] = r.box()
		}
		if ep == epKDRangeCount {
			out, rep, err := b.eng.KDRangeCountBatch(ctx, b.kd, qs)
			return rep, func(i int) *response { return &response{Count: count(out[i])} }, err
		}
		out, rep, err := b.eng.KDRangeBatch(ctx, b.kd, qs)
		return rep, func(i int) *response { return &response{Items: slices.Clone(out.Results(i))} }, err
	}
	qs := make([]wegeom.Point, len(reqs))
	for i, r := range reqs {
		qs[i] = r.pt
	}
	out, rep, err := b.eng.LocateBatch(ctx, b.tri, qs)
	return rep, func(i int) *response { return &response{Triangles: slices.Clone(out.Results(i))} }, err
}

// mixed runs one mixed batch on structure: queries, inserts, the same
// queries, deletes, the queries again. answers(j) returns query j's ids in
// the three query epochs.
func (b *bulk) mixed(ctx context.Context, structure string, blk []*mixedReq) (*wegeom.Report, func(j int) [3][]int32, error) {
	k := len(blk)
	var get func(op int) []int32
	var rep *wegeom.Report
	var err error
	switch structure {
	case "interval":
		ops := make([]wegeom.IntervalOp, 5*k)
		for j, r := range blk {
			all := r.intervalOps()
			ops[j], ops[k+j], ops[2*k+j], ops[3*k+j], ops[4*k+j] = all[0], all[1], all[2], all[3], all[4]
		}
		var out *wegeom.IntervalMixed
		out, rep, err = b.eng.IntervalMixedBatch(ctx, b.iv, ops)
		get = func(op int) []int32 { r, _ := out.ResultsAt(op); return intervalIDs(r) }
	case "range":
		ops := make([]wegeom.RTOp, 5*k)
		for j, r := range blk {
			all := r.rtOps()
			ops[j], ops[k+j], ops[2*k+j], ops[3*k+j], ops[4*k+j] = all[0], all[1], all[2], all[3], all[4]
		}
		var out *wegeom.RTMixed
		out, rep, err = b.eng.RangeTreeMixedBatch(ctx, b.rt, ops)
		get = func(op int) []int32 { r, _ := out.ResultsAt(op); return pointIDs(r) }
	default:
		ops := make([]wegeom.KDOp, 5*k)
		for j, r := range blk {
			all := r.kdOps()
			ops[j], ops[k+j], ops[2*k+j], ops[3*k+j], ops[4*k+j] = all[0], all[1], all[2], all[3], all[4]
		}
		var out *wegeom.KDMixed
		out, rep, err = b.eng.KDMixedBatch(ctx, b.kd, ops)
		get = func(op int) []int32 { r, _ := out.ResultsAt(op); return itemIDs(r) }
	}
	answers := func(j int) [3][]int32 { return [3][]int32{get(j), get(2*k + j), get(4*k + j)} }
	return rep, answers, err
}

// checkEpochs checks every query of a mixed block: the middle epoch of
// query j sees item j's id, the first and last do not.
func checkEpochs(blk []*mixedReq, answers func(int) [3][]int32) error {
	for j, r := range blk {
		for epoch, ids := range answers(j) {
			if sees := slices.Contains(ids, r.id); sees != (epoch == 1) {
				return fmt.Errorf("query %d epoch %d: sees inserted id %d = %v", j, epoch, r.id, sees)
			}
		}
	}
	return nil
}

// mixedKept is one sampled mixed-batch query kept for the brute-force
// check: its block and its answers in the three query epochs.
type mixedKept struct {
	blk    []*mixedReq
	j      int
	epochs [3][]int32
}

// check compares the sampled query's answers with a brute-force scan: the
// base data before the inserts and after the deletes, plus every inserted
// item the query covers in between.
func (k mixedKept) check(d *dataset) error {
	r := k.blk[k.j]
	var base []int32
	var covers func(o *mixedReq) bool
	switch r.structure {
	case "interval":
		base = d.stab(r.q)
		covers = func(o *mixedReq) bool { return o.iv.Left <= r.q && r.q <= o.iv.Right }
	case "range":
		base = d.rect(r.rect)
		covers = func(o *mixedReq) bool { return inRect(r.rect, o.x, o.y) }
	default:
		base = d.kdRange(rectBox(r.rect))
		covers = func(o *mixedReq) bool { return inRect(r.rect, o.x, o.y) }
	}
	mid := base
	for _, o := range k.blk {
		if covers(o) {
			mid = withID(mid, o.id)
		}
	}
	for epoch, want := range [][]int32{base, mid, base} {
		if err := sameIDs(k.epochs[epoch], want); err != nil {
			return fmt.Errorf("%s query %d epoch %d: %w", r.structure, k.j, epoch, err)
		}
	}
	return nil
}

// bulkE2E computes engine-bulk's end-to-end metrics from one window. Rates
// and latency percentiles are taken over the whole window; latency averages
// the per-kind percentiles (see stratified).
func bulkE2E(e map[string]float64, w *bulkWindow) error {
	var readQ, readSecs, mixedOps, mixedSecs float64
	var all, readCost, mixedCost wegeom.Snapshot
	var nUpdates float64
	for _, c := range w.calls {
		all = all.Add(c.total)
		if c.mixed {
			mixedOps += float64(c.ops)
			mixedSecs += c.dur.Seconds()
			nUpdates += float64(c.updates)
			mixedCost = mixedCost.Add(c.total)
		} else {
			readQ += float64(c.ops)
			readSecs += c.dur.Seconds()
			readCost = readCost.Add(c.total)
		}
	}
	reads, writes := w.latencies()
	var err error
	if e["read_p50_ms"], e["read_p90_ms"], err = stratified(reads); err != nil {
		return fmt.Errorf("read latency: %w", err)
	}
	if e["write_p50_ms"], e["write_p90_ms"], err = stratified(writes); err != nil {
		return fmt.Errorf("write latency: %w", err)
	}
	nCalls := float64(len(w.calls))
	e["throughput_rps"] = nCalls / w.secs
	e["query_qps"] = ratio(readQ, readSecs)
	e["update_ops_per_s"] = ratio(mixedOps, mixedSecs)
	e["model_reads_per_req"] = ratio(float64(all.Reads), nCalls)
	e["model_writes_per_req"] = ratio(float64(all.Writes), nCalls)
	e["model_reads_per_query"] = ratio(float64(readCost.Reads), readQ)
	e["model_writes_per_query"] = ratio(float64(readCost.Writes), readQ)
	e["model_writes_per_update"] = ratio(float64(mixedCost.Writes), nUpdates)
	return nil
}

// latencies groups the window's call latencies by read kind and by mixed
// kind.
func (w *bulkWindow) latencies() (reads, writes map[string][]time.Duration) {
	reads, writes = map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, c := range w.calls {
		if c.mixed {
			writes[c.op] = append(writes[c.op], c.dur)
		} else {
			reads[c.op] = append(reads[c.op], c.dur)
		}
	}
	return reads, writes
}

// bulkLayers computes engine-bulk's per-layer metrics from a traced window.
func bulkLayers(layers map[string]float64, w *bulkWindow) []string {
	calls := make([]call, len(w.calls))
	phases := map[string]wegeom.Snapshot{}
	opsOf := map[string]float64{}
	for i, c := range w.calls {
		calls[i] = call{layer: "engine", op: c.op, dur: c.dur, queries: c.ops, workers: c.workers, active: c.active}
		charged := map[string]bool{}
		for name, cost := range c.phases {
			phases[name] = phases[name].Add(cost)
			charged[basePhase(name)] = true
		}
		for base := range charged {
			opsOf[base] += float64(c.ops)
		}
	}
	callLayers(layers, calls)
	goLayers(layers, &w.mem, &w.end, float64(len(w.calls)))
	return phaseLayers(layers, phases, func(base string) float64 { return opsOf[base] })
}

// bulkReport prints a window's per-kind latencies with their counts.
func bulkReport(title string, w *bulkWindow) []string {
	phases := map[string]wegeom.Snapshot{}
	lat := map[string][]time.Duration{}
	var ends []time.Duration
	for _, c := range w.calls {
		for name, cost := range c.phases {
			phases[name] = phases[name].Add(cost)
		}
		lat[c.op] = append(lat[c.op], c.dur)
		ends = append(ends, c.end.Sub(w.start))
	}
	out := []string{
		fmt.Sprintf("%s: %.3f s, %d Engine calls; calls/s in each fifth of the window %s", title, w.secs, len(w.calls), trend(ends, w.secs)),
	}
	for _, op := range append(append([]string{}, readOps...), mixedOpNames...) {
		out = append(out, "  "+latencyLine(op, summarize(lat[op])))
	}
	out = append(out, "  ledger phases charged:")
	out = append(out, sortedPhaseList(phases)...)
	return out
}

// bulkSelfTable prints each Engine op's share of the traced window. The
// Engine reports no wall time per ledger phase, so a call's span is its
// self time.
func bulkSelfTable(w *bulkWindow) []string {
	tot := map[string]time.Duration{}
	n := map[string]int{}
	var sum time.Duration
	for _, c := range w.calls {
		tot[c.op] += c.dur
		n[c.op]++
		sum += c.dur
	}
	out := []string{
		"per-layer self time, engine-bulk (engine spans; no child spans below the Engine call):",
		fmt.Sprintf("  %-24s %7s %12s %8s", "op", "calls", "total ms", "share"),
	}
	for _, op := range append(append([]string{}, readOps...), mixedOpNames...) {
		out = append(out, fmt.Sprintf("  %-24s %7d %12.2f %7.1f%%", op, n[op], msOf(tot[op]), 100*ratio(float64(tot[op]), float64(sum))))
	}
	out = append(out, fmt.Sprintf("  %-24s %7d %12.2f of a %.2f s window", "all calls", len(w.calls), msOf(sum), w.secs))
	return out
}
