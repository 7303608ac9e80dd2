package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wegeom "repro"
	"repro/internal/coalesce"
	"repro/internal/serve"
)

// httpWorkload is a closed-loop HTTP workload against an in-process
// wegeom-serve daemon on loopback.
type httpWorkload struct {
	name    string
	shards  int
	clients int
	// straddle aims /range and /knn queries across the shard cut.
	straddle bool
	writeTo  []string // structures the /batch requests rotate over
	next     func(*stream) request
}

var (
	// point-c1 writes to one structure only, so its write latency is one
	// distribution rather than three that do not overlap.
	pointC1      = httpWorkload{name: "point-c1", shards: 1, clients: 1, writeTo: []string{"interval"}, next: cycleAll}
	shardMixedC2 = httpWorkload{name: "shard-mixed-c2", shards: 2, clients: 2, straddle: true, writeTo: []string{"interval", "range", "kd"}, next: skewedMix}
)

// reqHeader carries the request id to the daemon-side span recorder.
const reqHeader = "X-Bench-Req"

// checkEvery is the read-response sampling period of the answer checks;
// every /batch response is checked.
const checkEvery = 3

// client is one closed-loop connection and its request stream.
type client struct {
	hc   *http.Client
	base string
	s    *stream
	next func(*stream) request
}

// sample is one completed (or failed) request.
type sample struct {
	ep        endpoint
	structure string // /batch only
	start     time.Time
	dur       time.Duration
	bytes     int
	err       error
}

// kept is an answer held back for checking after the window: an HTTP
// response body, or an Engine answer already in response form.
type kept struct {
	req  request
	body []byte
	resp *response
}

// window is what one measured window of all clients observed.
type window struct {
	start   time.Time
	secs    float64
	samples []sample
	kept    []kept
	totals  wegeom.Snapshot
	phases  map[string]wegeom.Snapshot
	co      coalesce.Stats // CoalesceStats delta
	peak    int64          // InFlightPeak at the window's end
	mem     runtime.MemStats
	memEnd  runtime.MemStats
	spans   []span // spans recorded during the window (traced only)
}

func runHTTP(o options, tr *tracer, wl httpWorkload) (*measurement, error) {
	ctx := context.Background()
	m := &measurement{e2e: map[string]float64{}, layers: zeroLayers(), record: map[string]any{}}
	dataSeed := splitmix(o.seed, 0)
	if wl.straddle {
		dataSeed = cutOnX(o.n, dataSeed)
	}
	cfg := serve.Config{N: o.n, Seed: dataSeed, Shards: wl.shards}
	if wl.shards > 1 {
		cfg.ShardScheme = "grid"
	}
	m.record["data_seed"] = dataSeed
	m.record["daemon"] = fmt.Sprintf("N=%d shards=%d scheme=%q parallelism=%d (0 = runtime default)", cfg.N, cfg.Shards, cfg.ShardScheme, cfg.Parallelism)
	m.record["coalescer"] = fmt.Sprintf("MaxBatch=%d MaxWait=%v MaxInFlight=%d (0 = package default)", cfg.MaxBatch, cfg.MaxWait, cfg.MaxInFlight)
	m.record["clients"] = fmt.Sprintf("%d closed-loop, one connection each", wl.clients)

	// Set-up: boot the daemon setupReps times after a forced GC each time;
	// setup_s is the fastest boot, since interference from the host only
	// ever slows one, and the last boot serves the run.
	var srv *serve.Server
	var boots []float64
	for i := 0; i < o.setupReps; i++ {
		if srv != nil {
			srv.Close()
			srv = nil
		}
		runtime.GC()
		t0 := time.Now()
		s, err := serve.Boot(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		boots = append(boots, time.Since(t0).Seconds())
		srv = s
	}
	defer srv.Close()
	bootPhases, bootTotal := srv.Totals()
	delaunayN := srv.Checkpoint().Delaunay.N
	m.e2e["setup_s"] = slices.Min(boots)
	m.e2e["setup_writes_per_item"] = ratio(float64(bootTotal.Writes), float64(4*o.n+delaunayN))
	setupLayers(m.layers, bootPhases, o.n, delaunayN)
	m.extra = append(m.extra, fmt.Sprintf("setup: %d boots, seconds %s", len(boots), fmtFloats(boots)))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := srv.Handler()
	if tr != nil {
		handler = serveSpans(tr, handler)
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Shutdown(ctx) // closes idle connections; every request has completed
		<-served
	}()

	if wl.straddle {
		if err := checkStraddle(ctx, srv); err != nil {
			return nil, err
		}
	}
	clients := make([]*client, wl.clients)
	clientSeeds := make([]uint64, wl.clients)
	for i := range clients {
		tp := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		defer tp.CloseIdleConnections()
		clientSeeds[i] = splitmix(o.seed, uint64(1+i))
		clients[i] = &client{
			hc:   &http.Client{Transport: tp},
			base: "http://" + ln.Addr().String(),
			s:    newStream(clientSeeds[i], i, o.n, wl.writeTo),
			next: wl.next,
		}
		clients[i].s.straddle = wl.straddle
	}
	m.record["client_seeds"] = clientSeeds
	var ids atomic.Int64

	// Warm-up: a fixed number of requests per client, not measured.
	warm := drive(clients, &ids, func(c int, done int) bool { return done < o.warmup }, nil, nil)
	for _, s := range warm.samples {
		if s.err != nil {
			m.fail("warm-up %s: %v", endpointPath[s.ep], s.err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.e2e["heap_mb"] = float64(ms.HeapAlloc) / 1e6

	data := genDataset(o.n, dataSeed)
	sizes0 := structureSizes(ctx, srv, data, m)

	measure := func(rp *replayer) *window {
		phases0, total0 := srv.Totals()
		co0 := srv.CoalesceStats()
		w := &window{}
		runtime.ReadMemStats(&w.mem)
		var spans0 int
		if tr != nil {
			spans0 = len(tr.snapshot())
		}
		w.start = time.Now()
		deadline := w.start.Add(time.Duration(o.seconds * float64(time.Second)))
		res := drive(clients, &ids, func(int, int) bool { return time.Now().Before(deadline) }, rp, tr)
		w.secs = time.Since(w.start).Seconds()
		runtime.ReadMemStats(&w.memEnd)
		w.samples, w.kept = res.samples, res.kept
		phases1, total1 := srv.Totals()
		co1 := srv.CoalesceStats()
		w.totals = total1.Sub(total0)
		w.phases = map[string]wegeom.Snapshot{}
		for k, v := range phases1 {
			if d := v.Sub(phases0[k]); d != (wegeom.Snapshot{}) {
				w.phases[k] = d
			}
		}
		w.co = statsDelta(co1, co0)
		w.peak = co1.InFlightPeak
		if tr != nil {
			w.spans = tr.snapshot()[spans0:]
		}
		return w
	}

	plain := measure(nil)
	windows := []*window{plain}
	if err := httpE2E(m.e2e, plain); err != nil {
		return nil, fmt.Errorf("untraced window: %w", err)
	}
	var traced *window
	if tr != nil {
		rp := newReplayer(srv, tr, cfg)
		traced = measure(rp)
		rp.close()
		windows = append(windows, traced)
	}

	sizes1 := structureSizes(ctx, srv, data, m)
	for k, v := range sizes0 {
		if sizes1[k] != v {
			m.fail("structure size %s: %d at start, %d at end", k, v, sizes1[k])
		}
	}
	m.attempted += int64(2 * len(sizes0))
	checkMetrics(clients[0], srv, m)

	tri := srv.Checkpoint().Delaunay
	for _, w := range windows {
		m.attempted += int64(len(w.samples)) + 1
		if err := reconcile(w); err != nil {
			m.fail("%v", err)
		}
		for _, s := range w.samples {
			if s.err != nil {
				m.fail("%s: %v", endpointPath[s.ep], s.err)
			}
		}
		for _, k := range w.kept {
			if err := checkResponse(data, tri, k); err != nil {
				m.fail("%s wrong answer: %v", endpointPath[k.req.ep], err)
			}
		}
	}

	m.extra = append(m.extra, windowReport("untraced window", plain)...)
	if traced != nil {
		if unknown := httpLayers(m.layers, traced); len(unknown) > 0 {
			m.extra = append(m.extra, "phases charged but not in the per-layer catalogue: "+strings.Join(unknown, ", "))
		}
		m.extra = append(m.extra, "ledger phases charged in the traced window:")
		m.extra = append(m.extra, sortedPhaseList(traced.phases)...)
		e2eTraced := map[string]float64{}
		if err := httpE2E(e2eTraced, traced); err != nil {
			m.extra = append(m.extra, "traced window: "+err.Error())
		}
		m.extra = append(m.extra, windowReport("traced window", traced)...)
		m.extra = append(m.extra, overheadTable(m.e2e, e2eTraced)...)
		m.extra = append(m.extra, httpSelfTable(traced, wl)...)
	}
	return m, nil
}

// cutOnX returns the first seed of a splitmix chain from seed whose points
// and k-d items both spread wider in x than in y. The two-shard grid halves
// the wider side of the data's bounding box, and the range tree answers
// queries across an x cut at a different cost than across a y cut, so
// without this the counted costs would jump between two levels from seed to
// seed.
func cutOnX(n int, seed uint64) uint64 {
	widerInX := func(p []wegeom.KPoint) bool {
		lo, hi := [2]float64{p[0][0], p[0][1]}, [2]float64{p[0][0], p[0][1]}
		for _, q := range p {
			for a := 0; a < 2; a++ {
				lo[a], hi[a] = min(lo[a], q[a]), max(hi[a], q[a])
			}
		}
		return hi[0]-lo[0] > hi[1]-lo[1]
	}
	for {
		d := genDataset(n, seed)
		pts := make([]wegeom.KPoint, len(d.pts))
		for i, p := range d.pts {
			pts[i] = wegeom.KPoint{p.X, p.Y}
		}
		kd := make([]wegeom.KPoint, len(d.kd))
		for i, it := range d.kd {
			kd[i] = it.P
		}
		if widerInX(pts) && widerInX(kd) {
			return seed
		}
		seed = splitmix(seed, 1)
	}
}

// checkStraddle checks that the two-shard grid cut the range tree's and the
// k-d tree's data at x = 0.5 (see cutOnX): a thin box across that line must
// reach both shards, or the straddling queries would not scatter.
func checkStraddle(ctx context.Context, srv *serve.Server) error {
	sh := srv.Sharded()
	probe := wegeom.RTQuery{XL: 0.49, XR: 0.51, YB: 0.1, YT: 0.11}
	_, rr, err := sh.RangeQueryBatch(ctx, []wegeom.RTQuery{probe})
	if err != nil {
		return fmt.Errorf("probe shard cut: %w", err)
	}
	_, kr, err := sh.KDRangeCountBatch(ctx, []wegeom.KBox{rectBox(probe)})
	if err != nil {
		return fmt.Errorf("probe shard cut: %w", err)
	}
	if fanout(rr) != sh.Shards() || fanout(kr) != sh.Shards() {
		return fmt.Errorf("a box across x = 0.5 reached %d (range tree) and %d (k-d tree) of %d shards: the grid did not cut at x = 0.5", fanout(rr), fanout(kr), sh.Shards())
	}
	return nil
}

// fanout counts the shards that charged work in a sharded run's Report.
func fanout(rep *wegeom.Report) int {
	n := 0
	for _, c := range rep.PerShard {
		if c != (wegeom.Snapshot{}) {
			n++
		}
	}
	return n
}

// driveResult is what drive collected from every client.
type driveResult struct {
	samples []sample
	kept    []kept
}

// drive runs every client's closed loop concurrently while more(client,
// done) holds, and replays each request below HTTP when rp is non-nil.
func drive(clients []*client, ids *atomic.Int64, more func(c, done int) bool, rp *replayer, tr *tracer) driveResult {
	per := make([]driveResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for done := 0; more(i, done); done++ {
				r := c.next(c.s)
				id := ids.Add(1)
				s, body := c.do(r, id, tr)
				per[i].samples = append(per[i].samples, s)
				if s.err == nil && (r.ep == epBatch || c.s.seq%checkEvery == 0) {
					per[i].kept = append(per[i].kept, kept{req: r, body: body})
				}
				if rp != nil && s.err == nil {
					rp.replay(id, r)
				}
			}
		}(i, c)
	}
	wg.Wait()
	var out driveResult
	for _, p := range per {
		out.samples = append(out.samples, p.samples...)
		out.kept = append(out.kept, p.kept...)
	}
	return out
}

// do sends one request and reads the whole body; the latency runs from
// send until the body is read.
func (c *client) do(r request, id int64, tr *tracer) (sample, []byte) {
	var req *http.Request
	var err error
	if r.ep == epBatch {
		req, err = http.NewRequest(http.MethodPost, c.base+r.path(), bytes.NewReader(r.batch.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, c.base+r.path(), nil)
	}
	if err != nil {
		return sample{ep: r.ep, err: err}, nil
	}
	if tr != nil {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	var cs int64
	if tr != nil {
		cs = tr.now()
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return sample{ep: r.ep, start: start, dur: time.Since(start), err: err}, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{ep: r.ep, start: start, dur: time.Since(start), bytes: len(body), err: err}
	if r.batch != nil {
		s.structure = r.batch.structure
	}
	if tr != nil {
		tr.add(span{ID: id, Layer: "client", Op: endpointPath[r.ep], Start: cs, End: tr.now()})
	}
	if s.err == nil && resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return s, body
}

// serveSpans records a serve span around the daemon's handler for every
// request that carries an id.
func serveSpans(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw := r.Header.Get(reqHeader)
		if raw == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		end := tr.now()
		id, _ := strconv.ParseInt(raw, 10, 64) // the client wrote it with FormatInt
		tr.add(span{ID: id, Layer: "serve", Parent: "client", Op: r.URL.Path, Start: start, End: end})
	})
}

func statsDelta(a, b coalesce.Stats) coalesce.Stats {
	d := coalesce.Stats{
		Requests:       a.Requests - b.Requests,
		Batches:        a.Batches - b.Batches,
		SizeFlushes:    a.SizeFlushes - b.SizeFlushes,
		TimeoutFlushes: a.TimeoutFlushes - b.TimeoutFlushes,
		DrainFlushes:   a.DrainFlushes - b.DrainFlushes,
		Retries:        a.Retries - b.Retries,
	}
	for i := range d.SizeHist {
		d.SizeHist[i] = a.SizeHist[i] - b.SizeHist[i]
	}
	return d
}

// isMixedPhase reports whether a ledger phase belongs to the mixed (write)
// path; every other phase a window charges is on the read path, including
// the router's shard/route, which also routes mixed batches.
func isMixedPhase(name string) bool { return strings.Contains(name, "mbatch/") }

// httpE2E computes the end-to-end metrics of one window. Rates and latency
// percentiles are taken over the whole window; write latency averages the
// per-structure percentiles (see stratified).
func httpE2E(e map[string]float64, w *window) error {
	var done, gets, batches float64
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		done++
		if s.ep == epBatch {
			batches++
		} else {
			gets++
		}
	}
	e["throughput_rps"] = done / w.secs
	e["query_qps"] = gets / w.secs
	e["update_ops_per_s"] = batches * mixedOps / w.secs
	reads, writes := w.latencies()
	var err error
	if e["read_p50_ms"], e["read_p90_ms"], err = stratified(reads); err != nil {
		return fmt.Errorf("read latency: %w", err)
	}
	if e["write_p50_ms"], e["write_p90_ms"], err = stratified(writes); err != nil {
		return fmt.Errorf("write latency: %w", err)
	}
	e["model_reads_per_req"] = ratio(float64(w.totals.Reads), done)
	e["model_writes_per_req"] = ratio(float64(w.totals.Writes), done)
	var readPath, mixedPath wegeom.Snapshot
	for name, c := range w.phases {
		if isMixedPhase(name) {
			mixedPath = mixedPath.Add(c)
		} else {
			readPath = readPath.Add(c)
		}
	}
	e["model_reads_per_query"] = ratio(float64(readPath.Reads), gets)
	e["model_writes_per_query"] = ratio(float64(readPath.Writes), gets)
	e["model_writes_per_update"] = ratio(float64(mixedPath.Writes), batches*updateOps)
	return nil
}

// latencies groups the window's successful request latencies: GET
// latencies in one group, /batch latencies by structure.
func (w *window) latencies() (reads, writes map[string][]time.Duration) {
	reads, writes = map[string][]time.Duration{}, map[string][]time.Duration{}
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		if s.ep == epBatch {
			writes[s.structure] = append(writes[s.structure], s.dur)
		} else {
			reads["get"] = append(reads["get"], s.dur)
		}
	}
	return reads, writes
}

// reconcile checks that the ledger phases charged in the window sum to the
// window's model total.
func reconcile(w *window) error {
	var sum wegeom.Snapshot
	for _, c := range w.phases {
		sum = sum.Add(c)
	}
	if sum != w.totals {
		return fmt.Errorf("window model cost %v, but its ledger phases sum to %v", w.totals, sum)
	}
	return nil
}

// windowReport prints a window's sample counts, tails and rate trend.
func windowReport(title string, w *window) []string {
	per := map[endpoint]int{}
	var ends []time.Duration
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		per[s.ep]++
		ends = append(ends, s.start.Add(s.dur).Sub(w.start))
	}
	reads, writes := w.latencies()
	out := []string{
		fmt.Sprintf("%s: %.3f s, %d requests; requests/s in each fifth of the window %s", title, w.secs, len(w.samples), trend(ends, w.secs)),
		"  " + latencyLine("read", summarize(reads["get"])),
	}
	for _, st := range sortedKeys(writes) {
		out = append(out, "  "+latencyLine("write "+st, summarize(writes[st])))
	}
	var eps []string
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		eps = append(eps, fmt.Sprintf("%s=%d", endpointPath[ep], per[ep]))
	}
	out = append(out, "  requests per endpoint: "+strings.Join(eps, " "))
	out = append(out, fmt.Sprintf("  model cost in window: %v", w.totals))
	out = append(out, fmt.Sprintf("  coalescer: requests=%d flushes size=%d timeout=%d drain=%d retries=%d mean_batch=%.3f inflight_peak(since boot)=%d",
		w.co.Requests, w.co.SizeFlushes, w.co.TimeoutFlushes, w.co.DrainFlushes, w.co.Retries, w.co.MeanBatch(), w.peak))
	return out
}

// latencyLine prints p50, p90 and p99 with the sample count, marking any
// percentile the count does not support.
func latencyLine(name string, l latency) string {
	f := func(p, v float64) string {
		s := fmt.Sprintf("%.4f", v)
		if !supported(p, l.N) {
			s += " (unsupported)"
		}
		return s
	}
	return fmt.Sprintf("%s latency ms: p50 %s  p90 %s  p99 %s  (n=%d; p99 needs n ≥ 1000)",
		name, f(0.5, l.P50), f(0.9, l.P90), f(0.99, l.P99), l.N)
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// overheadTable prints traced minus untraced for every window metric.
func overheadTable(plain, traced map[string]float64) []string {
	out := []string{"tracing overhead (traced window minus untraced window):"}
	for _, d := range endToEnd {
		switch d.name {
		case "setup_s", "setup_writes_per_item", "heap_mb":
			out = append(out, fmt.Sprintf("  %-26s n/a (one set-up serves both windows)", d.name))
			continue
		}
		a, b := plain[d.name], traced[d.name]
		out = append(out, fmt.Sprintf("  %-26s %12.4f -> %12.4f %s (%+.1f%%)", d.name, a, b, d.unit, 100*ratio(b-a, a)))
	}
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
