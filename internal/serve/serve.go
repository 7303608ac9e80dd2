// Package serve is the long-lived batch-serving daemon behind cmd/wegeom-serve:
// it owns one Engine and one pre-built structure of each family, funnels every
// HTTP query through a per-kind coalescer (internal/coalesce) so concurrent
// single queries amortize one batched run's write pass, and exposes live
// Prometheus-text metrics reconciling exactly with the Engine's own Reports.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/coalesce"
	"repro/internal/gen"
	"repro/internal/shard"
)

// Config tunes one server.
type Config struct {
	// N is the number of intervals/points each structure is built over when
	// booting from generated data. Default 20000.
	N int
	// DelaunayN is the Delaunay point count (the triangulation build is the
	// most expensive; it gets its own knob). Default min(N, 2000).
	DelaunayN int
	// Seed drives the generators, so two replicas with the same Config hold
	// identical structures.
	Seed uint64
	// Parallelism sizes the per-run fork-join scope of the Engine's runs
	// (0 = runtime default).
	Parallelism int
	// Omega is the write/read cost ratio (0 = the module default).
	Omega int64
	// Alpha is the α-labeling parameter (0 = the module default).
	Alpha int
	// MaxBatch, MaxWait and MaxInFlight tune every coalescer (see
	// coalesce.Options). MaxInFlight bounds how many flushed read batches
	// pipeline into the Engine's shared mode concurrently.
	MaxBatch    int
	MaxWait     time.Duration
	MaxInFlight int
	// ExclusiveReads serializes read batches behind the Engine's write lock
	// (the pre-shared-mode behaviour) — for A/B benchmarking the concurrent
	// read path.
	ExclusiveReads bool
	// Clock overrides the coalescers' time source (tests).
	Clock coalesce.Clock
	// RestorePath boots the structures from a checkpoint file instead of
	// building them from generated data.
	RestorePath string
	// CheckpointPath, when set, enables POST /checkpoint: the daemon
	// re-saves its structures to this path on demand. The save runs under
	// the Engine's run lock, so it lands between batches (hence between
	// mixed-op epochs), never inside one.
	CheckpointPath string
	// KMax caps the k accepted by /knn (default 128); each distinct k gets
	// its own coalescer, so the cap bounds daemon memory.
	KMax int
	// Shards, when > 1, scales the four partitioned structures out across
	// that many independent engines behind internal/shard's scatter-gather
	// router (the Delaunay DAG stays on the daemon's own engine). When
	// restoring, the checkpoint's shard count wins.
	Shards int
	// ShardScheme picks the spatial partitioner: "grid" (default) or
	// "kdmedian".
	ShardScheme string
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 20000
	}
	if c.DelaunayN <= 0 {
		c.DelaunayN = c.N
		if c.DelaunayN > 2000 {
			c.DelaunayN = 2000
		}
	}
	if c.KMax <= 0 {
		c.KMax = 128
	}
	return c
}

// Server owns the Engine, the built structures, and the coalescers. Create
// with Boot, serve Handler(), stop with Close.
type Server struct {
	cfg   Config
	eng   *wegeom.Engine
	sh    *shard.Engine // non-nil iff serving sharded
	ck    *wegeom.Checkpoint
	start time.Time

	copts     coalesce.Options
	stab      *coalesce.Coalescer[float64, wegeom.Interval]
	stabCount *coalesce.Coalescer[float64, int64]
	q3        *coalesce.Coalescer[wegeom.PSTQuery, wegeom.PSTPoint]
	q3count   *coalesce.Coalescer[wegeom.PSTQuery, int64]
	rng       *coalesce.Coalescer[wegeom.RTQuery, wegeom.RTPoint]
	rngSum    *coalesce.Coalescer[wegeom.RTQuery, float64]
	kdr       *coalesce.Coalescer[wegeom.KBox, wegeom.KDItem]
	kdrCount  *coalesce.Coalescer[wegeom.KBox, int64]
	locate    *coalesce.Coalescer[wegeom.Point, int32]
	mixedIv   *coalesce.Coalescer[wegeom.IntervalOp, wegeom.Interval]
	mixedRT   *coalesce.Coalescer[wegeom.RTOp, wegeom.RTPoint]
	mixedKD   *coalesce.Coalescer[wegeom.KDOp, wegeom.KDItem]
	knnMu     sync.Mutex
	knn       map[int]*coalesce.Coalescer[wegeom.KPoint, wegeom.KDItem]

	mu           sync.Mutex
	phaseTotals  map[string]wegeom.Snapshot
	total        wegeom.Snapshot
	batches      map[string]int64 // batched Engine runs, per op
	batchQueries map[string]int64
	batchResults map[string]int64
	requests     map[string]int64 // HTTP requests, per endpoint
	requestErrs  map[string]int64
	closed       bool
}

// Boot builds (or restores) the structures and returns a ready server.
func Boot(ctx context.Context, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var opts []wegeom.Option
	if cfg.Omega > 0 {
		opts = append(opts, wegeom.WithOmega(cfg.Omega))
	}
	if cfg.Alpha > 0 {
		opts = append(opts, wegeom.WithAlpha(cfg.Alpha))
	}
	if cfg.Parallelism > 0 {
		opts = append(opts, wegeom.WithParallelism(cfg.Parallelism))
	}
	if cfg.Seed != 0 {
		opts = append(opts, wegeom.WithSeed(cfg.Seed))
	}
	if cfg.ExclusiveReads {
		opts = append(opts, wegeom.WithExclusiveReads(true))
	}
	s := &Server{
		cfg:          cfg,
		eng:          wegeom.NewEngine(opts...),
		start:        time.Now(),
		copts:        coalesce.Options{MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait, MaxInFlight: cfg.MaxInFlight, Clock: cfg.Clock},
		knn:          make(map[int]*coalesce.Coalescer[wegeom.KPoint, wegeom.KDItem]),
		phaseTotals:  make(map[string]wegeom.Snapshot),
		batches:      make(map[string]int64),
		batchQueries: make(map[string]int64),
		batchResults: make(map[string]int64),
		requests:     make(map[string]int64),
		requestErrs:  make(map[string]int64),
	}
	scheme, err := shard.ParseScheme(cfg.ShardScheme)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if cfg.RestorePath != "" {
		if err := s.restore(ctx, cfg.RestorePath); err != nil {
			return nil, err
		}
	} else if cfg.Shards > 1 {
		if err := s.buildSharded(ctx, scheme); err != nil {
			return nil, err
		}
	} else if err := s.build(ctx); err != nil {
		return nil, err
	}
	s.stab = coalesce.New(func(ctx context.Context, qs []float64) (coalesce.Demux[wegeom.Interval], error) {
		out, rep, err := s.stabBatch(ctx, qs)
		s.observe(rep)
		if err != nil {
			return nil, err
		}
		return out, nil
	}, s.copts)
	s.stabCount = coalesce.New(func(ctx context.Context, qs []float64) (coalesce.Demux[int64], error) {
		out, rep, err := s.stabCountBatch(ctx, qs)
		s.observe(rep)
		if err != nil {
			return nil, err
		}
		return coalesce.Slice[int64](out), nil
	}, s.copts)
	s.q3 = coalesce.New(func(ctx context.Context, qs []wegeom.PSTQuery) (coalesce.Demux[wegeom.PSTPoint], error) {
		out, rep, err := s.query3SidedBatch(ctx, qs)
		s.observe(rep)
		if err != nil {
			return nil, err
		}
		return out, nil
	}, s.copts)
	s.rng = coalesce.New(func(ctx context.Context, qs []wegeom.RTQuery) (coalesce.Demux[wegeom.RTPoint], error) {
		out, rep, err := s.rangeQueryBatch(ctx, qs)
		s.observe(rep)
		if err != nil {
			return nil, err
		}
		return out, nil
	}, s.copts)
	s.kdr = coalesce.New(func(ctx context.Context, boxes []wegeom.KBox) (coalesce.Demux[wegeom.KDItem], error) {
		out, rep, err := s.kdRangeBatch(ctx, boxes)
		s.observe(rep)
		if err != nil {
			return nil, err
		}
		return out, nil
	}, s.copts)
	s.locate = coalesce.New(func(ctx context.Context, qs []wegeom.Point) (coalesce.Demux[int32], error) {
		out, rep, err := s.eng.LocateBatch(ctx, s.ck.Delaunay, qs)
		s.observe(rep)
		if err != nil {
			return nil, err
		}
		return out, nil
	}, s.copts)
	s.initExtra()
	return s, nil
}

// build constructs all five structures from generated data.
func (s *Server) build(ctx context.Context) error {
	cfg := s.cfg
	givs := gen.UniformIntervals(cfg.N, 10.0/float64(cfg.N), cfg.Seed+1)
	ivs := make([]wegeom.Interval, len(givs))
	for i, iv := range givs {
		ivs[i] = wegeom.Interval{Left: iv.Left, Right: iv.Right, ID: iv.ID}
	}
	itree, rep, err := s.eng.NewIntervalTree(ctx, ivs)
	s.observe(rep)
	if err != nil {
		return fmt.Errorf("serve: build interval tree: %w", err)
	}
	xs := gen.UniformFloats(cfg.N, cfg.Seed+2)
	ys := gen.UniformFloats(cfg.N, cfg.Seed+3)
	ppts := make([]wegeom.PSTPoint, cfg.N)
	rpts := make([]wegeom.RTPoint, cfg.N)
	for i := 0; i < cfg.N; i++ {
		ppts[i] = wegeom.PSTPoint{X: xs[i], Y: ys[i], ID: int32(i)}
		rpts[i] = wegeom.RTPoint{X: xs[i], Y: ys[i], ID: int32(i)}
	}
	ptree, rep, err := s.eng.NewPriorityTree(ctx, ppts)
	s.observe(rep)
	if err != nil {
		return fmt.Errorf("serve: build priority tree: %w", err)
	}
	rtree, rep, err := s.eng.NewRangeTree(ctx, rpts)
	s.observe(rep)
	if err != nil {
		return fmt.Errorf("serve: build range tree: %w", err)
	}
	kpts := gen.UniformKPoints(cfg.N, 2, cfg.Seed+4)
	kitems := make([]wegeom.KDItem, cfg.N)
	for i, p := range kpts {
		kitems[i] = wegeom.KDItem{P: p, ID: int32(i)}
	}
	kdt, rep, err := s.eng.BuildKDTree(ctx, 2, kitems)
	s.observe(rep)
	if err != nil {
		return fmt.Errorf("serve: build k-d tree: %w", err)
	}
	dpts := s.eng.ShufflePoints(gen.UniformPoints(cfg.DelaunayN, cfg.Seed+5))
	tri, rep, err := s.eng.Triangulate(ctx, dpts)
	s.observe(rep)
	if err != nil {
		return fmt.Errorf("serve: triangulate: %w", err)
	}
	s.ck = &wegeom.Checkpoint{Interval: itree, Priority: ptree, Range: rtree, KD: kdt, Delaunay: tri}
	return nil
}

// restore boots the structures from a checkpoint file, sniffing whether
// the container is a sharded or single-engine snapshot so a daemon can
// restore either regardless of its own -shards flag.
func (s *Server) restore(ctx context.Context, path string) error {
	data, err := readCheckpointFile(path)
	if err != nil {
		return err
	}
	if shard.IsSharded(data) {
		return s.restoreSharded(ctx, path, data)
	}
	ck, rep, err := s.eng.LoadCheckpoint(ctx, bytes.NewReader(data))
	s.observe(rep)
	if err != nil {
		return fmt.Errorf("serve: restore %s: %w", path, err)
	}
	if ck.Interval == nil || ck.Priority == nil || ck.Range == nil || ck.KD == nil || ck.Delaunay == nil {
		return fmt.Errorf("serve: restore %s: checkpoint is missing structures", path)
	}
	s.ck = ck
	return nil
}

// SaveCheckpoint writes the server's structures to path (atomically: a temp
// file renamed into place).
func (s *Server) SaveCheckpoint(ctx context.Context, path string) error {
	tmp, err := os.CreateTemp(filepathDir(path), ".wegeom-ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	var rep *wegeom.Report
	if s.sh != nil {
		rep, err = s.sh.SaveCheckpoint(ctx, tmp, s.ck)
	} else {
		rep, err = s.eng.SaveCheckpoint(ctx, tmp, s.ck)
	}
	s.observe(rep)
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func filepathDir(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "."
}

// Checkpoint exposes the served structures (tests; the bench harness).
func (s *Server) Checkpoint() *wegeom.Checkpoint { return s.ck }

// Engine exposes the underlying engine.
func (s *Server) Engine() *wegeom.Engine { return s.eng }

// observe folds one Engine Report into the cumulative serving totals every
// scrape of /metrics reports. Reports from failed runs still carry whatever
// was charged before the abort, so they are folded too — the meter and the
// metrics never drift apart.
func (s *Server) observe(rep *wegeom.Report) {
	if rep == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = s.total.Add(rep.Total)
	for name, cost := range rep.PhaseTotals() {
		s.phaseTotals[name] = s.phaseTotals[name].Add(cost)
	}
	s.batches[rep.Op]++
	s.batchQueries[rep.Op] += int64(rep.Queries)
	s.batchResults[rep.Op] += rep.Results
}

// Totals returns the cumulative per-phase model costs and the grand total —
// the ground truth /metrics must reconcile with.
func (s *Server) Totals() (map[string]wegeom.Snapshot, wegeom.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	phases := make(map[string]wegeom.Snapshot, len(s.phaseTotals))
	for k, v := range s.phaseTotals {
		phases[k] = v
	}
	return phases, s.total
}

// CoalesceStats merges every coalescer's counters into one Stats.
func (s *Server) CoalesceStats() coalesce.Stats {
	cs := []interface{ Stats() coalesce.Stats }{
		s.stab, s.stabCount, s.q3, s.q3count, s.rng, s.rngSum,
		s.kdr, s.kdrCount, s.locate, s.mixedIv, s.mixedRT, s.mixedKD,
	}
	s.knnMu.Lock()
	for _, c := range s.knn {
		cs = append(cs, c)
	}
	s.knnMu.Unlock()
	var out coalesce.Stats
	for _, c := range cs {
		st := c.Stats()
		out.Requests += st.Requests
		out.Batches += st.Batches
		out.IdleFlushes += st.IdleFlushes
		out.SizeFlushes += st.SizeFlushes
		out.TimeoutFlushes += st.TimeoutFlushes
		out.DrainFlushes += st.DrainFlushes
		out.Retries += st.Retries
		// InFlight sums the instantaneous gauges; InFlightPeak takes the
		// max of the per-coalescer peaks, so a value > 1 proves batches of
		// one kind actually overlapped (peaks at different times are never
		// summed into a phantom overlap).
		out.InFlight += st.InFlight
		if st.InFlightPeak > out.InFlightPeak {
			out.InFlightPeak = st.InFlightPeak
		}
		for i := range st.SizeHist {
			out.SizeHist[i] += st.SizeHist[i]
		}
	}
	return out
}

// knnFor returns (lazily creating) the coalescer for one k. Each distinct k
// is its own batch population because Engine.KNNBatch takes one shared k.
func (s *Server) knnFor(k int) *coalesce.Coalescer[wegeom.KPoint, wegeom.KDItem] {
	s.knnMu.Lock()
	defer s.knnMu.Unlock()
	if s.knn == nil {
		return nil
	}
	c, ok := s.knn[k]
	if !ok {
		c = coalesce.New(func(ctx context.Context, qs []wegeom.KPoint) (coalesce.Demux[wegeom.KDItem], error) {
			out, rep, err := s.knnBatch(ctx, qs, k)
			s.observe(rep)
			if err != nil {
				return nil, err
			}
			return out, nil
		}, s.copts)
		s.knn[k] = c
	}
	return c
}

// Close drains every coalescer (follower windows flush, in-flight batches
// finish) and rejects further submissions. Safe to call once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.stab.Close()
	s.stabCount.Close()
	s.q3.Close()
	s.q3count.Close()
	s.rng.Close()
	s.rngSum.Close()
	s.kdr.Close()
	s.kdrCount.Close()
	s.locate.Close()
	s.mixedIv.Close()
	s.mixedRT.Close()
	s.mixedKD.Close()
	s.knnMu.Lock()
	knns := s.knn
	s.knn = nil
	s.knnMu.Unlock()
	for _, c := range knns {
		c.Close()
	}
}

// ---- HTTP surface ----

// Handler returns the daemon's HTTP mux: the six query endpoints (each
// funneled through its coalescer, request context wired through to the
// Engine's interrupt hook), /healthz, and /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/stab", s.handleStab)
	mux.HandleFunc("/stab/count", s.handleStabCount)
	mux.HandleFunc("/query3sided", s.handleQuery3Sided)
	mux.HandleFunc("/query3sided/count", s.handleQuery3SidedCount)
	mux.HandleFunc("/range", s.handleRange)
	mux.HandleFunc("/range/sum", s.handleRangeSum)
	mux.HandleFunc("/knn", s.handleKNN)
	mux.HandleFunc("/kdrange", s.handleKDRange)
	mux.HandleFunc("/kdrange/count", s.handleKDRangeCount)
	mux.HandleFunc("/locate", s.handleLocate)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// countReq records one request against endpoint and returns a func recording
// whether it errored.
func (s *Server) countReq(endpoint string) func(err bool) {
	s.mu.Lock()
	s.requests[endpoint]++
	s.mu.Unlock()
	return func(failed bool) {
		if failed {
			s.mu.Lock()
			s.requestErrs[endpoint]++
			s.mu.Unlock()
		}
	}
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case err == context.Canceled || err == context.DeadlineExceeded:
		code = http.StatusRequestTimeout
	case err == coalesce.ErrClosed:
		code = http.StatusServiceUnavailable
	}
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func parseFloat(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

func parseKPoint(r *http.Request, name string, dims int) (wegeom.KPoint, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return nil, fmt.Errorf("missing parameter %q", name)
	}
	parts := strings.Split(raw, ",")
	if len(parts) != dims {
		return nil, fmt.Errorf("parameter %q: want %d comma-separated coordinates, got %d", name, dims, len(parts))
	}
	p := make(wegeom.KPoint, dims)
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("parameter %q: %v", name, err)
		}
		p[i] = v
	}
	return p, nil
}

func (s *Server) handleStab(w http.ResponseWriter, r *http.Request) {
	done := s.countReq("/stab")
	q, err := parseFloat(r, "q")
	if err != nil {
		done(true)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.stab.Submit(r.Context(), q)
	if err != nil {
		done(true)
		httpError(w, err)
		return
	}
	done(false)
	writeJSON(w, map[string]any{"q": q, "count": len(res), "intervals": res})
}

func (s *Server) handleStabCount(w http.ResponseWriter, r *http.Request) {
	done := s.countReq("/stab/count")
	q, err := parseFloat(r, "q")
	if err != nil {
		done(true)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := s.stabCount.Submit(r.Context(), q)
	if err != nil {
		done(true)
		httpError(w, err)
		return
	}
	done(false)
	writeJSON(w, map[string]any{"q": q, "count": res[0]})
}

func (s *Server) handleQuery3Sided(w http.ResponseWriter, r *http.Request) {
	done := s.countReq("/query3sided")
	xl, err1 := parseFloat(r, "xl")
	xr, err2 := parseFloat(r, "xr")
	yb, err3 := parseFloat(r, "yb")
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			done(true)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	res, err := s.q3.Submit(r.Context(), wegeom.PSTQuery{XL: xl, XR: xr, YB: yb})
	if err != nil {
		done(true)
		httpError(w, err)
		return
	}
	done(false)
	writeJSON(w, map[string]any{"count": len(res), "points": res})
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	done := s.countReq("/range")
	xl, err1 := parseFloat(r, "xl")
	xr, err2 := parseFloat(r, "xr")
	yb, err3 := parseFloat(r, "yb")
	yt, err4 := parseFloat(r, "yt")
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			done(true)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	res, err := s.rng.Submit(r.Context(), wegeom.RTQuery{XL: xl, XR: xr, YB: yb, YT: yt})
	if err != nil {
		done(true)
		httpError(w, err)
		return
	}
	done(false)
	writeJSON(w, map[string]any{"count": len(res), "points": res})
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	done := s.countReq("/knn")
	x, err1 := parseFloat(r, "x")
	y, err2 := parseFloat(r, "y")
	for _, err := range []error{err1, err2} {
		if err != nil {
			done(true)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	k := 1
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			done(true)
			http.Error(w, "parameter \"k\": must be a positive integer", http.StatusBadRequest)
			return
		}
		k = v
	}
	if k > s.cfg.KMax {
		done(true)
		http.Error(w, fmt.Sprintf("parameter \"k\": exceeds cap %d", s.cfg.KMax), http.StatusBadRequest)
		return
	}
	c := s.knnFor(k)
	if c == nil {
		done(true)
		httpError(w, coalesce.ErrClosed)
		return
	}
	res, err := c.Submit(r.Context(), wegeom.KPoint{x, y})
	if err != nil {
		done(true)
		httpError(w, err)
		return
	}
	done(false)
	writeJSON(w, map[string]any{"k": k, "neighbors": res})
}

func (s *Server) handleKDRange(w http.ResponseWriter, r *http.Request) {
	done := s.countReq("/kdrange")
	min, err1 := parseKPoint(r, "min", 2)
	max, err2 := parseKPoint(r, "max", 2)
	for _, err := range []error{err1, err2} {
		if err != nil {
			done(true)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	res, err := s.kdr.Submit(r.Context(), wegeom.KBox{Min: min, Max: max})
	if err != nil {
		done(true)
		httpError(w, err)
		return
	}
	done(false)
	writeJSON(w, map[string]any{"count": len(res), "items": res})
}

func (s *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	done := s.countReq("/locate")
	x, err1 := parseFloat(r, "x")
	y, err2 := parseFloat(r, "y")
	for _, err := range []error{err1, err2} {
		if err != nil {
			done(true)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	res, err := s.locate.Submit(r.Context(), wegeom.Point{X: x, Y: y})
	if err != nil {
		done(true)
		httpError(w, err)
		return
	}
	done(false)
	writeJSON(w, map[string]any{"count": len(res), "triangles": res})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}
