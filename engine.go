package wegeom

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/asymmem"
	"repro/internal/config"
	"repro/internal/delaunay"
	"repro/internal/hull"
	"repro/internal/interval"
	"repro/internal/kdtree"
	"repro/internal/parallel"
	"repro/internal/prims"
	"repro/internal/pst"
	"repro/internal/rangetree"
	"repro/internal/tournament"
	"repro/internal/wesort"
)

// Engine is the configurable entry point to every algorithm and data
// structure in this reproduction. One Engine holds one Config — meter,
// ledger, ω, α, parallelism, seed, k-d knobs — assembled from functional
// options, and every method runs under that Config, accepts a
// context.Context for cancellation, and returns a uniform *Report
// alongside its result:
//
//	eng := wegeom.NewEngine(wegeom.WithOmega(10), wegeom.WithAlpha(8))
//	tri, rep, err := eng.Triangulate(ctx, pts)
//	fmt.Println(rep) // per-phase reads/writes, work at ω, wall time
//
// Cancellation is polled at round boundaries inside the builders, so a
// cancelled context aborts a large run within one round's work and the
// method returns ctx.Err().
//
// An Engine is safe for concurrent use. Runs execute in one of two modes:
// read-only batch queries (the *Batch, *CountBatch, SumYBatch and Locate
// methods) run *shared* — any number execute concurrently, each charging a
// private per-run meter that folds into the Engine's meter on completion —
// while everything that mutates or replaces structures (constructions,
// sorts, MixedBatch, checkpoint restore) runs *exclusive* behind the write
// side of an RWMutex. Counted costs are a pure function of each run's batch
// either way, bit-identical to serial execution at any parallelism and any
// interleaving. WithExclusiveReads restores the old serialize-everything
// behaviour. Engines are cheap — construct one per experimental variant
// rather than reconfiguring a shared one.
type Engine struct {
	mu  sync.RWMutex
	cfg config.Config
	// ledger is the caller's WithLedger ledger, which every run appends its
	// phase records to; nil (the default) keeps no history. Each run
	// records into a ledger of its own either way, unless noPhases
	// (WithLedger(nil)) turns phase recording off.
	ledger         *Ledger
	noPhases       bool
	meterSet       bool
	exclusiveReads bool
}

// NewEngine returns an Engine with the given options applied over the
// defaults: a fresh private meter, no phase history, ω = DefaultOmega,
// α = DefaultAlpha, the Theorem 4.1 sort round cap enabled, runtime-default
// parallelism, seed 0, and the paper's k-d parameters (p = log³n, leaf
// size 8, exact-median splitters).
func NewEngine(opts ...Option) *Engine {
	e := &Engine{cfg: config.Config{
		Omega:     DefaultOmega,
		Alpha:     DefaultAlpha,
		CapRounds: true,
	}}
	for _, opt := range opts {
		opt(e)
	}
	if !e.meterSet {
		// One shard per worker of the pool this Engine will run: the
		// runtime default, or the pinned WithParallelism size if that is
		// wider (e.g. an oversubscribed pool on a small machine).
		shards := 0
		if e.cfg.Parallelism > runtime.GOMAXPROCS(0) {
			shards = e.cfg.Parallelism
		}
		e.cfg.Meter = asymmem.NewMeterShards(shards)
	}
	return e
}

// Meter returns the meter this Engine charges (nil when constructed with
// WithMeter(nil)). Snapshot it around direct structure updates — inserts,
// deletes, queries on returned trees — to extend the Engine's accounting
// past construction.
func (e *Engine) Meter() *Meter { return e.cfg.Meter }

// Omega returns the configured write/read cost ratio.
func (e *Engine) Omega() int64 { return e.cfg.Omega }

// Alpha returns the configured α-labeling parameter.
func (e *Engine) Alpha() int { return e.cfg.Alpha }

// run executes f exclusively (write lock — no other run overlaps) under
// the Engine's Config with ctx wired to the builders' interrupt hook, and
// assembles the uniform Report from engine-meter snapshot deltas. A nil ctx
// is normalized to context.Background() so every Engine method — and every
// deprecated facade wrapper that forwards a nil context — gets the same
// cancellation/interrupt semantics: cfg.Interrupt is always wired, and the
// builders poll it at phase and fork boundaries.
//
// Each run executes in its own immutable fork-join scope (parallel.Enter,
// sized by WithParallelism), whose root is threaded through cfg.Root; there
// is no process-global pool state, so runs from engines with different
// parallelism never interfere.
func (e *Engine) run(ctx context.Context, op string, f func(cfg config.Config) error) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	root, release := parallel.Enter(e.cfg.Parallelism)
	defer release()
	cfg := e.cfg
	cfg.Root = root
	if !e.noPhases {
		cfg.Ledger = asymmem.NewLedger(cfg.Meter)
	}
	cfg.Interrupt = ctx.Err
	beforeShards := cfg.Meter.PerWorker()
	before := sumSnapshots(beforeShards)
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	err := f(cfg)
	wall := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	afterShards := cfg.Meter.PerWorker()
	rep := &Report{
		Op:        op,
		Total:     sumSnapshots(afterShards).Sub(before),
		PerWorker: subSnapshots(afterShards, beforeShards),
		Wall:      wall,
		Omega:     cfg.Omega,
		Workers:   parallel.ScopeWorkers(root),
		Allocs:    msAfter.Mallocs - msBefore.Mallocs,
		HeapDelta: int64(msAfter.HeapAlloc) - int64(msBefore.HeapAlloc),
	}
	if phases := cfg.Ledger.Phases(); len(phases) > 0 {
		rep.Phases = phases
		e.ledger.Append(phases)
	}
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// runShared executes f in shared (read) mode: any number of shared runs
// overlap on one Engine (read lock), while exclusive runs — anything that
// mutates a structure — still fence them out. Only read-only query batches
// go through here.
//
// Attribution under overlap works by charging a private per-run meter and
// ledger: cfg.Meter is a fresh meter sized to the run's scope, so
// Report.Total and PerWorker are a pure function of this run's batch —
// bit-identical to serial execution at any P and any interleaving — and the
// run's counts fold into the Engine's meter when it completes, keeping
// engine-lifetime totals exact (its phases go to the WithLedger ledger, if
// any). Allocs/HeapDelta are reported as zero: runtime.ReadMemStats deltas
// are process-global and would double-count overlapping runs (see Report).
func (e *Engine) runShared(ctx context.Context, op string, f func(cfg config.Config) error) (*Report, error) {
	if e.exclusiveReads {
		return e.run(ctx, op, f)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	root, release := parallel.Enter(e.cfg.Parallelism)
	defer release()
	workers := parallel.ScopeWorkers(root)
	cfg := e.cfg
	cfg.Root = root
	cfg.Interrupt = ctx.Err
	if e.cfg.Meter != nil {
		cfg.Meter = asymmem.NewMeterShards(workers)
	}
	var runLedger *asymmem.Ledger
	if !e.noPhases {
		runLedger = asymmem.NewRunLedger(cfg.Meter)
	}
	cfg.Ledger = runLedger
	start := time.Now()
	err := f(cfg)
	wall := time.Since(start)
	per := cfg.Meter.PerWorker()
	for w, s := range per {
		e.cfg.Meter.AddAt(w, s)
	}
	phases := runLedger.Phases()
	e.ledger.Append(phases)
	rep := &Report{
		Op:        op,
		Phases:    phases,
		Total:     sumSnapshots(per),
		PerWorker: per,
		Wall:      wall,
		Omega:     cfg.Omega,
		Workers:   workers,
		Shared:    true,
	}
	return rep, err
}

// ---- §4: write-efficient comparison sort ----

// Sort returns keys in non-decreasing order using the write-efficient
// incremental sort (Theorem 4.1): expected O(n log n + ωn) work, i.e.
// O(n) writes. The input order is the (random) insertion priority.
func (e *Engine) Sort(ctx context.Context, keys []float64) ([]float64, *Report, error) {
	out, _, rep, err := e.SortWithStats(ctx, keys)
	return out, rep, err
}

// SortWithStats is Sort returning the detailed cost profile alongside the
// uniform Report.
func (e *Engine) SortWithStats(ctx context.Context, keys []float64) ([]float64, SortStats, *Report, error) {
	var out []float64
	var st SortStats
	rep, err := e.run(ctx, "sort", func(cfg config.Config) error {
		tr, s, err := wesort.BuildConfig(keys, cfg)
		if err != nil {
			return err
		}
		st = s
		out = tr.Sorted()
		return nil
	})
	if err != nil {
		return nil, st, rep, err
	}
	return out, st, rep, nil
}

// SortBaseline sorts with the plain round-synchronous parallel insertion
// (Θ(n log n) writes whp) — the baseline Theorem 4.1 improves on.
func (e *Engine) SortBaseline(ctx context.Context, keys []float64) ([]float64, *Report, error) {
	out, _, rep, err := e.SortBaselineWithStats(ctx, keys)
	return out, rep, err
}

// SortBaselineWithStats is SortBaseline returning the detailed profile.
func (e *Engine) SortBaselineWithStats(ctx context.Context, keys []float64) ([]float64, SortStats, *Report, error) {
	var out []float64
	var st SortStats
	rep, err := e.run(ctx, "sort-baseline", func(cfg config.Config) error {
		if err := cfg.Check(); err != nil {
			return err
		}
		cfg.Phase("sort/plain", func() {
			tr, s := wesort.ParallelPlain(keys, cfg.Meter)
			st = s
			out = tr.Sorted()
		})
		return nil
	})
	if err != nil {
		return nil, st, rep, err
	}
	return out, st, rep, nil
}

// ---- §5: planar Delaunay triangulation ----

// Triangulate computes the Delaunay triangulation with the write-efficient
// algorithm of Theorem 5.1: expected O(n log n + ωn) work. The input order
// is the insertion priority; shuffle for the expectation bounds (see
// ShufflePoints). Cancellation is polled every synchronous round.
func (e *Engine) Triangulate(ctx context.Context, pts []Point) (*Triangulation, *Report, error) {
	var tri *Triangulation
	rep, err := e.run(ctx, "triangulate", func(cfg config.Config) error {
		var err error
		tri, err = delaunay.TriangulateConfig(pts, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return tri, rep, nil
}

// TriangulateClassic runs the plain BGSS incremental algorithm
// (Θ(n log n) writes) — the baseline Theorem 5.1 improves on.
func (e *Engine) TriangulateClassic(ctx context.Context, pts []Point) (*Triangulation, *Report, error) {
	var tri *Triangulation
	rep, err := e.run(ctx, "triangulate-classic", func(cfg config.Config) error {
		var err error
		tri, err = delaunay.TriangulateClassicConfig(pts, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return tri, rep, nil
}

// ---- §6: k-d trees ----

// BuildKDTree constructs a k-d tree with the p-batched incremental
// algorithm of Theorem 6.1 (O(n) writes; height log₂n+O(1) whp with the
// default p = log³n). WithPBatch, WithLeafSize and WithSAH select the
// §6.1/§6.3 variants.
func (e *Engine) BuildKDTree(ctx context.Context, dims int, items []KDItem) (*KDTree, *Report, error) {
	var t *KDTree
	rep, err := e.run(ctx, "kdtree", func(cfg config.Config) error {
		var err error
		t, err = kdtree.BuildConfig(dims, items, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// BuildKDTreeClassic constructs a k-d tree with exact median splits —
// Θ(n log n) writes.
func (e *Engine) BuildKDTreeClassic(ctx context.Context, dims int, items []KDItem) (*KDTree, *Report, error) {
	var t *KDTree
	rep, err := e.run(ctx, "kdtree-classic", func(cfg config.Config) error {
		var err error
		t, err = kdtree.BuildClassicConfig(dims, items, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// NewKDForest returns an empty §6.2 logarithmic-reconstruction dynamic
// forest whose rebuilds use the Engine's k-d settings and charge its
// meter.
func (e *Engine) NewKDForest(dims int) *KDForest {
	return kdtree.NewForestConfig(dims, e.cfg)
}

// NewKDSingleTree wraps a built tree for single-tree dynamic updates with
// the range-query balance budget (§6.2).
func (e *Engine) NewKDSingleTree(t *KDTree) *KDSingleTree {
	return kdtree.NewSingleTree(t, kdtree.BalanceForRange)
}

// ---- §7: augmented trees ----

// NewIntervalTree builds an interval tree with the post-sorted
// linear-write construction (Theorem 7.1) at the Engine's α.
func (e *Engine) NewIntervalTree(ctx context.Context, ivs []Interval) (*IntervalTree, *Report, error) {
	var t *IntervalTree
	rep, err := e.run(ctx, "interval", func(cfg config.Config) error {
		var err error
		t, err = interval.BuildConfig(ivs, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// NewIntervalTreeClassic builds an interval tree with the level-by-level
// copying construction — the Θ(ωn log n) baseline of Table 1.
func (e *Engine) NewIntervalTreeClassic(ctx context.Context, ivs []Interval) (*IntervalTree, *Report, error) {
	var t *IntervalTree
	rep, err := e.run(ctx, "interval-classic", func(cfg config.Config) error {
		var err error
		t, err = interval.BuildClassicConfig(ivs, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// NewPriorityTree builds a priority search tree with the tournament-tree
// construction of Appendix A (Theorem 7.1) at the Engine's α.
func (e *Engine) NewPriorityTree(ctx context.Context, pts []PSTPoint) (*PriorityTree, *Report, error) {
	var t *PriorityTree
	rep, err := e.run(ctx, "pst", func(cfg config.Config) error {
		var err error
		t, err = pst.BuildConfig(pts, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// NewPriorityTreeClassic builds a priority search tree with the classic
// partition-and-copy construction — the Θ(ωn log n) baseline.
func (e *Engine) NewPriorityTreeClassic(ctx context.Context, pts []PSTPoint) (*PriorityTree, *Report, error) {
	var t *PriorityTree
	rep, err := e.run(ctx, "pst-classic", func(cfg config.Config) error {
		var err error
		t, err = pst.BuildClassicConfig(pts, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// NewRangeTree builds a 2D range tree at the Engine's α (α ≥ 2 keeps
// inner trees only at critical nodes — Theorem 7.4's trade-off).
func (e *Engine) NewRangeTree(ctx context.Context, pts []RTPoint) (*RangeTree, *Report, error) {
	var t *RangeTree
	rep, err := e.run(ctx, "rangetree", func(cfg config.Config) error {
		var err error
		t, err = rangetree.BuildConfig(pts, cfg)
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// ---- parallel primitives (internal/prims) ----

// RadixSort returns a stably Key-sorted copy of items using the
// worker-pool-parallel LSD radix sort every builder in this module shares
// (internal/prims): blocked counting passes over 16-bit digits, charged at
// one read and one write per record per pass. The phase is recorded as
// "prims/radixsort"; the counted costs are independent of WithParallelism.
func (e *Engine) RadixSort(ctx context.Context, items []RadixItem) ([]RadixItem, *Report, error) {
	out := append([]RadixItem{}, items...)
	rep, err := e.run(ctx, "radixsort", func(cfg config.Config) error {
		if err := cfg.Check(); err != nil {
			return err
		}
		cfg.Phase("prims/radixsort", func() {
			prims.RadixSort(out, 0, cfg.WorkerMeter(0))
		})
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// Semisort groups the pairs by key with the expected-linear-work parallel
// semisort ([34]; internal/prims): hash into 2n buckets, blocked
// count/scan/scatter, per-bucket collision resolution. Group order and
// costs are deterministic and independent of WithParallelism; the phase is
// recorded as "prims/semisort".
func (e *Engine) Semisort(ctx context.Context, pairs []SemiPair) ([]SemiGroup, *Report, error) {
	var out []SemiGroup
	rep, err := e.run(ctx, "semisort", func(cfg config.Config) error {
		if err := cfg.Check(); err != nil {
			return err
		}
		cfg.Phase("prims/semisort", func() {
			out = prims.Semisort(pairs, cfg.WorkerMeter(0))
		})
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// BuildTournament builds the Appendix-A tournament tree over the given
// slot priorities — the primitive under the priority-search-tree
// construction — with the bottom-up parallel level sweep (O(n) work and
// writes). The phase is recorded as "tournament/build".
func (e *Engine) BuildTournament(ctx context.Context, prios []float64) (*Tournament, *Report, error) {
	var t *Tournament
	rep, err := e.run(ctx, "tournament", func(cfg config.Config) error {
		if err := cfg.Check(); err != nil {
			return err
		}
		cfg.Phase("tournament/build", func() {
			t = tournament.NewW(prios, cfg.WorkerMeter(0))
		})
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return t, rep, nil
}

// ---- §2.2: convex hull ----

// ConvexHull returns the indices of the hull vertices in CCW order.
func (e *Engine) ConvexHull(ctx context.Context, pts []Point) ([]int32, *Report, error) {
	var out []int32
	rep, err := e.run(ctx, "hull", func(cfg config.Config) error {
		if err := cfg.Check(); err != nil {
			return err
		}
		cfg.Phase("hull", func() { out = hull.ConvexHull(pts, cfg.Meter) })
		return nil
	})
	if err != nil {
		return nil, rep, err
	}
	return out, rep, nil
}

// ---- randomness ----

// ShufflePoints returns a uniform random permutation of pts, deterministic
// in the Engine's seed (Fisher–Yates over SplitMix64). Shuffling the input
// is what the paper's expected-cost bounds for the randomized incremental
// algorithms assume.
func (e *Engine) ShufflePoints(pts []Point) []Point {
	return shufflePoints(pts, e.cfg.Seed)
}

func shufflePoints(pts []Point, seed uint64) []Point {
	out := append([]Point{}, pts...)
	r := parallel.NewRNG(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
