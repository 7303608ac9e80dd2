package wegeom

import "repro/internal/config"

// DefaultOmega is the write/read cost ratio an Engine assumes unless
// WithOmega overrides it (the paper evaluates ω between 5 and 40).
const DefaultOmega = config.DefaultOmega

// DefaultAlpha is the α-labeling parameter an Engine assumes unless
// WithAlpha overrides it.
const DefaultAlpha = config.DefaultAlpha

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithMeter makes the Engine charge m instead of a freshly allocated
// meter. Pass nil to disable instrumentation entirely (all charges no-op
// and reports count zero accesses). Use a shared meter to accumulate costs
// across engines or to interleave Engine calls with direct structure
// updates under one count.
func WithMeter(m *Meter) Option {
	return func(e *Engine) {
		e.cfg.Meter = m
		e.meterSet = true
	}
}

// WithLedger makes the Engine append every run's phase records to l once
// the run completes, in run order, accumulating them across calls (and
// engines, if shared). They are the records the run's Report.Phases
// carries, measured on the Engine's meter. Without this option an Engine
// keeps no phase history: each run records into a ledger of its own and
// returns the records in its Report only. WithLedger(nil) turns phase
// recording off, and Reports then carry no Phases.
func WithLedger(l *Ledger) Option {
	return func(e *Engine) {
		e.ledger = l
		e.noPhases = l == nil
	}
}

// WithOmega sets the write/read cost ratio ω used when reporting work.
// It never changes an algorithm's behaviour — only the Report aggregation.
func WithOmega(omega int64) Option {
	return func(e *Engine) { e.cfg.Omega = omega }
}

// WithParallelism sizes the private fork-join scope each of this Engine's
// runs executes in: 0 keeps the runtime default (GOMAXPROCS workers), 1
// forces the run's rooted parallel regions sequential, p > 1 opens a scope
// of p workers per run. Scopes are immutable and per-run — there is no
// process-global pool state — so engines with different parallelism run
// concurrently without interfering, and counted costs are identical at
// every setting.
func WithParallelism(p int) Option {
	return func(e *Engine) { e.cfg.Parallelism = p }
}

// WithExclusiveReads disables the shared (concurrent) execution mode for
// read-only query batches, serializing every run behind the Engine's write
// lock as pre-shared-mode versions did. Reports then regain their
// Allocs/HeapDelta deltas for read batches. Intended for A/B benchmarking
// and for callers that want strict one-at-a-time execution; results and
// counted costs are identical either way.
func WithExclusiveReads(enabled bool) Option {
	return func(e *Engine) { e.exclusiveReads = enabled }
}

// WithSeed seeds the Engine's deterministic RNG (ShufflePoints and any
// future randomized choice). Engines with equal seeds make identical
// random choices.
func WithSeed(seed uint64) Option {
	return func(e *Engine) { e.cfg.Seed = seed }
}

// WithAlpha selects the α-labeling trade-off of Theorem 7.4 for the
// augmented trees (interval, priority-search, range): α ≥ 2 maintains
// balance metadata only at critical nodes (fewer update writes, more query
// reads); 0 or 1 selects the classic behaviour.
func WithAlpha(alpha int) Option {
	return func(e *Engine) { e.cfg.Alpha = alpha }
}

// WithSAH makes BuildKDTree choose splitters by the surface-area heuristic
// over the buffered sample (the §6.3 extension) instead of cycling-axis
// exact medians. Same O(n) write bound, often cheaper queries on clustered
// data.
func WithSAH(enabled bool) Option {
	return func(e *Engine) { e.cfg.SAH = enabled }
}

// WithPBatch sets the k-d leaf buffer capacity p of §6.1: 0 selects the
// paper's range-query setting p = log³n, 1 the pure incremental
// construction, n the classic behaviour.
func WithPBatch(p int) Option {
	return func(e *Engine) { e.cfg.PBatch = p }
}

// WithLeafSize sets the maximum k-d leaf occupancy after construction
// (default 8).
func WithLeafSize(n int) Option {
	return func(e *Engine) { e.cfg.LeafSize = n }
}

// WithSortRoundCap toggles the Theorem 4.1 round cap in the incremental
// sort (on by default): each insertion bucket is abandoned after
// c·log log n rounds and retried in one final round, improving the depth
// bound to O(log² n) without changing the resulting tree. c ≤ 0 keeps the
// paper's constant (4).
func WithSortRoundCap(enabled bool, c int) Option {
	return func(e *Engine) {
		e.cfg.CapRounds = enabled
		e.cfg.RoundCapC = c
	}
}
