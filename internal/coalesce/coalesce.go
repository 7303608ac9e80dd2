// Package coalesce is the serving layer's admission queue: it groups
// concurrently-arriving single queries of the same kind into one batched run
// and demultiplexes the packed results back to per-request futures.
//
// The point is economic. The batched query layer (internal/qbatch) amortizes
// its write pass — one scan, one offset array, contiguous packed output —
// across the whole batch, so under the asymmetric read/write model a batch of
// b queries is strictly cheaper than b one-shot runs. But a daemon receives
// queries one at a time, and holding a request back to wait for company
// only pays when there is something to wait behind. The coalescer is
// therefore self-clocking, like a database's group commit:
//
//   - A request that arrives while no flushed batch of its kind is
//     outstanding runs at once, alone, on the caller's goroutine — no timer,
//     no handoff.
//   - Requests that arrive while a batch is outstanding accumulate in a
//     follower window, which flushes as one batch the moment the last
//     outstanding batch completes, or as soon as it holds MaxBatch
//     requests.
//   - MaxWait only caps how long a follower window waits behind a long
//     batch: after it the window flushes into another of the MaxInFlight
//     slots.
//
// Batch size thus tracks load without tuning: one when requests arrive
// alone, and as many as arrived during the previous run when they do not.
//
// Flush rules are deterministic and unit-testable: the Clock is injected, so
// tests drive the timeout path with a fake clock, and a runner gated on a
// channel holds a batch outstanding while a test stages followers behind it.
package coalesce

import (
	"context"
	"errors"
	"math/bits"
	"sync"
	"time"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("coalesce: closed")

// Clock abstracts time for tests. After is the only operation the coalescer
// needs: a channel that fires once d has elapsed.
type Clock interface {
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Options tunes one coalescer.
type Options struct {
	// MaxBatch flushes a follower window as soon as this many requests are
	// pending in it. Default 64.
	MaxBatch int
	// MaxWait caps how long a follower window waits behind an outstanding
	// batch before it flushes into another in-flight slot. A request that
	// finds no batch outstanding never waits. Default 2ms.
	MaxWait time.Duration
	// MaxInFlight bounds how many flushed batches may execute concurrently.
	// Size and timeout flushes run beside the outstanding batch, so read
	// batches pipeline into the engine's shared execution mode instead of
	// queueing behind a single run; a flush past the bound blocks
	// (backpressure) rather than queueing unboundedly. Default 8.
	MaxInFlight int
	// Clock is the time source; nil means real time.
	Clock Clock
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 8
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// Demux is the result shape a batch runner returns: query i's results.
// *qbatch.Packed[R] satisfies it; count-style runners wrap a flat slice.
type Demux[R any] interface {
	Results(i int) []R
}

// Slice adapts a flat one-result-per-query slice (e.g. the interval tree's
// count batch) to the Demux interface.
type Slice[R any] []R

// Results returns the single result of query i.
func (s Slice[R]) Results(i int) []R { return s[i : i+1] }

// Runner executes one coalesced batch. ctx is canceled when every remaining
// member's request context is canceled (or when the daemon shuts down), so
// runners should thread it through to the Engine's batch methods.
type Runner[Q, R any] func(ctx context.Context, qs []Q) (Demux[R], error)

// Stats is a snapshot of one coalescer's counters.
type Stats struct {
	Requests int64 // requests admitted into a batch
	Batches  int64 // batches run (including retries)
	// IdleFlushes counts flushes made because no batch of the kind was
	// outstanding: a request that arrived to an idle coalescer, or a
	// follower window flushed when the last outstanding batch completed.
	IdleFlushes    int64
	SizeFlushes    int64 // follower windows flushed at MaxBatch
	TimeoutFlushes int64 // follower windows flushed at MaxWait behind a long batch
	DrainFlushes   int64 // flushes triggered by Close
	Retries        int64 // batch re-runs after a member's cancellation aborted a run
	InFlight       int64 // batches executing at snapshot time (gauge)
	InFlightPeak   int64 // maximum concurrently-executing batches observed
	// SizeHist[i] counts flushed batches with size in [2^i, 2^(i+1));
	// bucket 16 collects everything ≥ 65536.
	SizeHist [17]int64
}

// Flushes returns the number of flushed batches, whatever their trigger
// (the sum of SizeHist).
func (s Stats) Flushes() int64 {
	var n int64
	for _, c := range s.SizeHist {
		n += c
	}
	return n
}

// MeanBatch returns the mean achieved batch size (requests per flush), or 0
// before the first flush.
func (s Stats) MeanBatch() float64 {
	flushes := s.Flushes()
	if flushes == 0 {
		return 0
	}
	return float64(s.Requests) / float64(flushes)
}

func histBucket(size int) int {
	if size < 1 {
		return 0
	}
	b := bits.Len(uint(size)) - 1
	if b > 16 {
		b = 16
	}
	return b
}

type reply[R any] struct {
	res [][]R // per submitted op, in the request's own order
	err error
}

// request is one admitted Submit or SubmitAll call. Its ops stay a
// contiguous run, in order, inside the flushed batch — mixed-op callers
// (internal/mbatch semantics) depend on their intra-request order
// surviving coalescing.
type request[Q, R any] struct {
	ctx  context.Context
	qs   []Q
	done chan reply[R]
}

// Coalescer groups single queries of one kind into batched runs.
type Coalescer[Q, R any] struct {
	run  Runner[Q, R]
	opts Options
	sem  chan struct{} // in-flight batch slots (cap MaxInFlight)

	mu sync.Mutex
	// outstanding counts flushed batches that have not completed, including
	// any still waiting for a slot. The follower window is non-empty only
	// while outstanding > 0: whatever drives it to 0 flushes the window.
	outstanding int
	pending     []*request[Q, R]
	// gen numbers the current follower window; the timer goroutine
	// re-checks it so a timer from an already-flushed window does nothing.
	gen    uint64
	quit   chan struct{} // closed when the current window flushes early
	closed bool
	stats  Stats

	wg sync.WaitGroup // outstanding batches + live timers; Close waits on it
}

// New builds a coalescer that executes batches with run.
func New[Q, R any](run Runner[Q, R], opts Options) *Coalescer[Q, R] {
	o := opts.withDefaults()
	return &Coalescer[Q, R]{run: run, opts: o, sem: make(chan struct{}, o.MaxInFlight)}
}

// Stats returns a snapshot of the counters.
func (c *Coalescer[Q, R]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Pending returns the number of requests parked in the follower window — for
// tests and drain diagnostics; the value is stale the moment it returns.
func (c *Coalescer[Q, R]) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

const (
	flushIdle = iota
	flushSize
	flushTimeout
	flushDrain
)

// flushLocked records members as one flushed batch. The caller holds c.mu
// and must then run the batch: runBatch releases the outstanding count and
// the wg obligation taken here.
func (c *Coalescer[Q, R]) flushLocked(members []*request[Q, R], reason int) {
	switch reason {
	case flushIdle:
		c.stats.IdleFlushes++
	case flushSize:
		c.stats.SizeFlushes++
	case flushTimeout:
		c.stats.TimeoutFlushes++
	case flushDrain:
		c.stats.DrainFlushes++
	}
	c.stats.Requests += int64(len(members))
	c.stats.SizeHist[histBucket(len(members))]++
	c.outstanding++
	c.wg.Add(1)
}

// takeLocked steals the follower window for a flush, advances the generation
// so its timer stands down, and records the flush. It returns nil, and
// records nothing, when the window is empty. Callers hold c.mu.
func (c *Coalescer[Q, R]) takeLocked(reason int) []*request[Q, R] {
	members := c.pending
	c.pending = nil
	c.gen++
	if c.quit != nil {
		close(c.quit)
		c.quit = nil
	}
	if len(members) == 0 {
		return nil
	}
	c.flushLocked(members, reason)
	return members
}

// Submit admits one query, waits for its batch to run, and returns this
// query's demultiplexed results. If ctx is canceled while waiting, Submit
// returns ctx.Err() immediately; the batch itself aborts only once every
// remaining member is canceled, so one caller's cancellation never fails
// another's request.
func (c *Coalescer[Q, R]) Submit(ctx context.Context, q Q) ([]R, error) {
	res, err := c.SubmitAll(ctx, []Q{q})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SubmitAll admits one ordered run of queries as a single request: the run
// stays contiguous and in order inside whatever batch it lands in (so a
// mixed-op caller's serialization semantics survive coalescing), and the
// per-op results come back in the same order. Cancellation behaves as in
// Submit. An empty run returns immediately.
func (c *Coalescer[Q, R]) SubmitAll(ctx context.Context, qs []Q) ([][]R, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(qs) == 0 {
		return nil, nil
	}
	r := &request[Q, R]{ctx: ctx, qs: qs, done: make(chan reply[R], 1)}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	switch {
	case c.outstanding == 0:
		// Idle: there is nothing to batch behind, so the request runs alone
		// at once on the caller's goroutine.
		members := []*request[Q, R]{r}
		c.flushLocked(members, flushIdle)
		c.mu.Unlock()
		c.runBatch(members)
	case len(c.pending)+1 >= c.opts.MaxBatch:
		// Size flush: the filling request's goroutine runs the window
		// itself, beside the outstanding batch.
		c.pending = append(c.pending, r)
		members := c.takeLocked(flushSize)
		c.mu.Unlock()
		c.runBatch(members)
	default:
		c.pending = append(c.pending, r)
		if len(c.pending) == 1 {
			// First follower of a new window: arm the MaxWait cap.
			quit := make(chan struct{})
			c.quit = quit
			gen := c.gen
			c.wg.Add(1)
			go c.timer(gen, quit)
		}
		c.mu.Unlock()
	}

	select {
	case rep := <-r.done:
		return rep.res, rep.err
	case <-ctx.Done():
		// The batch may still run this query; the buffered done channel
		// absorbs the late reply.
		return nil, ctx.Err()
	}
}

// timer flushes the follower window opened at generation gen into another
// slot once MaxWait elapses, unless the window already flushed (gen moved on
// or quit closed).
func (c *Coalescer[Q, R]) timer(gen uint64, quit chan struct{}) {
	defer c.wg.Done()
	select {
	case <-c.opts.Clock.After(c.opts.MaxWait):
	case <-quit:
		return
	}
	c.mu.Lock()
	if c.gen != gen {
		c.mu.Unlock()
		return
	}
	members := c.takeLocked(flushTimeout)
	c.mu.Unlock()
	c.runBatch(members)
}

// runBatch executes one flushed batch, then retires it: if that leaves no
// batch of the kind outstanding, the follower window that accumulated
// meanwhile flushes at once, on a goroutine of its own so this caller
// returns with its own results.
func (c *Coalescer[Q, R]) runBatch(members []*request[Q, R]) {
	defer c.wg.Done()
	c.execute(members)
	c.mu.Lock()
	c.outstanding--
	var next []*request[Q, R]
	if c.outstanding == 0 {
		next = c.takeLocked(flushIdle)
	}
	c.mu.Unlock()
	if next != nil {
		go c.runBatch(next)
	}
}

// execute runs one batch in an in-flight slot, retrying with the surviving
// members when a member's cancellation aborts the shared run. Each retry
// removes at least one (canceled) member, so the loop terminates.
//
// Batches pipeline: up to MaxInFlight flushed batches execute concurrently
// (the engine's shared mode lets read batches overlap), and a batch that
// would exceed the bound blocks here until a slot frees.
func (c *Coalescer[Q, R]) execute(members []*request[Q, R]) {
	c.sem <- struct{}{}
	c.mu.Lock()
	c.stats.InFlight++
	if c.stats.InFlight > c.stats.InFlightPeak {
		c.stats.InFlightPeak = c.stats.InFlight
	}
	c.mu.Unlock()
	defer func() {
		// The gauge drops before the slot frees, so a batch that takes the
		// slot next can never push InFlight past MaxInFlight.
		c.mu.Lock()
		c.stats.InFlight--
		c.mu.Unlock()
		<-c.sem
	}()
	for len(members) > 0 {
		// Drop members already canceled; they get their own ctx.Err(), and
		// the batch is built from the live ones only.
		live := members[:0]
		for _, m := range members {
			if err := m.ctx.Err(); err != nil {
				m.done <- reply[R]{err: err}
				continue
			}
			live = append(live, m)
		}
		members = live
		if len(members) == 0 {
			return
		}
		c.mu.Lock()
		c.stats.Batches++
		c.mu.Unlock()

		// The batch context cancels only when every member has canceled:
		// each member's AfterFunc decrements the count of still-waiting
		// members and the last one out cancels the run.
		bctx, cancel := context.WithCancel(context.Background())
		remaining := int64(len(members))
		var remainingMu sync.Mutex
		stops := make([]func() bool, len(members))
		for i, m := range members {
			stops[i] = context.AfterFunc(m.ctx, func() {
				remainingMu.Lock()
				remaining--
				last := remaining == 0
				remainingMu.Unlock()
				if last {
					cancel()
				}
			})
		}

		// Flatten the members' runs, each kept contiguous and in order; off
		// remembers where each member's run starts for the demux below.
		total := 0
		for _, m := range members {
			total += len(m.qs)
		}
		qs := make([]Q, 0, total)
		off := make([]int, len(members))
		for i, m := range members {
			off[i] = len(qs)
			qs = append(qs, m.qs...)
		}
		res, err := c.run(bctx, qs)
		for _, stop := range stops {
			stop()
		}
		cancel()

		if err == nil {
			for i, m := range members {
				out := make([][]R, len(m.qs))
				for j := range m.qs {
					out[j] = res.Results(off[i] + j)
				}
				m.done <- reply[R]{res: out}
			}
			return
		}
		// A context error with at least one canceled member means a
		// member's cancellation aborted the shared run: retry with the
		// survivors so one caller's cancellation doesn't fail the rest.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			anyCanceled := false
			for _, m := range members {
				if m.ctx.Err() != nil {
					anyCanceled = true
					break
				}
			}
			if anyCanceled {
				c.mu.Lock()
				c.stats.Retries++
				c.mu.Unlock()
				continue
			}
		}
		for _, m := range members {
			m.done <- reply[R]{err: err}
		}
		return
	}
}

// Close flushes the follower window at once, waits for every outstanding
// batch and timer to finish, and makes further Submits fail with ErrClosed.
func (c *Coalescer[Q, R]) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	members := c.takeLocked(flushDrain)
	c.mu.Unlock()
	if members != nil {
		c.runBatch(members)
	}
	c.wg.Wait()
}
