package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock hands out controllable timer channels: each After call registers
// a channel the test fires explicitly with Advance.
type fakeClock struct {
	mu     sync.Mutex
	timers []chan time.Time
}

func (f *fakeClock) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	ch := make(chan time.Time, 1)
	f.timers = append(f.timers, ch)
	return ch
}

// Advance fires every registered timer once.
func (f *fakeClock) Advance() {
	f.mu.Lock()
	timers := f.timers
	f.timers = nil
	f.mu.Unlock()
	for _, ch := range timers {
		ch <- time.Time{}
	}
}

func (f *fakeClock) armed() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.timers)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// echoRunner returns each query as its own single result and records the
// batch sizes it saw.
func echoRunner(sizes *[]int, mu *sync.Mutex) Runner[int, int] {
	return func(ctx context.Context, qs []int) (Demux[int], error) {
		mu.Lock()
		*sizes = append(*sizes, len(qs))
		mu.Unlock()
		out := make(Slice[int], len(qs))
		copy(out, qs)
		return out, nil
	}
}

// held is the query of the batch heldCoalescer keeps outstanding.
const held = -1

// heldCoalescer builds a coalescer over run and keeps one batch of its kind
// outstanding: a lone held query that parks in the runner until release is
// called, so the test's own requests queue behind it in a follower window.
// Test cleanup releases the held batch, then closes the coalescer; release
// may also be called earlier, and more than once.
func heldCoalescer(t *testing.T, run Runner[int, int], opts Options) (c *Coalescer[int, int], release func()) {
	t.Helper()
	gate := make(chan struct{})
	c = New(func(ctx context.Context, qs []int) (Demux[int], error) {
		if len(qs) == 1 && qs[0] == held {
			<-gate
			return Slice[int]{held}, nil
		}
		return run(ctx, qs)
	}, opts)
	t.Cleanup(c.Close)
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), held)
		done <- err
	}()
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			if err := <-done; err != nil {
				t.Errorf("held submit: %v", err)
			}
		})
	}
	t.Cleanup(release)
	waitFor(t, "held batch in flight", func() bool { return c.Stats().InFlight == 1 })
	return c, release
}

func TestFlushBySize(t *testing.T) {
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c, _ := heldCoalescer(t, echoRunner(&sizes, &mu), Options{MaxBatch: 4, MaxWait: time.Hour, Clock: clk})

	// Stage 3 submitters behind the held batch; none should complete (size
	// 3 < 4, the held batch stays outstanding, timer never fires).
	var wg sync.WaitGroup
	results := make([]int, 4)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Submit(context.Background(), i)
			if err != nil || len(res) != 1 {
				t.Errorf("submit %d: res=%v err=%v", i, res, err)
				return
			}
			results[i] = res[0]
		}(i)
	}
	waitFor(t, "3 pending", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == 3
	})
	mu.Lock()
	if len(sizes) != 0 {
		mu.Unlock()
		t.Fatal("batch ran before MaxBatch was reached")
	}
	mu.Unlock()

	// The 4th submit fills the window and flushes it synchronously, while
	// the held batch is still outstanding.
	res, err := c.Submit(context.Background(), 3)
	if err != nil || len(res) != 1 || res[0] != 3 {
		t.Fatalf("filling submit: res=%v err=%v", res, err)
	}
	wg.Wait()
	for i := 0; i < 3; i++ {
		if results[i] != i {
			t.Errorf("submitter %d got %d", i, results[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 4 {
		t.Fatalf("batch sizes = %v, want [4]", sizes)
	}
	st := c.Stats()
	// Requests counts the held request too.
	if st.SizeFlushes != 1 || st.TimeoutFlushes != 0 || st.IdleFlushes != 1 || st.Requests != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.SizeHist[2] != 1 { // 4 lands in bucket [4, 8)
		t.Errorf("size histogram = %v, want one batch in bucket 2", st.SizeHist)
	}
}

func TestFlushByTimeout(t *testing.T) {
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c, _ := heldCoalescer(t, echoRunner(&sizes, &mu), Options{MaxBatch: 100, MaxWait: time.Hour, Clock: clk})

	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := c.Submit(context.Background(), 42)
		if err != nil || len(res) != 1 || res[0] != 42 {
			t.Errorf("submit: res=%v err=%v", res, err)
		}
	}()
	waitFor(t, "timer armed", func() bool { return clk.armed() == 1 })
	select {
	case <-done:
		t.Fatal("submit returned before the window timed out")
	case <-time.After(10 * time.Millisecond):
	}
	clk.Advance()
	<-done

	st := c.Stats()
	// Requests counts the held request too.
	if st.TimeoutFlushes != 1 || st.SizeFlushes != 0 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStaleTimerIsIgnored(t *testing.T) {
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c, _ := heldCoalescer(t, echoRunner(&sizes, &mu), Options{MaxBatch: 2, MaxWait: time.Hour, Clock: clk})

	// Behind the held batch, fill a window by size (arming, then
	// early-quitting, its timer), then fire the stale timer and check it
	// does not flush the next window.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Submit(context.Background(), 0)
	}()
	waitFor(t, "first timer armed", func() bool { return clk.armed() == 1 })
	if _, err := c.Submit(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Open a fresh window with one pending request.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Submit(context.Background(), 2)
	}()
	waitFor(t, "second timer armed", func() bool { return clk.armed() == 2 })
	clk.Advance() // fires both the stale (quit) and the live timer
	wg.Wait()

	st := c.Stats()
	if st.SizeFlushes != 1 || st.TimeoutFlushes != 1 {
		t.Errorf("stats = %+v, want exactly one size flush and one timeout flush", st)
	}
}

// TestDemuxMixedSizes checks demultiplexing when queries produce wildly
// different result counts: query q returns q results, each 100*q+j.
func TestDemuxMixedSizes(t *testing.T) {
	run := func(ctx context.Context, qs []int) (Demux[int], error) {
		items := []int{}
		off := []int{0}
		for _, q := range qs {
			for j := 0; j < q; j++ {
				items = append(items, 100*q+j)
			}
			off = append(off, len(items))
		}
		return packed[int]{items: items, off: off}, nil
	}
	c, _ := heldCoalescer(t, run, Options{MaxBatch: 8, MaxWait: time.Hour, Clock: &fakeClock{}})

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, q := range []int{3, 0, 5, 1, 0, 7, 2, 4} { // 8 = MaxBatch, size flush
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			res, err := c.Submit(context.Background(), q)
			if err != nil {
				errs <- err
				return
			}
			if len(res) != q {
				errs <- fmt.Errorf("query %d got %d results", q, len(res))
				return
			}
			for j, v := range res {
				if v != 100*q+j {
					errs <- fmt.Errorf("query %d result %d = %d", q, j, v)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// packed is a minimal qbatch.Packed stand-in with explicit offsets.
type packed[R any] struct {
	items []R
	off   []int
}

func (p packed[R]) Results(i int) []R { return p.items[p.off[i]:p.off[i+1]] }

// TestCancelAffectsOnlyCaller: a member whose context is canceled while the
// batch is pending gets its own error; the other members still get results.
func TestCancelAffectsOnlyCaller(t *testing.T) {
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c, _ := heldCoalescer(t, echoRunner(&sizes, &mu), Options{MaxBatch: 3, MaxWait: time.Hour, Clock: clk})

	ctx, cancel := context.WithCancel(context.Background())
	canceledDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, 0)
		canceledDone <- err
	}()
	waitFor(t, "1 pending", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == 1
	})
	cancel()
	if err := <-canceledDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit returned %v", err)
	}

	// Fill the window; the flush must drop the canceled member and serve
	// the two live ones.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := c.Submit(context.Background(), 1)
		if err != nil || len(res) != 1 || res[0] != 1 {
			t.Errorf("live submit: res=%v err=%v", res, err)
		}
	}()
	res, err := c.Submit(context.Background(), 2)
	if err != nil || len(res) != 1 || res[0] != 2 {
		t.Fatalf("filling submit: res=%v err=%v", res, err)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("batch sizes = %v, want [2] (canceled member dropped)", sizes)
	}
}

// TestCancelRetriesSurvivors: a runner aborted by one member's cancellation
// is re-run with the survivors, who still get their results.
func TestCancelRetriesSurvivors(t *testing.T) {
	ctxVictim, cancelVictim := context.WithCancel(context.Background())
	var calls atomic.Int64
	run := func(ctx context.Context, qs []int) (Demux[int], error) {
		if calls.Add(1) == 1 {
			// First run: simulate the victim's cancellation aborting the
			// shared batch run mid-flight.
			cancelVictim()
			return nil, context.Canceled
		}
		out := make(Slice[int], len(qs))
		copy(out, qs)
		return out, nil
	}
	c, _ := heldCoalescer(t, run, Options{MaxBatch: 2, MaxWait: time.Hour, Clock: &fakeClock{}})

	victimDone := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctxVictim, 7)
		victimDone <- err
	}()
	waitFor(t, "victim pending", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == 1
	})
	// Survivor fills the window behind the held batch and must get its
	// result from the retry.
	res, err := c.Submit(context.Background(), 9)
	if err != nil || len(res) != 1 || res[0] != 9 {
		t.Fatalf("survivor: res=%v err=%v", res, err)
	}
	if err := <-victimDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("victim returned %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("runner ran %d times, want 2 (abort + retry)", got)
	}
	if st := c.Stats(); st.Retries != 1 {
		t.Errorf("stats = %+v, want 1 retry", st)
	}
}

// TestRunnerErrorFansOut: a non-cancellation runner error reaches every member.
func TestRunnerErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	run := func(ctx context.Context, qs []int) (Demux[int], error) { return nil, boom }
	c := New(run, Options{MaxBatch: 3, MaxWait: time.Hour, Clock: &fakeClock{}})
	defer c.Close()

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			_, err := c.Submit(context.Background(), i)
			errs <- err
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("got %v, want boom", err)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	c := New(func(ctx context.Context, qs []int) (Demux[int], error) {
		return make(Slice[int], len(qs)), nil
	}, Options{})
	c.Close()
	if _, err := c.Submit(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestCloseDrainsPending(t *testing.T) {
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c, release := heldCoalescer(t, echoRunner(&sizes, &mu), Options{MaxBatch: 100, MaxWait: time.Hour, Clock: clk})

	done := make(chan error, 1)
	go func() {
		res, err := c.Submit(context.Background(), 5)
		if err == nil && (len(res) != 1 || res[0] != 5) {
			err = fmt.Errorf("bad result %v", res)
		}
		done <- err
	}()
	waitFor(t, "1 pending", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.pending) == 1
	})
	// Close flushes the window at once, without waiting for the held
	// batch, then waits for the held batch to finish.
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	if err := <-done; err != nil {
		t.Fatalf("drained submit: %v", err)
	}
	release()
	<-closed
	if st := c.Stats(); st.DrainFlushes != 1 {
		t.Errorf("stats = %+v, want 1 drain flush", st)
	}
}

// TestStress hammers one coalescer from many goroutines under real time,
// with a sprinkling of cancellations — run with -race.
func TestStress(t *testing.T) {
	var batches, reqsSeen atomic.Int64
	run := func(ctx context.Context, qs []int) (Demux[int], error) {
		batches.Add(1)
		reqsSeen.Add(int64(len(qs)))
		out := make(Slice[int], len(qs))
		for i, q := range qs {
			out[i] = q * 2
		}
		return out, nil
	}
	c := New(run, Options{MaxBatch: 16, MaxWait: 200 * time.Microsecond})

	const G = 32
	const per = 50
	var wg sync.WaitGroup
	var okCount, cancelCount atomic.Int64
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := g*per + i
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if q%17 == 0 {
					ctx, cancel = context.WithCancel(ctx)
					if q%34 == 0 {
						cancel() // pre-canceled
					} else {
						go func() { cancel() }() // racing cancel
					}
				}
				res, err := c.Submit(ctx, q)
				cancel()
				switch {
				case err == nil:
					if len(res) != 1 || res[0] != q*2 {
						t.Errorf("query %d: bad result %v", q, res)
					}
					okCount.Add(1)
				case errors.Is(err, context.Canceled):
					cancelCount.Add(1)
				default:
					t.Errorf("query %d: %v", q, err)
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()

	total := okCount.Load() + cancelCount.Load()
	if total != G*per {
		t.Fatalf("accounted %d of %d requests", total, G*per)
	}
	if okCount.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	st := c.Stats()
	if st.Requests != reqsSeen.Load() {
		// Requests counts admissions; runner sees only non-canceled members,
		// so runner-seen can be lower but never higher.
		if reqsSeen.Load() > st.Requests {
			t.Errorf("runner saw %d requests, stats admitted %d", reqsSeen.Load(), st.Requests)
		}
	}
	t.Logf("stress: %d ok, %d canceled, %d batches, mean batch %.2f",
		okCount.Load(), cancelCount.Load(), batches.Load(), st.MeanBatch())
}
