package coalesce

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestIdleRequestRunsAtOnce: a request that finds no batch outstanding runs
// alone immediately — no MaxWait timer is ever armed — and is counted as an
// idle flush.
func TestIdleRequestRunsAtOnce(t *testing.T) {
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c := New(echoRunner(&sizes, &mu), Options{MaxBatch: 64, MaxWait: time.Hour, Clock: clk})
	defer c.Close()

	res, err := c.Submit(context.Background(), 7)
	if err != nil || len(res) != 1 || res[0] != 7 {
		t.Fatalf("submit: res=%v err=%v", res, err)
	}
	if got := clk.armed(); got != 0 {
		t.Errorf("%d timers armed for a lone request, want 0", got)
	}
	st := c.Stats()
	if st.IdleFlushes != 1 || st.SizeFlushes != 0 || st.TimeoutFlushes != 0 || st.Requests != 1 || st.SizeHist[0] != 1 {
		t.Errorf("stats = %+v, want one idle flush of one request", st)
	}
	if st.MeanBatch() != 1 {
		t.Errorf("MeanBatch = %v, want 1", st.MeanBatch())
	}
}

// TestFollowersFlushWhenBatchCompletes: k requests that arrive behind an
// outstanding batch wait for it, then flush together as one batch of k the
// moment it completes.
func TestFollowersFlushWhenBatchCompletes(t *testing.T) {
	const k = 5
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c, release := heldCoalescer(t, echoRunner(&sizes, &mu), Options{MaxBatch: 64, MaxWait: time.Hour, Clock: clk})

	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			res, err := c.Submit(context.Background(), q)
			if err != nil || len(res) != 1 || res[0] != q {
				t.Errorf("follower %d: res=%v err=%v", q, res, err)
			}
		}(i)
	}
	waitFor(t, "k followers pending", func() bool { return c.Pending() == k })
	mu.Lock()
	ran := len(sizes)
	mu.Unlock()
	if ran != 0 {
		t.Fatalf("%d batches ran while the held batch was outstanding, want 0", ran)
	}

	release()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 1 || sizes[0] != k {
		t.Fatalf("batch sizes = %v, want [%d]", sizes, k)
	}
	st := c.Stats()
	if st.IdleFlushes != 2 || st.SizeFlushes != 0 || st.TimeoutFlushes != 0 || st.Requests != k+1 {
		t.Errorf("stats = %+v, want the held batch and the followers as two idle flushes", st)
	}
	if want := float64(k+1) / 2; st.MeanBatch() != want {
		t.Errorf("MeanBatch = %v, want %v", st.MeanBatch(), want)
	}
}

// TestTimeoutFlushTakesSecondSlot: a follower window behind a batch that
// outlives MaxWait flushes by timeout into a second in-flight slot while the
// long batch still runs; the next follower opens a fresh window that flushes
// when the long batch completes.
func TestTimeoutFlushTakesSecondSlot(t *testing.T) {
	clk := &fakeClock{}
	var sizes []int
	var mu sync.Mutex
	c, release := heldCoalescer(t, echoRunner(&sizes, &mu), Options{MaxBatch: 64, MaxWait: time.Hour, MaxInFlight: 2, Clock: clk})

	submit := func(q int) chan error {
		done := make(chan error, 1)
		go func() {
			res, err := c.Submit(context.Background(), q)
			if err == nil && (len(res) != 1 || res[0] != q) {
				t.Errorf("submit %d: res=%v", q, res)
			}
			done <- err
		}()
		return done
	}

	first := submit(1)
	waitFor(t, "window timer armed", func() bool { return clk.armed() == 1 })
	clk.Advance()
	if err := <-first; err != nil {
		t.Fatalf("timed-out follower: %v", err)
	}
	// The follower's reply is delivered just before its batch leaves the
	// slot, so wait for the gauge to settle on the held batch alone.
	waitFor(t, "timeout batch to leave its slot", func() bool { return c.Stats().InFlight == 1 })
	st := c.Stats()
	if st.TimeoutFlushes != 1 || st.InFlightPeak != 2 {
		t.Fatalf("stats = %+v, want one timeout flush run in a second slot beside the held batch", st)
	}

	second := submit(2)
	waitFor(t, "second window timer armed", func() bool { return clk.armed() == 1 })
	if c.Pending() != 1 {
		t.Fatalf("pending = %d, want the second follower parked", c.Pending())
	}
	release()
	if err := <-second; err != nil {
		t.Fatalf("second follower: %v", err)
	}
	st = c.Stats()
	if st.IdleFlushes != 2 || st.TimeoutFlushes != 1 || st.Requests != 3 {
		t.Errorf("stats = %+v, want the second follower flushed when the held batch completed", st)
	}
}
