package coalesce

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingEcho is an echo runner that parks inside the run until gate is
// closed, counting entries — so tests can observe how many batches execute
// concurrently.
func blockingEcho(started *atomic.Int64, gate chan struct{}) Runner[int, int] {
	return func(ctx context.Context, qs []int) (Demux[int], error) {
		started.Add(1)
		<-gate
		out := make(Slice[int], len(qs))
		copy(out, qs)
		return out, nil
	}
}

// TestBatchesPipelineUpToMaxInFlight asserts flushed batches overlap — up to
// MaxInFlight execute concurrently, and the next one blocks until a slot
// frees (backpressure, not unbounded queueing). The InFlight gauge and
// InFlightPeak high-water mark must track the overlap exactly.
func TestBatchesPipelineUpToMaxInFlight(t *testing.T) {
	var started atomic.Int64
	gate := make(chan struct{})
	c := New(blockingEcho(&started, gate), Options{MaxBatch: 1, MaxInFlight: 2})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			if _, err := c.Submit(context.Background(), q); err != nil {
				t.Errorf("submit %d: %v", q, err)
			}
		}(i)
	}
	// MaxBatch=1 flushes each submit immediately; exactly two batches may
	// enter the runner, the third must wait on the in-flight semaphore.
	waitFor(t, "two batches in flight", func() bool { return started.Load() == 2 })
	time.Sleep(20 * time.Millisecond)
	if got := started.Load(); got != 2 {
		t.Fatalf("%d batches entered the runner, want 2 (MaxInFlight)", got)
	}
	if st := c.Stats(); st.InFlight != 2 || st.InFlightPeak != 2 {
		t.Fatalf("InFlight=%d InFlightPeak=%d, want 2/2", st.InFlight, st.InFlightPeak)
	}

	close(gate)
	wg.Wait()
	st := c.Stats()
	if st.InFlight != 0 {
		t.Fatalf("InFlight=%d after drain, want 0", st.InFlight)
	}
	if st.InFlightPeak != 2 {
		t.Fatalf("InFlightPeak=%d, want 2", st.InFlightPeak)
	}
	if st.Batches != 3 {
		t.Fatalf("Batches=%d, want 3", st.Batches)
	}
	c.Close()
}

// TestInFlightSerializedAtOne asserts MaxInFlight=1 restores strict
// serialization: the peak never exceeds one no matter how many batches flush.
func TestInFlightSerializedAtOne(t *testing.T) {
	var running, peak atomic.Int64
	c := New(func(ctx context.Context, qs []int) (Demux[int], error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		out := make(Slice[int], len(qs))
		copy(out, qs)
		return out, nil
	}, Options{MaxBatch: 1, MaxInFlight: 1})

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			if _, err := c.Submit(context.Background(), q); err != nil {
				t.Errorf("submit %d: %v", q, err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p != 1 {
		t.Fatalf("observed %d concurrent runner entries, want 1", p)
	}
	if st := c.Stats(); st.InFlightPeak != 1 {
		t.Fatalf("InFlightPeak=%d, want 1", st.InFlightPeak)
	}
	c.Close()
}

// TestInFlightPeakBoundedUnderChurn drives idle, size and timeout flushes at
// once under real time and checks that neither the runner nor the
// InFlightPeak gauge ever sees more than MaxInFlight concurrent batches, and
// that every flush is counted by exactly one trigger — run with -race.
func TestInFlightPeakBoundedUnderChurn(t *testing.T) {
	const maxInFlight = 3
	var running, peak atomic.Int64
	c := New(func(ctx context.Context, qs []int) (Demux[int], error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		running.Add(-1)
		out := make(Slice[int], len(qs))
		copy(out, qs)
		return out, nil
	}, Options{MaxBatch: 2, MaxWait: 50 * time.Microsecond, MaxInFlight: maxInFlight})

	const G, per = 16, 100
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q := g*per + i
				res, err := c.Submit(context.Background(), q)
				if err != nil || len(res) != 1 || res[0] != q {
					t.Errorf("query %d: res=%v err=%v", q, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()

	st := c.Stats()
	if p := peak.Load(); p > maxInFlight {
		t.Errorf("runner saw %d concurrent batches, MaxInFlight is %d", p, maxInFlight)
	}
	if st.InFlightPeak > maxInFlight || st.InFlight != 0 {
		t.Errorf("InFlightPeak=%d InFlight=%d, want <= %d and 0", st.InFlightPeak, st.InFlight, maxInFlight)
	}
	if st.Requests != G*per {
		t.Errorf("Requests=%d, want %d", st.Requests, G*per)
	}
	if byTrigger := st.IdleFlushes + st.SizeFlushes + st.TimeoutFlushes + st.DrainFlushes; byTrigger != st.Flushes() {
		t.Errorf("flushes by trigger sum to %d, batch-size histogram holds %d: %+v", byTrigger, st.Flushes(), st)
	}
	if st.IdleFlushes == 0 || st.SizeFlushes == 0 {
		t.Errorf("stats = %+v, want both idle and size flushes under churn", st)
	}
	t.Logf("churn: %d flushes (idle %d, size %d, timeout %d), mean batch %.2f, in-flight peak %d",
		st.Flushes(), st.IdleFlushes, st.SizeFlushes, st.TimeoutFlushes, st.MeanBatch(), st.InFlightPeak)
}
