package coalesce

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSubmitAllContiguousOrdered: each request's op run must appear as one
// contiguous, in-order slice of the flushed batch — the property the mixed
// /batch endpoint depends on (epoch serialization inside internal/mbatch is
// meaningless if coalescing shuffles a request's ops).
func TestSubmitAllContiguousOrdered(t *testing.T) {
	var mu sync.Mutex
	var batches [][]int
	run := func(ctx context.Context, qs []int) (Demux[int], error) {
		mu.Lock()
		batches = append(batches, append([]int{}, qs...))
		mu.Unlock()
		out := make(Slice[int], len(qs))
		for i, q := range qs {
			out[i] = q * 10
		}
		return out, nil
	}
	c, _ := heldCoalescer(t, run, Options{MaxBatch: 3, MaxWait: time.Hour, Clock: &fakeClock{}})

	// The three runs queue behind the held batch; the third fills the window.
	runs := [][]int{{100, 101, 102, 103}, {200, 201}, {300}}
	var wg sync.WaitGroup
	errs := make(chan error, len(runs))
	for _, qs := range runs {
		wg.Add(1)
		go func(qs []int) {
			defer wg.Done()
			res, err := c.SubmitAll(context.Background(), qs)
			if err != nil {
				errs <- err
				return
			}
			if len(res) != len(qs) {
				errs <- fmt.Errorf("run %v: %d result slots", qs, len(res))
				return
			}
			for j, q := range qs {
				if len(res[j]) != 1 || res[j][0] != q*10 {
					errs <- fmt.Errorf("run %v op %d: got %v", qs, j, res[j])
					return
				}
			}
		}(qs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(batches) != 1 {
		t.Fatalf("ran %d batches, want 1 (3 requests = MaxBatch)", len(batches))
	}
	batch := batches[0]
	if len(batch) != 7 {
		t.Fatalf("flattened batch has %d ops, want 7", len(batch))
	}
	// Each run must occur as a contiguous in-order subsequence.
	for _, qs := range runs {
		found := false
		for s := 0; s+len(qs) <= len(batch); s++ {
			match := true
			for j, q := range qs {
				if batch[s+j] != q {
					match = false
					break
				}
			}
			if match {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("run %v is not contiguous in batch %v", qs, batch)
		}
	}
}

// TestSubmitAllEmptyRun: an empty run returns immediately without being
// admitted into a window.
func TestSubmitAllEmptyRun(t *testing.T) {
	c := New(func(ctx context.Context, qs []int) (Demux[int], error) {
		t.Error("runner called for an empty run")
		return Slice[int]{}, nil
	}, Options{MaxBatch: 1, MaxWait: time.Hour, Clock: &fakeClock{}})
	defer c.Close()
	res, err := c.SubmitAll(context.Background(), nil)
	if res != nil || err != nil {
		t.Fatalf("empty run: res=%v err=%v", res, err)
	}
	if c.Pending() != 0 {
		t.Fatal("empty run was admitted")
	}
}

// TestSubmitAllVariableResultCounts: demuxing a multi-op request against a
// runner whose per-op result counts vary (op q yields q results).
func TestSubmitAllVariableResultCounts(t *testing.T) {
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
	c, _ := heldCoalescer(t, run, Options{MaxBatch: 2, MaxWait: time.Hour, Clock: &fakeClock{}})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, err := c.SubmitAll(context.Background(), []int{3, 0, 2})
		if err != nil {
			t.Errorf("SubmitAll: %v", err)
			return
		}
		want := [][]int{{300, 301, 302}, {}, {200, 201}}
		for j, w := range want {
			if len(res[j]) != len(w) {
				t.Errorf("op %d: got %v, want %v", j, res[j], w)
				continue
			}
			for k, v := range w {
				if res[j][k] != v {
					t.Errorf("op %d: got %v, want %v", j, res[j], w)
					break
				}
			}
		}
	}()
	// Second request fills the 2-request window behind the held batch and
	// flushes it.
	res, err := c.Submit(context.Background(), 1)
	if err != nil || len(res) != 1 || res[0] != 100 {
		t.Fatalf("filling submit: res=%v err=%v", res, err)
	}
	wg.Wait()
}
