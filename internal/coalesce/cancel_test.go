package coalesce

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestSubmitAllCancelMidFlush: a caller cancels while its ops are inside a
// flushed batch. The shared run aborts with context.Canceled, the
// coalescer must retry with the survivors — they still get their results —
// and the canceled caller gets its own ctx.Err(), not a result and not the
// other callers' failure.
func TestSubmitAllCancelMidFlush(t *testing.T) {
	actx, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	var mu sync.Mutex
	var calls [][]int
	run := func(ctx context.Context, qs []int) (Demux[int], error) {
		mu.Lock()
		calls = append(calls, append([]int{}, qs...))
		n := len(calls)
		mu.Unlock()
		if n == 1 {
			// First flush holds all three requests' ops. Cancel A mid-run
			// and abort the shared run the way a ctx-aware Engine run would.
			cancelA()
			<-actx.Done()
			return nil, context.Canceled
		}
		out := make(Slice[int], len(qs))
		for i, q := range qs {
			out[i] = q * 10
		}
		return out, nil
	}
	// The three requests queue behind a held batch. MaxBatch counts
	// admitted requests, so the third submitter below is what triggers the
	// size flush; the fake clock never fires MaxWait.
	c, _ := heldCoalescer(t, run, Options{MaxBatch: 3, MaxWait: time.Hour, Clock: &fakeClock{}})

	type result struct {
		res [][]int
		err error
	}
	aDone := make(chan result, 1)
	bDone := make(chan result, 1)
	cDone := make(chan result, 1)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		res, err := c.SubmitAll(actx, []int{1, 2})
		aDone <- result{res, err}
	}()
	go func() {
		defer wg.Done()
		res, err := c.SubmitAll(context.Background(), []int{3})
		bDone <- result{res, err}
	}()
	go func() {
		defer wg.Done()
		res, err := c.SubmitAll(context.Background(), []int{4})
		cDone <- result{res, err}
	}()
	wg.Wait()

	a := <-aDone
	if !errors.Is(a.err, context.Canceled) {
		t.Errorf("canceled caller: err = %v, want context.Canceled", a.err)
	}
	b := <-bDone
	if b.err != nil {
		t.Fatalf("surviving caller B: err = %v", b.err)
	}
	if len(b.res) != 1 || len(b.res[0]) != 1 || b.res[0][0] != 30 {
		t.Errorf("surviving caller B: res = %v, want [[30]]", b.res)
	}
	cr := <-cDone
	if cr.err != nil {
		t.Fatalf("surviving caller C: err = %v", cr.err)
	}
	if len(cr.res) != 1 || len(cr.res[0]) != 1 || cr.res[0][0] != 40 {
		t.Errorf("surviving caller C: res = %v, want [[40]]", cr.res)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 {
		t.Fatalf("runner ran %d times, want 2 (flush + survivor retry)", len(calls))
	}
	// Admission order of the three goroutines is scheduler-dependent, so
	// compare flush contents as sorted sets.
	first := append([]int{}, calls[0]...)
	sort.Ints(first)
	if want := []int{1, 2, 3, 4}; len(first) != 4 || first[0] != want[0] || first[1] != want[1] || first[2] != want[2] || first[3] != want[3] {
		t.Errorf("first flush ops = %v, want %v in some order", calls[0], want)
	}
	retry := append([]int{}, calls[1]...)
	sort.Ints(retry)
	if len(retry) != 2 || retry[0] != 3 || retry[1] != 4 {
		t.Errorf("retry batch = %v, want the survivors' ops {3,4}", calls[1])
	}
	if got := c.Stats().Retries; got != 1 {
		t.Errorf("Stats().Retries = %d, want 1", got)
	}
}
