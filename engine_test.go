package wegeom

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestEngineAllMethods exercises every Engine method end-to-end and checks
// that each uniform Report carries non-zero phase costs.
func TestEngineAllMethods(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithOmega(10), WithAlpha(8), WithSeed(3))

	checkReport := func(t *testing.T, rep *Report, op string) {
		t.Helper()
		if rep == nil {
			t.Fatalf("%s: nil report", op)
		}
		if rep.Op != op {
			t.Fatalf("report op = %q, want %q", rep.Op, op)
		}
		if rep.Total.Reads == 0 && rep.Total.Writes == 0 {
			t.Fatalf("%s: report counted no accesses", op)
		}
		if len(rep.Phases) == 0 {
			t.Fatalf("%s: report has no phases", op)
		}
		var phased Snapshot
		for _, p := range rep.Phases {
			phased = phased.Add(p.Cost)
		}
		if phased.Reads == 0 && phased.Writes == 0 {
			t.Fatalf("%s: all phase costs are zero", op)
		}
		if phased.Reads > rep.Total.Reads || phased.Writes > rep.Total.Writes {
			t.Fatalf("%s: phases exceed total: %v > %v", op, phased, rep.Total)
		}
		if rep.Work() != rep.Total.Work(10) {
			t.Fatalf("%s: Work() inconsistent with ω=10", op)
		}
	}

	// Sort + baseline.
	keys := gen.UniformFloats(4000, 1)
	sorted, rep, err := eng.Sort(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "sort")
	if !sort.Float64sAreSorted(sorted) {
		t.Fatal("Sort output not sorted")
	}
	sortedBase, rep, err := eng.SortBaseline(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "sort-baseline")
	for i := range sorted {
		if sorted[i] != sortedBase[i] {
			t.Fatal("baseline and write-efficient sorts disagree")
		}
	}
	_, st, _, err := eng.SortWithStats(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if st.DoublingRounds == 0 {
		t.Fatal("SortWithStats reported no doubling rounds")
	}

	// Delaunay, both variants.
	pts := eng.ShufflePoints(gen.UniformPoints(1500, 2))
	tri, rep, err := eng.Triangulate(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "triangulate")
	if err := tri.Check(); err != nil {
		t.Fatal(err)
	}
	classic, rep, err := eng.TriangulateClassic(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "triangulate-classic")
	if len(classic.Triangles()) != len(tri.Triangles()) {
		t.Fatal("classic and write-efficient triangulations differ")
	}

	// Convex hull.
	hullIdx, rep, err := eng.ConvexHull(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "hull")
	if len(hullIdx) < 3 {
		t.Fatalf("hull too small: %d", len(hullIdx))
	}

	// k-d trees: p-batched (median and SAH) and classic, plus dynamics.
	kpts := gen.UniformKPoints(2500, 2, 4)
	items := make([]KDItem, len(kpts))
	for i := range items {
		items[i] = KDItem{P: kpts[i], ID: int32(i)}
	}
	kd, rep, err := eng.BuildKDTree(ctx, 2, items)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "kdtree")
	box := KBox{Min: KPoint{0.2, 0.2}, Max: KPoint{0.5, 0.9}}
	n1 := kd.RangeCount(box)
	kdc, rep, err := eng.BuildKDTreeClassic(ctx, 2, items)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "kdtree-classic")
	if n2 := kdc.RangeCount(box); n1 != n2 {
		t.Fatalf("kd range counts differ: %d vs %d", n1, n2)
	}
	sahEng := NewEngine(WithSAH(true))
	kdSAH, rep, err := sahEng.BuildKDTree(ctx, 2, items)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "kdtree")
	if n3 := kdSAH.RangeCount(box); n1 != n3 {
		t.Fatalf("SAH kd range count differs: %d vs %d", n1, n3)
	}
	forest := eng.NewKDForest(2)
	for _, it := range items[:400] {
		if err := forest.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if forest.Len() != 400 {
		t.Fatal("forest size wrong")
	}
	single := eng.NewKDSingleTree(kd)
	if err := single.Insert(KDItem{P: KPoint{0.1, 0.9}, ID: 99999}); err != nil {
		t.Fatal(err)
	}

	// Interval tree, both constructions.
	givs := gen.UniformIntervals(1200, 0.05, 5)
	ivs := make([]Interval, len(givs))
	for i, iv := range givs {
		ivs[i] = Interval{Left: iv.Left, Right: iv.Right, ID: iv.ID}
	}
	it, rep, err := eng.NewIntervalTree(ctx, ivs)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "interval")
	stab := it.StabCount(0.5)
	if stab == 0 {
		t.Fatal("no stabbing results at 0.5 (unlikely)")
	}
	itc, rep, err := eng.NewIntervalTreeClassic(ctx, ivs)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "interval-classic")
	if itc.StabCount(0.5) != stab {
		t.Fatal("classic interval tree disagrees on stab count")
	}

	// Priority search tree, both constructions.
	ppts := make([]PSTPoint, 1200)
	xs, ys := gen.UniformFloats(1200, 6), gen.UniformFloats(1200, 7)
	for i := range ppts {
		ppts[i] = PSTPoint{X: xs[i], Y: ys[i], ID: int32(i)}
	}
	pt, rep, err := eng.NewPriorityTree(ctx, ppts)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "pst")
	c3 := pt.Count3Sided(0.25, 0.75, 0.1)
	ptc, rep, err := eng.NewPriorityTreeClassic(ctx, ppts)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "pst-classic")
	if ptc.Count3Sided(0.25, 0.75, 0.1) != c3 {
		t.Fatal("classic PST disagrees on 3-sided count")
	}

	// Range tree.
	rpts := make([]RTPoint, 1200)
	for i := range rpts {
		rpts[i] = RTPoint{X: xs[i], Y: ys[i], ID: int32(i)}
	}
	rt, rep, err := eng.NewRangeTree(ctx, rpts)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, "rangetree")
	if rt.Count(0.1, 0.9, 0.1, 0.9) == 0 {
		t.Fatal("range tree counted nothing in a large window")
	}
}

// TestEngineSharedMeterAndLedger checks that WithMeter and WithLedger
// accumulate across calls while per-call reports stay disjoint: the ledger
// holds every run's phases, exclusive and shared alike, in run order.
func TestEngineSharedMeterAndLedger(t *testing.T) {
	ctx := context.Background()
	m := NewMeter()
	led := NewLedger(m)
	eng := NewEngine(WithMeter(m), WithLedger(led))

	keys := gen.UniformFloats(2000, 9)
	_, rep1, err := eng.Sort(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	after1 := m.Snapshot()
	_, rep2, err := eng.Sort(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot(); got.Reads != after1.Reads+rep2.Total.Reads || got.Writes != after1.Writes+rep2.Total.Writes {
		t.Fatal("shared meter did not accumulate across calls")
	}
	if rep1.Total != rep2.Total {
		t.Fatalf("identical runs reported different totals: %v vs %v", rep1.Total, rep2.Total)
	}
	if len(led.Phases()) != len(rep1.Phases)+len(rep2.Phases) {
		t.Fatal("shared ledger did not accumulate both calls' phases")
	}

	tree := sharedTestTree(t, NewEngine(), 500, 10)
	_, rep3, err := eng.StabBatch(ctx, tree, []float64{0.2, 0.5, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Shared {
		t.Fatal("StabBatch did not run shared")
	}
	_, rep4, err := eng.Sort(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	var want []PhaseCost
	for _, rep := range []*Report{rep1, rep2, rep3, rep4} {
		want = append(want, rep.Phases...)
	}
	if got := led.Phases(); !samePhases(got, want) {
		t.Fatalf("ledger phases are not the runs' Report phases in order:\n got %v\nwant %v", phaseNames(got), phaseNames(want))
	}
}

// samePhases reports whether two phase lists carry the same names and model
// costs in the same order (Allocs/HeapDelta are runtime measurements and
// vary between runs).
func samePhases(a, b []PhaseCost) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Cost != b[i].Cost {
			return false
		}
	}
	return true
}

func phaseNames(ps []PhaseCost) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// TestEngineKeepsNoPhaseHistory: a default Engine keeps no phase records of
// its own across a mix of exclusive and shared runs, so an exclusive run
// costs the same however many runs came before it, while every run's
// Report.Phases is what a WithLedger Engine records for the same run, and
// later runs never alter an earlier Report's phases.
func TestEngineKeepsNoPhaseHistory(t *testing.T) {
	ctx := context.Background()
	led := NewLedger(nil)
	def, twin := NewEngine(), NewEngine(WithLedger(led))

	runs := func(eng *Engine) []*Report {
		var reps []*Report
		add := func(rep *Report, err error) {
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		givs := gen.UniformIntervals(600, 0.02, 21)
		ivs := make([]Interval, len(givs))
		for i, iv := range givs {
			ivs[i] = Interval{Left: iv.Left, Right: iv.Right, ID: iv.ID}
		}
		tree, rep, err := eng.NewIntervalTree(ctx, ivs)
		add(rep, err)
		_, rep, err = eng.StabBatch(ctx, tree, []float64{0.1, 0.4, 0.7})
		add(rep, err)
		_, rep, err = eng.IntervalMixedBatch(ctx, tree, []IntervalOp{
			StabOp(0.5),
			InsertIntervalOp(Interval{Left: 0.45, Right: 0.55, ID: 9001}),
			StabOp(0.5),
		})
		add(rep, err)
		_, rep, err = eng.StabCountBatch(ctx, tree, []float64{0.3, 0.5})
		add(rep, err)
		_, rep, err = eng.Sort(ctx, gen.UniformFloats(500, 22))
		add(rep, err)
		return reps
	}
	got, want := runs(def), runs(twin)
	kept := make([][]PhaseCost, len(got))
	for i, rep := range got {
		kept[i] = append([]PhaseCost(nil), rep.Phases...)
	}

	if def.ledger != nil {
		t.Fatalf("default Engine holds a phase ledger with %d records", len(def.ledger.Phases()))
	}
	var history []PhaseCost
	for i, rep := range got {
		if len(rep.Phases) == 0 {
			t.Fatalf("run %d (%s) reported no phases", i, rep.Op)
		}
		if !samePhases(rep.Phases, want[i].Phases) {
			t.Errorf("run %d (%s) phases %v, WithLedger twin %v", i, rep.Op, phaseNames(rep.Phases), phaseNames(want[i].Phases))
		}
		if !samePhases(rep.Phases, kept[i]) {
			t.Errorf("run %d (%s) phases changed after later runs", i, rep.Op)
		}
		history = append(history, want[i].Phases...)
	}
	if !samePhases(led.Phases(), history) {
		t.Errorf("WithLedger ledger %v, want the runs' phases in order %v", phaseNames(led.Phases()), phaseNames(history))
	}
}

// TestWithLedgerNilRecordsNoPhases: WithLedger(nil) turns phase recording
// off for exclusive and shared runs alike, without touching the totals.
func TestWithLedgerNilRecordsNoPhases(t *testing.T) {
	ctx := context.Background()
	eng := NewEngine(WithLedger(nil))
	givs := gen.UniformIntervals(400, 0.02, 23)
	ivs := make([]Interval, len(givs))
	for i, iv := range givs {
		ivs[i] = Interval{Left: iv.Left, Right: iv.Right, ID: iv.ID}
	}
	tree, rep, err := eng.NewIntervalTree(ctx, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases != nil || rep.Total.Writes == 0 {
		t.Errorf("exclusive run: phases %v, total %v; want no phases and a non-zero total", phaseNames(rep.Phases), rep.Total)
	}
	_, rep, err = eng.StabBatch(ctx, tree, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases != nil || rep.Total.Reads == 0 {
		t.Errorf("shared run: phases %v, total %v; want no phases and a non-zero total", phaseNames(rep.Phases), rep.Total)
	}
}

// TestEngineParallelismSequential checks WithParallelism(1) still produces
// correct results (the fork budget is restored afterwards).
func TestEngineParallelismSequential(t *testing.T) {
	eng := NewEngine(WithParallelism(1), WithSeed(11))
	pts := eng.ShufflePoints(gen.UniformPoints(800, 12))
	tri, _, err := eng.Triangulate(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tri.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineCancellation verifies that a cancelled context aborts a large
// Triangulate promptly: the full build takes several seconds, the
// cancelled one must give up within one round of the deadline.
func TestEngineCancellation(t *testing.T) {
	eng := NewEngine(WithSeed(7))
	pts := eng.ShufflePoints(gen.UniformPoints(120000, 13))

	// Pre-cancelled context: nothing substantial may run.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	tri, _, err := eng.Triangulate(cancelled, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Triangulate: err = %v, want context.Canceled", err)
	}
	if tri != nil {
		t.Fatal("pre-cancelled Triangulate returned a triangulation")
	}

	// Deadline mid-run: the full 120k build takes seconds; the cancelled
	// run must return well before that.
	ctx, cancel2 := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, _, err = eng.Triangulate(ctx, pts)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Triangulate: err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2500*time.Millisecond {
		t.Fatalf("cancellation was not prompt: took %v after a 25ms deadline", elapsed)
	}

	// Classic variant and the sort poll cancellation too.
	if _, _, err := eng.TriangulateClassic(cancelled, pts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled TriangulateClassic: err = %v", err)
	}
	if _, _, err := eng.Sort(cancelled, gen.UniformFloats(50000, 14)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Sort: err = %v", err)
	}
	kpts := gen.UniformKPoints(2000, 2, 15)
	items := make([]KDItem, len(kpts))
	for i := range items {
		items[i] = KDItem{P: kpts[i], ID: int32(i)}
	}
	if _, _, err := eng.BuildKDTree(cancelled, 2, items); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BuildKDTree: err = %v", err)
	}
}

// TestEngineNilContext verifies that a nil ctx is normalized inside run():
// every method behaves as with context.Background() instead of skipping the
// interrupt wiring (or panicking), so cancellation semantics stay uniform
// across methods and the deprecated facade wrappers.
func TestEngineNilContext(t *testing.T) {
	eng := NewEngine(WithAlpha(4))
	ivs := make([]Interval, 0, 300)
	for i, iv := range gen.UniformIntervals(300, 0.05, 31) {
		ivs = append(ivs, Interval{Left: iv.Left, Right: iv.Right, ID: int32(i)})
	}
	tr, rep, err := eng.NewIntervalTree(nil, ivs) //nolint:staticcheck // nil ctx is the point
	if err != nil {
		t.Fatalf("nil-ctx NewIntervalTree: %v", err)
	}
	if tr.Len() != len(ivs) {
		t.Fatalf("nil-ctx build holds %d intervals, want %d", tr.Len(), len(ivs))
	}
	if rep.Workers < 1 {
		t.Fatalf("Report.Workers = %d, want >= 1", rep.Workers)
	}
	if _, _, err := eng.Sort(nil, gen.UniformFloats(500, 32)); err != nil { //nolint:staticcheck
		t.Fatalf("nil-ctx Sort: %v", err)
	}
}

// TestEngineCancellationTreeFamily verifies the §7 tree builders poll the
// interrupt at phase and fork boundaries: pre-cancelled contexts abort
// before building, and a mid-run deadline aborts a large parallel interval
// build promptly, at P = 1 and under a multi-worker pool.
func TestEngineCancellationTreeFamily(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	eng := NewEngine(WithAlpha(8))

	ivs := make([]Interval, 0, 200000)
	for i, iv := range gen.UniformIntervals(200000, 0.01, 33) {
		ivs = append(ivs, Interval{Left: iv.Left, Right: iv.Right, ID: int32(i)})
	}
	if tr, _, err := eng.NewIntervalTree(cancelled, ivs); !errors.Is(err, context.Canceled) || tr != nil {
		t.Fatalf("pre-cancelled NewIntervalTree: tree=%v err=%v, want nil/Canceled", tr, err)
	}
	ppts := make([]PSTPoint, 2000)
	rpts := make([]RTPoint, 2000)
	for i, p := range gen.UniformPoints(2000, 34) {
		ppts[i] = PSTPoint{X: p.X, Y: p.Y, ID: int32(i)}
		rpts[i] = RTPoint{X: p.X, Y: p.Y, ID: int32(i)}
	}
	if tr, _, err := eng.NewPriorityTree(cancelled, ppts); !errors.Is(err, context.Canceled) || tr != nil {
		t.Fatalf("pre-cancelled NewPriorityTree: tree=%v err=%v", tr, err)
	}
	if tr, _, err := eng.NewRangeTree(cancelled, rpts); !errors.Is(err, context.Canceled) || tr != nil {
		t.Fatalf("pre-cancelled NewRangeTree: tree=%v err=%v", tr, err)
	}

	// Deadline mid-run, with a forked build: the 200k interval build takes
	// well over the deadline; the run must abort within one grain's work.
	for _, p := range []int{1, 4} {
		peng := NewEngine(WithAlpha(8), WithParallelism(p))
		ctx, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		_, _, err := peng.NewIntervalTree(ctx, ivs)
		elapsed := time.Since(start)
		cancel2()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("P=%d deadline NewIntervalTree: err = %v, want DeadlineExceeded", p, err)
		}
		if elapsed > 2500*time.Millisecond {
			t.Fatalf("P=%d cancellation was not prompt: took %v after a 10ms deadline", p, elapsed)
		}
	}
}

// TestShufflePointsDeterministic checks that a fixed seed yields a fixed
// permutation and that the shuffle leaves its input untouched.
func TestShufflePointsDeterministic(t *testing.T) {
	pts := gen.UniformPoints(500, 21)
	orig := append([]Point{}, pts...)
	a := ShufflePoints(pts, 42)
	b := ShufflePoints(pts, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different permutations")
		}
	}
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatal("ShufflePoints mutated its input")
		}
	}
	c := ShufflePoints(pts, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the same permutation (astronomically unlikely)")
	}
	// The engine path uses the engine's seed.
	d := NewEngine(WithSeed(42)).ShufflePoints(pts)
	for i := range a {
		if a[i] != d[i] {
			t.Fatal("engine shuffle with equal seed differs from ShufflePoints")
		}
	}
}

// TestShufflePointsUniform checks that the Fisher–Yates shuffle reaches
// all 3! = 6 permutations of 3 points across seeds, with roughly uniform
// frequencies — the property the old swap-by-Perm loop violated.
func TestShufflePointsUniform(t *testing.T) {
	pts := []Point{{X: 0}, {X: 1}, {X: 2}}
	const trials = 6000
	counts := map[string]int{}
	for seed := uint64(0); seed < trials; seed++ {
		out := ShufflePoints(pts, seed)
		key := fmt.Sprintf("%.0f%.0f%.0f", out[0].X, out[1].X, out[2].X)
		counts[key]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d permutations of 3 points, want all 6: %v", len(counts), counts)
	}
	want := float64(trials) / 6
	for perm, c := range counts {
		if float64(c) < 0.8*want || float64(c) > 1.2*want {
			t.Fatalf("permutation %s occurred %d times, want ≈%.0f (non-uniform)", perm, c, want)
		}
	}
}

// TestEnginePrimitives exercises the parallel-primitive Engine methods —
// RadixSort, Semisort, BuildTournament — end-to-end: correct results,
// uniform Reports with the expected phases, and counted costs independent
// of WithParallelism.
func TestEnginePrimitives(t *testing.T) {
	ctx := context.Background()
	n := 20000
	items := make([]RadixItem, n)
	pairs := make([]SemiPair, n)
	prios := gen.UniformFloats(n, 5)
	rng := uint64(1)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		items[i] = RadixItem{Key: rng >> 16, Val: int32(i)}
		pairs[i] = SemiPair{Key: rng % 512, Val: int32(i)}
	}

	type primRun struct {
		op    string
		phase string
		run   func(e *Engine) (*Report, error)
	}
	runs := []primRun{
		{"radixsort", "prims/radixsort", func(e *Engine) (*Report, error) {
			out, rep, err := e.RadixSort(ctx, items)
			if err != nil {
				return rep, err
			}
			for i := 1; i < len(out); i++ {
				if out[i-1].Key > out[i].Key ||
					(out[i-1].Key == out[i].Key && out[i-1].Val > out[i].Val) {
					t.Fatalf("RadixSort output unsorted/unstable at %d", i)
				}
			}
			if items[0].Val != 0 {
				t.Fatal("RadixSort mutated its input")
			}
			return rep, nil
		}},
		{"semisort", "prims/semisort", func(e *Engine) (*Report, error) {
			groups, rep, err := e.Semisort(ctx, pairs)
			if err != nil {
				return rep, err
			}
			total := 0
			for _, g := range groups {
				total += len(g.Vals)
			}
			if total != n {
				t.Fatalf("Semisort groups hold %d pairs, want %d", total, n)
			}
			return rep, nil
		}},
		{"tournament", "tournament/build", func(e *Engine) (*Report, error) {
			tt, rep, err := e.BuildTournament(ctx, prios)
			if err != nil {
				return rep, err
			}
			best := tt.Best(0, n)
			for i := 0; i < n; i++ {
				if prios[i] > prios[best] {
					t.Fatalf("BuildTournament Best = %d, but %d has higher priority", best, i)
				}
			}
			return rep, nil
		}},
	}
	for _, pr := range runs {
		var ref Snapshot
		for _, p := range []int{1, 4} {
			rep, err := pr.run(NewEngine(WithParallelism(p)))
			if err != nil {
				t.Fatalf("%s at P=%d: %v", pr.op, p, err)
			}
			if rep.Op != pr.op {
				t.Fatalf("report op = %q, want %q", rep.Op, pr.op)
			}
			if len(rep.Phases) != 1 || rep.Phases[0].Name != pr.phase {
				t.Fatalf("%s: phases = %+v, want one %q", pr.op, rep.Phases, pr.phase)
			}
			if rep.Total.Writes == 0 {
				t.Fatalf("%s: counted no writes", pr.op)
			}
			if p == 1 {
				ref = rep.Total
			} else if rep.Total != ref {
				t.Fatalf("%s: cost at P=%d %v != P=1 %v", pr.op, p, rep.Total, ref)
			}
		}
	}

	// Cancellation: a pre-cancelled context aborts before the phase runs.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := NewEngine().RadixSort(cctx, items); !errors.Is(err, context.Canceled) {
		t.Fatalf("RadixSort with cancelled ctx: err = %v", err)
	}
}
