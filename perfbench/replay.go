package main

import (
	"context"

	wegeom "repro"
	"repro/internal/coalesce"
	"repro/internal/serve"
)

// tagged carries a replayed request's id through a coalesced batch, so the
// runner span can be attributed to every request in the batch.
type tagged[Q any] struct {
	id int64
	q  Q
}

// mixedDemux adapts a mixed-batch result to the coalescer's Demux.
type mixedDemux[R any] struct {
	res interface{ ResultsAt(int) ([]R, bool) }
}

func (d mixedDemux[R]) Results(i int) []R {
	r, _ := d.res.ResultsAt(i)
	return r
}

// replayer re-runs each completed HTTP request below HTTP, through
// benchmark-owned coalescers with the daemon's options whose runners call
// the daemon's Sharded() or Engine() batch methods. At concurrency 1 this
// is exactly the batch-of-one run the daemon made; with more clients it is
// an estimate, since the daemon's batch composition is not reproduced.
type replayer struct {
	tr    *tracer
	copts coalesce.Options

	stab      *coalesce.Coalescer[tagged[float64], wegeom.Interval]
	stabCount *coalesce.Coalescer[tagged[float64], int64]
	q3        *coalesce.Coalescer[tagged[wegeom.PSTQuery], wegeom.PSTPoint]
	q3Count   *coalesce.Coalescer[tagged[wegeom.PSTQuery], int64]
	rng       *coalesce.Coalescer[tagged[wegeom.RTQuery], wegeom.RTPoint]
	rngSum    *coalesce.Coalescer[tagged[wegeom.RTQuery], float64]
	knn       *coalesce.Coalescer[tagged[wegeom.KPoint], wegeom.KDItem]
	kdr       *coalesce.Coalescer[tagged[wegeom.KBox], wegeom.KDItem]
	kdrCount  *coalesce.Coalescer[tagged[wegeom.KBox], int64]
	locate    *coalesce.Coalescer[tagged[wegeom.Point], int32]
	mixedIv   *coalesce.Coalescer[tagged[wegeom.IntervalOp], wegeom.Interval]
	mixedRT   *coalesce.Coalescer[tagged[wegeom.RTOp], wegeom.RTPoint]
	mixedKD   *coalesce.Coalescer[tagged[wegeom.KDOp], wegeom.KDItem]
}

// replayCoalescer builds one replay coalescer whose runner records a span
// at layer for every request in the batch.
func replayCoalescer[Q, R any](rp *replayer, layer string, call func(ctx context.Context, qs []Q) (coalesce.Demux[R], *wegeom.Report, error)) *coalesce.Coalescer[tagged[Q], R] {
	return coalesce.New(func(ctx context.Context, ts []tagged[Q]) (coalesce.Demux[R], error) {
		qs := make([]Q, len(ts))
		ids := map[int64]bool{}
		for i, t := range ts {
			qs[i] = t.q
			ids[t.id] = true
		}
		start := rp.tr.now()
		out, rep, err := call(ctx, qs)
		end := rp.tr.now()
		s := span{Layer: layer, Parent: "coalesce", Start: start, End: end, Replay: true, Batch: len(ids), Queries: len(qs)}
		if rep != nil {
			s.Op, s.Workers, s.Active, s.Fanout = rep.Op, rep.Workers, rep.ActiveWorkers(), fanout(rep)
		}
		for id := range ids {
			s.ID = id
			rp.tr.add(s)
		}
		return out, err
	}, rp.copts)
}

func newReplayer(srv *serve.Server, tr *tracer, cfg serve.Config) *replayer {
	rp := &replayer{tr: tr, copts: coalesce.Options{MaxBatch: cfg.MaxBatch, MaxWait: cfg.MaxWait, MaxInFlight: cfg.MaxInFlight}}
	eng, ck, sh := srv.Engine(), srv.Checkpoint(), srv.Sharded()
	layer := "engine"
	if sh != nil {
		layer = "shard"
	}
	rp.stab = replayCoalescer(rp, layer, func(ctx context.Context, qs []float64) (coalesce.Demux[wegeom.Interval], *wegeom.Report, error) {
		if sh != nil {
			return sh.StabBatch(ctx, qs)
		}
		return eng.StabBatch(ctx, ck.Interval, qs)
	})
	rp.stabCount = replayCoalescer(rp, layer, func(ctx context.Context, qs []float64) (coalesce.Demux[int64], *wegeom.Report, error) {
		if sh != nil {
			return flat(sh.StabCountBatch(ctx, qs))
		}
		return flat(eng.StabCountBatch(ctx, ck.Interval, qs))
	})
	rp.q3 = replayCoalescer(rp, layer, func(ctx context.Context, qs []wegeom.PSTQuery) (coalesce.Demux[wegeom.PSTPoint], *wegeom.Report, error) {
		if sh != nil {
			return sh.Query3SidedBatch(ctx, qs)
		}
		return eng.Query3SidedBatch(ctx, ck.Priority, qs)
	})
	rp.q3Count = replayCoalescer(rp, layer, func(ctx context.Context, qs []wegeom.PSTQuery) (coalesce.Demux[int64], *wegeom.Report, error) {
		if sh != nil {
			return flat(sh.Count3SidedBatch(ctx, qs))
		}
		return flat(eng.Count3SidedBatch(ctx, ck.Priority, qs))
	})
	rp.rng = replayCoalescer(rp, layer, func(ctx context.Context, qs []wegeom.RTQuery) (coalesce.Demux[wegeom.RTPoint], *wegeom.Report, error) {
		if sh != nil {
			return sh.RangeQueryBatch(ctx, qs)
		}
		return eng.RangeQueryBatch(ctx, ck.Range, qs)
	})
	rp.rngSum = replayCoalescer(rp, layer, func(ctx context.Context, qs []wegeom.RTQuery) (coalesce.Demux[float64], *wegeom.Report, error) {
		if sh != nil {
			return flat(sh.SumYBatch(ctx, qs))
		}
		return flat(eng.SumYBatch(ctx, ck.Range, qs))
	})
	rp.knn = replayCoalescer(rp, layer, func(ctx context.Context, qs []wegeom.KPoint) (coalesce.Demux[wegeom.KDItem], *wegeom.Report, error) {
		if sh != nil {
			return sh.KNNBatch(ctx, qs, knnK)
		}
		return eng.KNNBatch(ctx, ck.KD, qs, knnK)
	})
	rp.kdr = replayCoalescer(rp, layer, func(ctx context.Context, qs []wegeom.KBox) (coalesce.Demux[wegeom.KDItem], *wegeom.Report, error) {
		if sh != nil {
			return sh.KDRangeBatch(ctx, qs)
		}
		return eng.KDRangeBatch(ctx, ck.KD, qs)
	})
	rp.kdrCount = replayCoalescer(rp, layer, func(ctx context.Context, qs []wegeom.KBox) (coalesce.Demux[int64], *wegeom.Report, error) {
		if sh != nil {
			return flat(sh.KDRangeCountBatch(ctx, qs))
		}
		return flat(eng.KDRangeCountBatch(ctx, ck.KD, qs))
	})
	// The Delaunay DAG is never sharded: it always runs on the daemon's
	// own engine.
	rp.locate = replayCoalescer(rp, "engine", func(ctx context.Context, qs []wegeom.Point) (coalesce.Demux[int32], *wegeom.Report, error) {
		return eng.LocateBatch(ctx, ck.Delaunay, qs)
	})
	rp.mixedIv = replayCoalescer(rp, layer, func(ctx context.Context, ops []wegeom.IntervalOp) (coalesce.Demux[wegeom.Interval], *wegeom.Report, error) {
		if sh != nil {
			return mixed(sh.IntervalMixedBatch(ctx, ops))
		}
		return mixed(eng.IntervalMixedBatch(ctx, ck.Interval, ops))
	})
	rp.mixedRT = replayCoalescer(rp, layer, func(ctx context.Context, ops []wegeom.RTOp) (coalesce.Demux[wegeom.RTPoint], *wegeom.Report, error) {
		if sh != nil {
			return mixed(sh.RangeTreeMixedBatch(ctx, ops))
		}
		return mixed(eng.RangeTreeMixedBatch(ctx, ck.Range, ops))
	})
	rp.mixedKD = replayCoalescer(rp, layer, func(ctx context.Context, ops []wegeom.KDOp) (coalesce.Demux[wegeom.KDItem], *wegeom.Report, error) {
		if sh != nil {
			return mixed(sh.KDMixedBatch(ctx, ops))
		}
		return mixed(eng.KDMixedBatch(ctx, ck.KD, ops))
	})
	return rp
}

// flat and mixed adapt the count and mixed-batch result shapes to Demux;
// on error the result is never read.
func flat[R any](out []R, rep *wegeom.Report, err error) (coalesce.Demux[R], *wegeom.Report, error) {
	return coalesce.Slice[R](out), rep, err
}

func mixed[R any](out interface{ ResultsAt(int) ([]R, bool) }, rep *wegeom.Report, err error) (coalesce.Demux[R], *wegeom.Report, error) {
	return mixedDemux[R]{out}, rep, err
}

func tag[Q any](id int64, qs []Q) []tagged[Q] {
	out := make([]tagged[Q], len(qs))
	for i, q := range qs {
		out[i] = tagged[Q]{id, q}
	}
	return out
}

// replay submits r below HTTP and records the coalesce span around it.
func (rp *replayer) replay(id int64, r request) {
	ctx := context.Background()
	start := rp.tr.now()
	var err error
	switch r.ep {
	case epStab:
		_, err = rp.stab.Submit(ctx, tagged[float64]{id, r.q})
	case epStabCount:
		_, err = rp.stabCount.Submit(ctx, tagged[float64]{id, r.q})
	case epQ3:
		_, err = rp.q3.Submit(ctx, tagged[wegeom.PSTQuery]{id, r.pstQuery()})
	case epQ3Count:
		_, err = rp.q3Count.Submit(ctx, tagged[wegeom.PSTQuery]{id, r.pstQuery()})
	case epRange:
		_, err = rp.rng.Submit(ctx, tagged[wegeom.RTQuery]{id, r.rect})
	case epRangeSum:
		_, err = rp.rngSum.Submit(ctx, tagged[wegeom.RTQuery]{id, r.rect})
	case epKNN:
		_, err = rp.knn.Submit(ctx, tagged[wegeom.KPoint]{id, wegeom.KPoint{r.pt.X, r.pt.Y}})
	case epKDRange:
		_, err = rp.kdr.Submit(ctx, tagged[wegeom.KBox]{id, r.box()})
	case epKDRangeCount:
		_, err = rp.kdrCount.Submit(ctx, tagged[wegeom.KBox]{id, r.box()})
	case epLocate:
		_, err = rp.locate.Submit(ctx, tagged[wegeom.Point]{id, r.pt})
	case epBatch:
		switch r.batch.structure {
		case "interval":
			_, err = rp.mixedIv.SubmitAll(ctx, tag(id, r.batch.intervalOps()))
		case "range":
			_, err = rp.mixedRT.SubmitAll(ctx, tag(id, r.batch.rtOps()))
		case "kd":
			_, err = rp.mixedKD.SubmitAll(ctx, tag(id, r.batch.kdOps()))
		}
	}
	s := span{ID: id, Layer: "coalesce", Parent: "serve", Op: endpointPath[r.ep], Start: start, End: rp.tr.now(), Replay: true}
	if err != nil {
		s.Op += " (replay failed: " + err.Error() + ")"
	}
	rp.tr.add(s)
}

func (rp *replayer) close() {
	rp.stab.Close()
	rp.stabCount.Close()
	rp.q3.Close()
	rp.q3Count.Close()
	rp.rng.Close()
	rp.rngSum.Close()
	rp.knn.Close()
	rp.kdr.Close()
	rp.kdrCount.Close()
	rp.locate.Close()
	rp.mixedIv.Close()
	rp.mixedRT.Close()
	rp.mixedKD.Close()
}
