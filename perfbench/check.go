package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	wegeom "repro"
	"repro/internal/serve"
)

// response is the union of the daemon's JSON response shapes.
type response struct {
	Count     *float64          `json:"count"`
	SumY      *float64          `json:"sum_y"`
	Intervals []wegeom.Interval `json:"intervals"`
	Points    []wegeom.RTPoint  `json:"points"`
	Items     []wegeom.KDItem   `json:"items"`
	Neighbors []wegeom.KDItem   `json:"neighbors"`
	Triangles []int32           `json:"triangles"`
	Results   []struct {
		Kind      string            `json:"kind"`
		Count     int               `json:"count"`
		Intervals []wegeom.Interval `json:"intervals"`
		Points    []wegeom.RTPoint  `json:"points"`
		Items     []wegeom.KDItem   `json:"items"`
	} `json:"results"`
}

func intervalIDs(ivs []wegeom.Interval) []int32 {
	ids := make([]int32, len(ivs))
	for i, iv := range ivs {
		ids[i] = iv.ID
	}
	return ids
}

func pointIDs(ps []wegeom.RTPoint) []int32 {
	ids := make([]int32, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}

func itemIDs(its []wegeom.KDItem) []int32 {
	ids := make([]int32, len(its))
	for i, it := range its {
		ids[i] = it.ID
	}
	return ids
}

// checkCount compares a count response with the brute-force result size.
func checkCount(got *float64, want int) error {
	if got == nil || *got != float64(want) {
		return fmt.Errorf("count %v, want %d", got, want)
	}
	return nil
}

// checkResponse checks one kept response against a brute-force scan of the
// generated input; a /batch is checked epoch by epoch: the queries before
// the insert and after the delete see the base data, the one between them
// sees the base data plus the inserted item.
func checkResponse(d *dataset, tri *wegeom.Triangulation, k kept) error {
	r := k.resp
	if r == nil {
		r = &response{}
		if err := json.Unmarshal(k.body, r); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
	}
	q := k.req
	switch q.ep {
	case epStab:
		return sameIDs(intervalIDs(r.Intervals), d.stab(q.q))
	case epStabCount:
		return checkCount(r.Count, len(d.stab(q.q)))
	case epQ3:
		return sameIDs(pointIDs(r.Points), d.query3(q.pstQuery()))
	case epQ3Count:
		return checkCount(r.Count, len(d.query3(q.pstQuery())))
	case epRange:
		return sameIDs(pointIDs(r.Points), d.rect(q.rect))
	case epRangeSum:
		if r.SumY == nil {
			return fmt.Errorf("missing sum_y")
		}
		return sameFloat(*r.SumY, d.sumY(q.rect))
	case epKNN:
		return d.checkKNN(wegeom.KPoint{q.pt.X, q.pt.Y}, knnK, r.Neighbors)
	case epKDRange:
		return sameIDs(itemIDs(r.Items), d.kdRange(q.box()))
	case epKDRangeCount:
		return checkCount(r.Count, len(d.kdRange(q.box())))
	case epLocate:
		return checkLocate(tri, q.pt, r.Triangles)
	case epBatch:
		return checkBatch(d, q.batch, r)
	}
	return fmt.Errorf("unknown endpoint %d", q.ep)
}

func checkBatch(d *dataset, b *mixedReq, r *response) error {
	kinds := []string{"query", "insert", "query", "delete", "query"}
	if len(r.Results) != len(kinds) {
		return fmt.Errorf("%d op results, want %d", len(r.Results), len(kinds))
	}
	var base []int32
	switch b.structure {
	case "interval":
		base = d.stab(b.q)
	case "range":
		base = d.rect(b.rect)
	case "kd":
		base = d.kdRange(rectBox(b.rect))
	}
	for i, res := range r.Results {
		if res.Kind != kinds[i] {
			return fmt.Errorf("op %d kind %q, want %q", i, res.Kind, kinds[i])
		}
		if res.Kind != "query" {
			continue
		}
		var got []int32
		switch b.structure {
		case "interval":
			got = intervalIDs(res.Intervals)
		case "range":
			got = pointIDs(res.Points)
		case "kd":
			got = itemIDs(res.Items)
		}
		want := base
		if i == 2 {
			want = withID(base, b.id)
		}
		if err := sameIDs(got, want); err != nil {
			return fmt.Errorf("%s op %d (epoch %d): %w", b.structure, i, i, err)
		}
	}
	return nil
}

// structureSizes returns each partitionable structure's size. A sharded
// daemon's trees are reached through the router's count queries over the
// whole plane; its interval tree, which has no such query, is fingerprinted
// by stab counts at 1001 probes. The sizes are also checked against the
// generated input.
func structureSizes(ctx context.Context, srv *serve.Server, d *dataset, m *measurement) map[string]int64 {
	out := map[string]int64{}
	n := int64(len(d.pts))
	if sh := srv.Sharded(); sh != nil {
		const far = 1e9
		if c, _, err := sh.Count3SidedBatch(ctx, []wegeom.PSTQuery{{XL: -far, XR: far, YB: -far}}); err == nil {
			out["pst"] = c[0]
		}
		all := wegeom.RTQuery{XL: -far, XR: far, YB: -far, YT: far}
		if p, _, err := sh.RangeQueryBatch(ctx, []wegeom.RTQuery{all}); err == nil {
			out["rangetree"] = p.Total()
		}
		if c, _, err := sh.KDRangeCountBatch(ctx, []wegeom.KBox{rectBox(all)}); err == nil {
			out["kdtree"] = c[0]
		}
		probes := make([]float64, 1001)
		var want int64
		for i := range probes {
			probes[i] = float64(i) / 1000
			want += int64(len(d.stab(probes[i])))
		}
		if c, _, err := sh.StabCountBatch(ctx, probes); err == nil {
			var sum int64
			for _, v := range c {
				sum += v
			}
			out["interval-probe-sum"] = sum
			if sum != want {
				m.fail("interval stab-count fingerprint %d, generated input gives %d", sum, want)
			}
		}
		for _, k := range []string{"pst", "rangetree", "kdtree"} {
			if out[k] != n {
				m.fail("sharded %s holds %d items, generated input has %d", k, out[k], n)
			}
		}
		return out
	}
	ck := srv.Checkpoint()
	out["interval"] = int64(ck.Interval.Len())
	out["pst"] = int64(ck.Priority.Len())
	out["rangetree"] = int64(ck.Range.Len())
	out["kdtree"] = int64(ck.KD.Len())
	for k, v := range out {
		if v != n {
			m.fail("%s holds %d items, generated input has %d", k, v, n)
		}
	}
	return out
}

// checkMetrics reads /metrics and checks that the model totals it exports
// equal Server.Totals(), and that its per-phase counters
// wegeom_model_{reads,writes}_total{phase=...} sum to those totals.
func checkMetrics(c *client, srv *serve.Server, m *measurement) {
	m.attempted++
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		m.fail("/metrics: %v", err)
		return
	}
	defer resp.Body.Close()
	var total, phaseSum wegeom.Snapshot
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 1<<24))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		name, _, perPhase := strings.Cut(f[0], "{phase=")
		switch {
		case name == "wegeom_model_total_reads":
			total.Reads = v
		case name == "wegeom_model_total_writes":
			total.Writes = v
		case perPhase && name == "wegeom_model_reads_total":
			phaseSum.Reads += v
		case perPhase && name == "wegeom_model_writes_total":
			phaseSum.Writes += v
		}
	}
	if _, want := srv.Totals(); total != want {
		m.fail("/metrics model totals %v, Server.Totals() %v", total, want)
	}
	m.attempted++
	if phaseSum != total {
		m.fail("/metrics per-phase model counters sum to %v, its totals are %v", phaseSum, total)
	}
}
