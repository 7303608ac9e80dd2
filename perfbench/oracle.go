package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	wegeom "repro"
	"repro/internal/gen"
	"repro/internal/geom"
)

// dataset is the generated input of the four partitionable structures,
// kept so answers can be checked against a brute-force scan. The priority
// search tree and the range tree share one point set.
type dataset struct {
	ivs []wegeom.Interval
	pts []wegeom.RTPoint
	kd  []wegeom.KDItem
}

// genDataset generates n intervals, points and k-d items from seed with the
// same generators and seed offsets wegeom-serve builds its structures from,
// so a daemon booted with Seed = seed holds exactly this data.
func genDataset(n int, seed uint64) *dataset {
	d := &dataset{}
	for _, iv := range gen.UniformIntervals(n, 10.0/float64(n), seed+1) {
		d.ivs = append(d.ivs, wegeom.Interval{Left: iv.Left, Right: iv.Right, ID: iv.ID})
	}
	xs := gen.UniformFloats(n, seed+2)
	ys := gen.UniformFloats(n, seed+3)
	d.pts = make([]wegeom.RTPoint, n)
	for i := range d.pts {
		d.pts[i] = wegeom.RTPoint{X: xs[i], Y: ys[i], ID: int32(i)}
	}
	for i, p := range gen.UniformKPoints(n, 2, seed+4) {
		d.kd = append(d.kd, wegeom.KDItem{P: p, ID: int32(i)})
	}
	return d
}

func (d *dataset) pstPoints() []wegeom.PSTPoint {
	out := make([]wegeom.PSTPoint, len(d.pts))
	for i, p := range d.pts {
		out[i] = wegeom.PSTPoint{X: p.X, Y: p.Y, ID: p.ID}
	}
	return out
}

func (d *dataset) stab(q float64) []int32 {
	var ids []int32
	for _, iv := range d.ivs {
		if iv.Left <= q && q <= iv.Right {
			ids = append(ids, iv.ID)
		}
	}
	return sorted(ids)
}

func (d *dataset) query3(q wegeom.PSTQuery) []int32 {
	var ids []int32
	for _, p := range d.pts {
		if q.XL <= p.X && p.X <= q.XR && p.Y >= q.YB {
			ids = append(ids, p.ID)
		}
	}
	return sorted(ids)
}

func inRect(q wegeom.RTQuery, x, y float64) bool {
	return q.XL <= x && x <= q.XR && q.YB <= y && y <= q.YT
}

func (d *dataset) rect(q wegeom.RTQuery) []int32 {
	var ids []int32
	for _, p := range d.pts {
		if inRect(q, p.X, p.Y) {
			ids = append(ids, p.ID)
		}
	}
	return sorted(ids)
}

func (d *dataset) sumY(q wegeom.RTQuery) float64 {
	s := 0.0
	for _, p := range d.pts {
		if inRect(q, p.X, p.Y) {
			s += p.Y
		}
	}
	return s
}

func (d *dataset) kdRange(b wegeom.KBox) []int32 {
	var ids []int32
	for _, it := range d.kd {
		if b.Contains(it.P) {
			ids = append(ids, it.ID)
		}
	}
	return sorted(ids)
}

// knn returns the k smallest squared distances from q, ascending.
func (d *dataset) knn(q wegeom.KPoint, k int) []float64 {
	best := make([]float64, 0, k+1)
	for _, it := range d.kd {
		x := dist2(it.P, q)
		if len(best) == k && x >= best[k-1] {
			continue
		}
		i := sort.SearchFloat64s(best, x)
		best = slices.Insert(best, i, x)
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

func dist2(a, b wegeom.KPoint) float64 {
	s := 0.0
	for i := range a {
		x := a[i] - b[i]
		s += x * x
	}
	return s
}

// checkKNN compares returned neighbours with the brute-force distances:
// each neighbour must be the data item with that id, and the sorted
// distances must match (ties may pick either item).
func (d *dataset) checkKNN(q wegeom.KPoint, k int, got []wegeom.KDItem) error {
	want := d.knn(q, k)
	if len(got) != len(want) {
		return fmt.Errorf("knn: %d neighbours, want %d", len(got), len(want))
	}
	ds := make([]float64, len(got))
	for i, it := range got {
		if int(it.ID) < 0 || int(it.ID) >= len(d.kd) || !slices.Equal(d.kd[it.ID].P, it.P) {
			return fmt.Errorf("knn: neighbour %d is not a data item", it.ID)
		}
		ds[i] = dist2(it.P, q)
	}
	sort.Float64s(ds)
	for i := range ds {
		if ds[i] != want[i] {
			return fmt.Errorf("knn: distance %d is %g, want %g", i, ds[i], want[i])
		}
	}
	return nil
}

// locate returns the canonical vertex triples of the alive all-real
// triangles whose circumcircle strictly contains q.
func locate(tri *wegeom.Triangulation, q wegeom.Point) []string {
	var out []string
	for _, v := range tri.Triangles() {
		if geom.InCircle(tri.Pts[v[0]], tri.Pts[v[1]], tri.Pts[v[2]], q) > 0 {
			out = append(out, triKey(v))
		}
	}
	sort.Strings(out)
	return out
}

// checkLocate compares a point location's conflict triangles (ids into
// tri.Tris) with the brute-force scan; triangles with a bounding vertex
// have no finite circumcircle and are left out on both sides.
func checkLocate(tri *wegeom.Triangulation, q wegeom.Point, ids []int32) error {
	var got []string
	for _, id := range ids {
		if id < 0 || int(id) >= len(tri.Tris) {
			return fmt.Errorf("locate: triangle id %d out of range", id)
		}
		v := tri.Tris[id].V
		if int(v[0]) < tri.N && int(v[1]) < tri.N && int(v[2]) < tri.N {
			got = append(got, triKey(v))
		}
	}
	sort.Strings(got)
	if want := locate(tri, q); !slices.Equal(got, want) {
		return fmt.Errorf("locate: %d real conflict triangles, want %d", len(got), len(want))
	}
	return nil
}

func triKey(v [3]int32) string {
	s := []int32{v[0], v[1], v[2]}
	slices.Sort(s)
	return fmt.Sprint(s)
}

func sorted(ids []int32) []int32 {
	slices.Sort(ids)
	return ids
}

// sameIDs reports whether got holds exactly the ids of want (any order).
func sameIDs(got, want []int32) error {
	g := sorted(append([]int32(nil), got...))
	if !slices.Equal(g, want) {
		return fmt.Errorf("%d results, want %d", len(g), len(want))
	}
	return nil
}

// sameFloat compares an aggregate allowing for summation order.
func sameFloat(got, want float64) error {
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("sum %g, want %g", got, want)
	}
	return nil
}

// withID returns ids plus id, sorted.
func withID(ids []int32, id int32) []int32 {
	return sorted(append(append([]int32(nil), ids...), id))
}
