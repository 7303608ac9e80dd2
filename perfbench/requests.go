package main

import (
	"encoding/json"
	"math/rand"
	"net/url"
	"strconv"

	wegeom "repro"
)

// endpoint is one daemon route the clients exercise.
type endpoint int

const (
	epStab endpoint = iota
	epStabCount
	epQ3
	epQ3Count
	epRange
	epRangeSum
	epKNN
	epKDRange
	epKDRangeCount
	epLocate
	epBatch
	numEndpoints
)

var endpointPath = [numEndpoints]string{
	"/stab", "/stab/count", "/query3sided", "/query3sided/count", "/range",
	"/range/sum", "/knn", "/kdrange", "/kdrange/count", "/locate", "/batch",
}

// knnK is the k every /knn request asks for.
const knnK = 10

// request is one generated HTTP request. Every read is selective: about
// ten results or fewer, or a single count or sum.
type request struct {
	ep    endpoint
	q     float64        // /stab, /stab/count
	rect  wegeom.RTQuery // /query3sided (XL, XR, YB), /range, /kdrange
	pt    wegeom.Point   // /knn, /locate
	batch *mixedReq      // /batch
}

func (r request) path() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	v := url.Values{}
	switch r.ep {
	case epStab, epStabCount:
		v.Set("q", f(r.q))
	case epQ3, epQ3Count:
		v.Set("xl", f(r.rect.XL))
		v.Set("xr", f(r.rect.XR))
		v.Set("yb", f(r.rect.YB))
	case epRange, epRangeSum:
		v.Set("xl", f(r.rect.XL))
		v.Set("xr", f(r.rect.XR))
		v.Set("yb", f(r.rect.YB))
		v.Set("yt", f(r.rect.YT))
	case epKNN:
		v.Set("x", f(r.pt.X))
		v.Set("y", f(r.pt.Y))
		v.Set("k", strconv.Itoa(knnK))
	case epKDRange, epKDRangeCount:
		v.Set("min", f(r.rect.XL)+","+f(r.rect.YB))
		v.Set("max", f(r.rect.XR)+","+f(r.rect.YT))
	case epLocate:
		v.Set("x", f(r.pt.X))
		v.Set("y", f(r.pt.Y))
	case epBatch:
		return endpointPath[r.ep]
	}
	return endpointPath[r.ep] + "?" + v.Encode()
}

func (r request) pstQuery() wegeom.PSTQuery {
	return wegeom.PSTQuery{XL: r.rect.XL, XR: r.rect.XR, YB: r.rect.YB}
}

func (r request) box() wegeom.KBox { return rectBox(r.rect) }

func rectBox(q wegeom.RTQuery) wegeom.KBox {
	return wegeom.KBox{Min: wegeom.KPoint{q.XL, q.YB}, Max: wegeom.KPoint{q.XR, q.YT}}
}

// mixedReq is one net-zero POST /batch: query, insert, query, delete,
// query, all five on one structure. Every query covers the inserted item,
// so only the middle one sees it.
type mixedReq struct {
	structure string // "interval", "range" or "kd"
	id        int32
	iv        wegeom.Interval // interval: the item; stab point q
	q         float64
	x, y      float64        // range and kd: the item
	rect      wegeom.RTQuery // range and kd: the query
	body      []byte
}

// mixedOps is the number of ops in one /batch and updateOps its inserts
// and deletes.
const (
	mixedOps  = 5
	updateOps = 2
)

type wireOp struct {
	Op    string    `json:"op"`
	Q     float64   `json:"q,omitempty"`
	Left  float64   `json:"left,omitempty"`
	Right float64   `json:"right,omitempty"`
	XL    float64   `json:"xl,omitempty"`
	XR    float64   `json:"xr,omitempty"`
	YB    float64   `json:"yb,omitempty"`
	YT    float64   `json:"yt,omitempty"`
	X     float64   `json:"x,omitempty"`
	Y     float64   `json:"y,omitempty"`
	Min   []float64 `json:"min,omitempty"`
	Max   []float64 `json:"max,omitempty"`
	P     []float64 `json:"p,omitempty"`
	ID    int32     `json:"id,omitempty"`
}

func (b *mixedReq) wire() []wireOp {
	var q, upd wireOp
	switch b.structure {
	case "interval":
		q = wireOp{Op: "stab", Q: b.q}
		upd = wireOp{Left: b.iv.Left, Right: b.iv.Right, ID: b.id}
	case "range":
		q = wireOp{Op: "query", XL: b.rect.XL, XR: b.rect.XR, YB: b.rect.YB, YT: b.rect.YT}
		upd = wireOp{X: b.x, Y: b.y, ID: b.id}
	case "kd":
		q = wireOp{Op: "range", Min: []float64{b.rect.XL, b.rect.YB}, Max: []float64{b.rect.XR, b.rect.YT}}
		upd = wireOp{P: []float64{b.x, b.y}, ID: b.id}
	}
	ins, del := upd, upd
	ins.Op, del.Op = "insert", "delete"
	return []wireOp{q, ins, q, del, q}
}

func (b *mixedReq) intervalOps() []wegeom.IntervalOp {
	q := wegeom.StabOp(b.q)
	return []wegeom.IntervalOp{q, wegeom.InsertIntervalOp(b.iv), q, wegeom.DeleteIntervalOp(b.iv), q}
}

func (b *mixedReq) rtOps() []wegeom.RTOp {
	q := wegeom.RTOp{Kind: wegeom.OpQuery, Qry: b.rect}
	p := wegeom.RTPoint{X: b.x, Y: b.y, ID: b.id}
	return []wegeom.RTOp{q, {Kind: wegeom.OpInsert, Upd: p}, q, {Kind: wegeom.OpDelete, Upd: p}, q}
}

func (b *mixedReq) kdOps() []wegeom.KDOp {
	q := wegeom.KDOp{Kind: wegeom.OpQuery, Qry: rectBox(b.rect)}
	it := wegeom.KDItem{P: wegeom.KPoint{b.x, b.y}, ID: b.id}
	return []wegeom.KDOp{q, {Kind: wegeom.OpInsert, Upd: it}, q, {Kind: wegeom.OpDelete, Upd: it}, q}
}

// stream draws one client's requests. Both the query geometry and the
// endpoint sequence are a pure function of the seed the stream starts from.
type stream struct {
	rng     *rand.Rand
	n       int   // items per tree, for the interval length scale
	seq     int   // requests drawn
	idBase  int32 // first id this client inserts
	inserts int32
	// straddle aims /range and /knn queries across x = 0.5, where the
	// two-shard grid cuts the data (see cutOnX), so they reach both shards.
	straddle bool
	// writeTo lists the structures successive /batch requests rotate over.
	writeTo []string
}

func newStream(seed uint64, client, n int, writeTo []string) *stream {
	return &stream{
		rng:     rand.New(rand.NewSource(int64(seed))),
		n:       n,
		idBase:  1<<28 + int32(client)<<24,
		writeTo: writeTo,
	}
}

func (s *stream) u(lo, hi float64) float64 { return lo + (hi-lo)*s.rng.Float64() }

// selectiveRect is a 0.01 × 0.01 query rectangle: about ten points at
// n = 100 000. With straddle it lies across x = 0.5.
func (s *stream) selectiveRect(straddle bool) wegeom.RTQuery {
	xl, yb := s.u(0, 0.99), s.u(0, 0.99)
	if straddle {
		xl = s.u(0.491, 0.499)
	}
	return wegeom.RTQuery{XL: xl, XR: xl + 0.01, YB: yb, YT: yb + 0.01}
}

// draw generates a request for ep.
func (s *stream) draw(ep endpoint) request {
	s.seq++
	r := request{ep: ep}
	switch ep {
	case epStab, epStabCount:
		r.q = s.u(0, 1)
	case epQ3, epQ3Count:
		// x ∈ [xl, xl+0.01], y ≥ yb ∈ [0.985, 0.995]: about ten points.
		xl := s.u(0, 0.99)
		r.rect = wegeom.RTQuery{XL: xl, XR: xl + 0.01, YB: s.u(0.985, 0.995)}
	case epRange:
		r.rect = s.selectiveRect(s.straddle)
	case epRangeSum, epKDRange, epKDRangeCount:
		r.rect = s.selectiveRect(false)
	case epKNN:
		r.pt = wegeom.Point{X: s.u(0, 1), Y: s.u(0, 1)}
		if s.straddle {
			r.pt.X = s.u(0.497, 0.503)
		}
	case epLocate:
		r.pt = wegeom.Point{X: s.u(0, 1), Y: s.u(0, 1)}
	case epBatch:
		r.batch = s.mixed()
	}
	return r
}

// mixed generates the next net-zero /batch on the stream's next structure.
func (s *stream) mixed() *mixedReq {
	b := s.mixedOn(s.writeTo[int(s.inserts)%len(s.writeTo)])
	body, _ := json.Marshal(map[string]any{"structure": b.structure, "ops": b.wire()}) // plain data: cannot fail
	b.body = body
	return b
}

// mixedOn generates a fresh item for structure and a selective query that
// covers it.
func (s *stream) mixedOn(structure string) *mixedReq {
	b := &mixedReq{structure: structure, id: s.idBase + s.inserts}
	s.inserts++
	if structure == "interval" {
		l := s.u(0, 1)
		b.iv = wegeom.Interval{Left: l, Right: l + s.u(0, 20/float64(s.n)), ID: b.id}
		b.q = b.iv.Left + (b.iv.Right-b.iv.Left)*s.u(0, 1)
		return b
	}
	b.x, b.y = s.u(0, 1), s.u(0, 1)
	dx, dy := s.u(0, 0.01), s.u(0, 0.01)
	b.rect = wegeom.RTQuery{XL: b.x - dx, XR: b.x - dx + 0.01, YB: b.y - dy, YT: b.y - dy + 0.01}
	return b
}

// cycleAll is point-c1's stream: the ten GET endpoints in turn, then one
// net-zero /batch on the interval tree, repeated.
func cycleAll(s *stream) request {
	return s.draw(endpoint(s.seq % int(numEndpoints)))
}

// skewedMix is shard-mixed-c2's stream: 20% net-zero /batch, 30% /range and
// 30% /knn across the shard cut, 2.5% on each other read endpoint.
func skewedMix(s *stream) request {
	u := s.rng.Float64()
	switch {
	case u < 0.20:
		return s.draw(epBatch)
	case u < 0.50:
		return s.draw(epRange)
	case u < 0.80:
		return s.draw(epKNN)
	}
	others := []endpoint{epStab, epStabCount, epQ3, epQ3Count, epRangeSum, epKDRange, epKDRangeCount, epLocate}
	return s.draw(others[int((u-0.80)/0.20*float64(len(others)))%len(others)])
}
