package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one HTTP request (or
// one engine-bulk call) share an ID; Parent names the layer of the span
// that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	// Replay marks spans recorded by the below-HTTP replay of a request
	// rather than on the daemon's own path.
	Replay bool `json:"replay,omitempty"`
	// Batch is the number of requests in a runner span's coalesced batch;
	// Queries the queries or ops the call ran; Fanout the shards that
	// charged work (shard spans); Workers and Active the run's fork-join
	// pool size and the workers that charged at least one access.
	Batch   int `json:"batch,omitempty"`
	Queries int `json:"queries,omitempty"`
	Fanout  int `json:"fanout,omitempty"`
	Workers int `json:"workers,omitempty"`
	Active  int `json:"active,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// now returns nanoseconds since the tracer's origin.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfTime returns parent's duration minus the part of its interval that
// the children cover; overlapping children count once and the parts of a
// child outside parent's interval count not at all.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			covered += v.hi - v.lo
			end = v.hi
		}
	}
	return parent.dur() - time.Duration(covered)
}

// replaySelf returns parent's duration minus the durations of children that
// were replayed after it, outside its interval. The result is negative when
// the replay took longer than the span it stands in for — then the replay
// no longer represents the daemon's path.
func replaySelf(parent span, replayed []span) time.Duration {
	d := parent.dur()
	for _, c := range replayed {
		d -= c.dur()
	}
	return d
}
