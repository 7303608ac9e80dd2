package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func bootTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 800
	}
	if cfg.DelaunayN == 0 {
		cfg.DelaunayN = 300
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 500 * time.Microsecond
	}
	s, err := Boot(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

func getJSON(t *testing.T, h http.Handler, path string) map[string]any {
	t.Helper()
	code, body := get(t, h, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", path, code, body)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
	}
	return out
}

func TestEndpoints(t *testing.T) {
	s := bootTestServer(t, Config{})
	h := s.Handler()

	if code, body := get(t, h, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}

	stab := getJSON(t, h, "/stab?q=0.5")
	stabCount := getJSON(t, h, "/stab/count?q=0.5")
	// The reporting and counting paths must agree.
	if stab["count"].(float64) != stabCount["count"].(float64) {
		t.Errorf("/stab count %v != /stab/count %v", stab["count"], stabCount["count"])
	}

	q3 := getJSON(t, h, "/query3sided?xl=0.2&xr=0.4&yb=0.5")
	if q3["count"].(float64) < 1 {
		t.Errorf("/query3sided returned nothing: %v", q3)
	}
	rng := getJSON(t, h, "/range?xl=0.2&xr=0.4&yb=0.2&yt=0.8")
	if rng["count"].(float64) < 1 {
		t.Errorf("/range returned nothing: %v", rng)
	}
	knn := getJSON(t, h, "/knn?x=0.5&y=0.5&k=3")
	if n := len(knn["neighbors"].([]any)); n != 3 {
		t.Errorf("/knn k=3 returned %d neighbors", n)
	}
	kdr := getJSON(t, h, "/kdrange?min=0.2,0.2&max=0.6,0.6")
	if kdr["count"].(float64) < 1 {
		t.Errorf("/kdrange returned nothing: %v", kdr)
	}
	loc := getJSON(t, h, "/locate?x=0.5&y=0.5")
	if loc["count"].(float64) < 1 {
		t.Errorf("/locate returned nothing: %v", loc)
	}

	// Malformed inputs are 400s, not 500s.
	for _, path := range []string{"/stab", "/stab?q=zebra", "/knn?x=0.5&y=0.5&k=0", "/knn?x=0.5&y=0.5&k=100000", "/kdrange?min=1&max=2,3"} {
		if code, _ := get(t, h, path); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
	}
}

// parseMetrics pulls every non-comment sample line into name{labels} → value.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable metrics value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsReconcile is the acceptance check that /metrics counters
// reconcile with the daemon's own Report totals: after traffic quiesces,
// the scraped model read/write counters equal the Snapshot sums the server
// accumulated from the very *Report values its Engine returned.
func TestMetricsReconcile(t *testing.T) {
	s := bootTestServer(t, Config{MaxBatch: 8})
	h := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := float64(i) / 40
			getJSON(t, h, fmt.Sprintf("/stab?q=%.3f", q))
			getJSON(t, h, fmt.Sprintf("/stab/count?q=%.3f", q))
			getJSON(t, h, fmt.Sprintf("/knn?x=%.3f&y=0.5&k=2", q))
		}(i)
	}
	wg.Wait()

	_, body := get(t, h, "/metrics")
	m := parseMetrics(t, body)
	phases, total := s.Totals()

	if got := m["wegeom_model_total_reads"]; got != float64(total.Reads) {
		t.Errorf("metrics total reads %v, Report totals %d", got, total.Reads)
	}
	if got := m["wegeom_model_total_writes"]; got != float64(total.Writes) {
		t.Errorf("metrics total writes %v, Report totals %d", got, total.Writes)
	}
	if total.Reads == 0 || total.Writes == 0 {
		t.Fatalf("trivial totals %+v; the test exercised nothing", total)
	}
	for name, cost := range phases {
		if got := m[fmt.Sprintf("wegeom_model_reads_total{phase=%q}", name)]; got != float64(cost.Reads) {
			t.Errorf("phase %s reads: metrics %v, ledger %d", name, got, cost.Reads)
		}
		if got := m[fmt.Sprintf("wegeom_model_writes_total{phase=%q}", name)]; got != float64(cost.Writes) {
			t.Errorf("phase %s writes: metrics %v, ledger %d", name, got, cost.Writes)
		}
	}

	// The histogram's sum is the number of coalesced requests, its count
	// the number of flushes, each counted under exactly one trigger; and
	// the request counters saw every HTTP call.
	if m["wegeom_coalesce_batch_size_sum"] != 120 {
		t.Errorf("coalesced %v requests, want 120", m["wegeom_coalesce_batch_size_sum"])
	}
	byTrigger := 0.0
	for _, trigger := range []string{"idle", "size", "timeout", "drain"} {
		byTrigger += m[fmt.Sprintf("wegeom_coalesce_flushes_total{trigger=%q}", trigger)]
	}
	if flushes := m["wegeom_coalesce_batch_size_count"]; byTrigger != flushes || flushes == 0 {
		t.Errorf("flushes by trigger sum to %v, batch-size histogram counts %v", byTrigger, flushes)
	}
	served := m[`wegeom_requests_total{endpoint="/stab"}`] +
		m[`wegeom_requests_total{endpoint="/stab/count"}`] +
		m[`wegeom_requests_total{endpoint="/knn"}`]
	if served != 120 {
		t.Errorf("request counters saw %v requests, want 120", served)
	}
	if m["wegeom_workers"] < 1 {
		t.Errorf("wegeom_workers = %v", m["wegeom_workers"])
	}
}

// TestCheckpointBoot saves a running server's structures and boots a replica
// from the file; both must answer identically.
func TestCheckpointBoot(t *testing.T) {
	ctx := context.Background()
	s1 := bootTestServer(t, Config{})
	path := filepath.Join(t.TempDir(), "serve.ckpt")
	if err := s1.SaveCheckpoint(ctx, path); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}

	s2, err := Boot(ctx, Config{RestorePath: path, MaxWait: 500 * time.Microsecond})
	if err != nil {
		t.Fatalf("Boot from checkpoint: %v", err)
	}
	defer s2.Close()

	h1, h2 := s1.Handler(), s2.Handler()
	for _, path := range []string{
		"/stab?q=0.31",
		"/stab/count?q=0.31",
		"/query3sided?xl=0.1&xr=0.5&yb=0.3",
		"/range?xl=0.1&xr=0.5&yb=0.1&yt=0.9",
		"/knn?x=0.3&y=0.7&k=4",
		"/kdrange?min=0.1,0.1&max=0.5,0.5",
		"/locate?x=0.4&y=0.4",
	} {
		_, b1 := get(t, h1, path)
		_, b2 := get(t, h2, path)
		if b1 != b2 {
			t.Errorf("GET %s differs between original and restored replica:\n  %s\n  %s", path, b1, b2)
		}
	}
}

// TestCloseDrains: requests in flight when Close begins still complete, and
// requests after Close are refused.
func TestCloseDrains(t *testing.T) {
	s := bootTestServer(t, Config{MaxBatch: 1000, MaxWait: time.Hour})
	h := s.Handler()

	// A checkpoint save into a pipe nobody reads yet holds the Engine's
	// exclusive run lock, so the first /stab/count runs at once but blocks
	// in the Engine, keeping a batch of its kind outstanding.
	pr, pw := io.Pipe()
	saved := make(chan error, 1)
	go func() {
		_, err := s.Engine().SaveCheckpoint(context.Background(), pw, s.Checkpoint())
		pw.CloseWithError(err)
		saved <- err
	}()
	if _, err := pr.Read(make([]byte, 1)); err != nil {
		t.Fatalf("checkpoint never started writing: %v", err)
	}
	type result struct {
		code int
		body string
	}
	query := func() chan result {
		done := make(chan result, 1)
		go func() {
			code, body := get(t, h, "/stab/count?q=0.5")
			done <- result{code, body}
		}()
		return done
	}
	first := query()
	waitFor(t, "the first request in flight", func() bool { return s.stabCount.Stats().InFlight == 1 })

	// The second request parks in the follower window behind the first
	// (size 1 < 1000, timer 1h); only Close's drain flush can release it.
	second := query()
	waitForPending(t, s)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "Close to flush the window", func() bool { return s.stabCount.Pending() == 0 })

	// Let the checkpoint finish so the Engine runs both batches.
	if _, err := io.Copy(io.Discard, pr); err != nil {
		t.Fatalf("reading checkpoint: %v", err)
	}
	if err := <-saved; err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	for i, done := range []chan result{first, second} {
		select {
		case res := <-done:
			if res.code != http.StatusOK || !strings.Contains(res.body, "count") {
				t.Errorf("request %d: status %d, body %q", i, res.code, res.body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never completed", i)
		}
	}
	<-closed
	if cs := s.CoalesceStats(); cs.IdleFlushes != 1 || cs.DrainFlushes != 1 {
		t.Errorf("coalesce stats %+v, want the first request run idle and the second drained", cs)
	}

	if code, _ := get(t, h, "/stab/count?q=0.5"); code != http.StatusServiceUnavailable {
		t.Errorf("post-close request: status %d, want 503", code)
	}
	if code, _ := get(t, h, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("post-close healthz: status %d, want 503", code)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitForPending(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "a request parked in the coalescer window", func() bool { return s.stabCount.Pending() > 0 })
}
