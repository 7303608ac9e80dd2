package main

// The -serve mode load-tests the wegeom-serve daemon: it boots the serving
// layer in-process, exposes it on a loopback listener, and drives a mixed
// read/write workload over real HTTP at a configurable concurrency. A
// configurable fraction of requests (-serve-update-frac) are POST /batch
// mixed-op requests — interleaved queries and net-zero insert/delete pairs
// riding the mbatch epoch executor — and the rest are single GET queries
// over the six read endpoints. The report (BENCH_serve.json) records
// per-endpoint latency percentiles, the achieved coalesced-batch sizes
// (the quantity the daemon exists to maximize: batch size > 1 means
// concurrent requests amortized one batched run's write pass), and whether
// the /metrics counters reconcile with the server's own Report totals.
//
// After the mixed-workload run, the bench sweeps a read-only workload over
// concurrency 1/4/16/64 against two freshly-booted daemons — one with the
// default shared read mode (read batches overlap in the Engine) and one
// with ExclusiveReads (every batch serializes behind the write lock, the
// pre-shared-mode behaviour) — and records QPS and latency percentiles for
// both, so the report carries its own before/after comparison.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

type serveLatency struct {
	Endpoint string  `json:"endpoint"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

type serveReport struct {
	Concurrency int     `json:"concurrency"`
	Requests    int     `json:"requests"`
	UpdateFrac  float64 `json:"update_frac"`
	N           int     `json:"n"`
	// CPUs records the cores the bench ran on — the ceiling on how much
	// wall-clock overlap the shared read mode can buy (on one core, shared
	// mode only removes the exclusive path's lock convoy and per-run
	// ReadMemStats pauses; batches cannot truly execute simultaneously).
	CPUs       int            `json:"cpus"`
	MaxBatch   int            `json:"max_batch"`
	MaxWaitMs  float64        `json:"max_wait_ms"`
	WallMs     float64        `json:"wall_ms"`
	QPS        float64        `json:"qps"`
	Latencies  []serveLatency `json:"latencies"`
	Overall    serveLatency   `json:"overall"`
	Coalescing struct {
		Requests       int64   `json:"requests"`
		Flushes        int64   `json:"flushes"`
		MeanBatch      float64 `json:"mean_batch"`
		IdleFlushes    int64   `json:"idle_flushes"`
		SizeFlushes    int64   `json:"size_flushes"`
		TimeoutFlushes int64   `json:"timeout_flushes"`
		DrainFlushes   int64   `json:"drain_flushes"`
		Retries        int64   `json:"retries"`
		InFlightPeak   int64   `json:"inflight_peak"`
	} `json:"coalescing"`
	Reconcile struct {
		MetricsReads  int64 `json:"metrics_reads"`
		MetricsWrites int64 `json:"metrics_writes"`
		ReportReads   int64 `json:"report_reads"`
		ReportWrites  int64 `json:"report_writes"`
		Match         bool  `json:"match"`
	} `json:"reconcile"`
	// ReadSweep holds the read-only concurrency sweep: one point per
	// (mode, concurrency), mode "shared" vs "exclusive".
	ReadSweep []sweepPoint `json:"read_sweep"`
	// SweepSpeedup16 is shared QPS / exclusive QPS at concurrency 16.
	SweepSpeedup16 float64 `json:"read_sweep_qps_speedup_conc16"`
}

// sweepPoint is one (read mode, concurrency) cell of the read sweep.
// InFlightPeak is the daemon's cumulative in-flight high-water mark after
// this point ran (points on one daemon share the gauge, so the peak is
// monotone across a mode's rows); any value > 1 proves read flushes of one
// endpoint actually overlapped in the Engine.
type sweepPoint struct {
	Mode         string  `json:"mode"`
	Concurrency  int     `json:"concurrency"`
	Requests     int     `json:"requests"`
	QPS          float64 `json:"qps"`
	P50ms        float64 `json:"p50_ms"`
	P95ms        float64 `json:"p95_ms"`
	Errors       int     `json:"errors"`
	InFlightPeak int64   `json:"inflight_peak"`
}

func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Millisecond)
}

func summarize(endpoint string, lats []time.Duration, errs int) serveLatency {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	mean := 0.0
	if len(lats) > 0 {
		mean = float64(sum) / float64(len(lats)) / float64(time.Millisecond)
	}
	return serveLatency{
		Endpoint: endpoint,
		Requests: len(lats),
		Errors:   errs,
		P50ms:    percentile(lats, 0.50),
		P95ms:    percentile(lats, 0.95),
		P99ms:    percentile(lats, 0.99),
		MeanMs:   mean,
	}
}

// serveWorkload returns the i-th request's path: a fixed mix over the six
// read endpoints, deterministic in i so every run drives the same queries.
func serveWorkload(i int, rng *rand.Rand) string {
	q := rng.Float64()
	switch i % 6 {
	case 0:
		return fmt.Sprintf("/stab?q=%.4f", q)
	case 1:
		return fmt.Sprintf("/stab/count?q=%.4f", q)
	case 2:
		return fmt.Sprintf("/query3sided?xl=%.4f&xr=%.4f&yb=0.6", q, q+0.1)
	case 3:
		return fmt.Sprintf("/range?xl=%.4f&xr=%.4f&yb=0.3&yt=0.6", q, q+0.1)
	case 4:
		return fmt.Sprintf("/knn?x=%.4f&y=%.4f&k=4", q, 1-q)
	default:
		return fmt.Sprintf("/locate?x=%.4f&y=%.4f", 0.1+0.8*q, 0.1+0.8*rng.Float64())
	}
}

// serveMixedBody builds the i-th POST /batch body: a 5-op mixed run — two
// stabbing/range queries bracketing an insert, then a delete of the same
// element, so the structure's size is unchanged by the whole bench run
// while every batch still exercises the mbatch write path. Coordinates sit
// near 2.0, outside the seeded [0,1] data, so the bracketed queries have
// small exact results. The target structure rotates with i.
func serveMixedBody(i int, rng *rand.Rand) string {
	id := 500000 + i
	c := 2 + rng.Float64()
	switch i % 3 {
	case 0:
		return fmt.Sprintf(`{"structure":"interval","ops":[`+
			`{"op":"stab","q":%.4f},`+
			`{"op":"insert","left":%.4f,"right":%.4f,"id":%d},`+
			`{"op":"stab","q":%.4f},`+
			`{"op":"delete","left":%.4f,"right":%.4f,"id":%d},`+
			`{"op":"stab","q":%.4f}]}`,
			c+0.05, c, c+0.1, id, c+0.05, c, c+0.1, id, c+0.05)
	case 1:
		return fmt.Sprintf(`{"structure":"range","ops":[`+
			`{"op":"query","xl":%.4f,"xr":%.4f,"yb":%.4f,"yt":%.4f},`+
			`{"op":"insert","x":%.4f,"y":%.4f,"id":%d},`+
			`{"op":"query","xl":%.4f,"xr":%.4f,"yb":%.4f,"yt":%.4f},`+
			`{"op":"delete","x":%.4f,"y":%.4f,"id":%d},`+
			`{"op":"query","xl":%.4f,"xr":%.4f,"yb":%.4f,"yt":%.4f}]}`,
			c-0.1, c+0.1, c-0.1, c+0.1, c, c, id,
			c-0.1, c+0.1, c-0.1, c+0.1, c, c, id,
			c-0.1, c+0.1, c-0.1, c+0.1)
	default:
		return fmt.Sprintf(`{"structure":"kd","ops":[`+
			`{"op":"range","min":[%.4f,%.4f],"max":[%.4f,%.4f]},`+
			`{"op":"insert","p":[%.4f,%.4f],"id":%d},`+
			`{"op":"range","min":[%.4f,%.4f],"max":[%.4f,%.4f]},`+
			`{"op":"delete","p":[%.4f,%.4f],"id":%d},`+
			`{"op":"range","min":[%.4f,%.4f],"max":[%.4f,%.4f]}]}`,
			c-0.1, c-0.1, c+0.1, c+0.1, c, c, id,
			c-0.1, c-0.1, c+0.1, c+0.1, c, c, id,
			c-0.1, c-0.1, c+0.1, c+0.1)
	}
}

type sample struct {
	endpoint string
	lat      time.Duration
	err      bool
}

// driveLoad fires reqs requests at base from conc closed-loop HTTP clients
// and returns one sample per request plus the wall time of the whole drive.
// updatePct percent of requests are POST /batch mixed-op bodies; the rest
// cycle the six read endpoints. Request i's shape is deterministic in i, so
// every run (and every mode of the read sweep) drives identical queries.
func driveLoad(client *http.Client, base string, conc, reqs, updatePct int) ([]sample, time.Duration) {
	samples := make([]sample, reqs)
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := range next {
				var (
					endpoint string
					t0       time.Time
					resp     *http.Response
					err      error
				)
				if i%100 < updatePct {
					body := serveMixedBody(i, rng)
					endpoint = "/batch"
					t0 = time.Now()
					resp, err = client.Post(base+"/batch", "application/json", strings.NewReader(body))
				} else {
					path := serveWorkload(i, rng)
					endpoint = path
					if j := strings.IndexByte(path, '?'); j >= 0 {
						endpoint = path[:j]
					}
					t0 = time.Now()
					resp, err = client.Get(base + path)
				}
				lat := time.Since(t0)
				failed := err != nil
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					failed = resp.StatusCode != http.StatusOK
				}
				samples[i] = sample{endpoint: endpoint, lat: lat, err: failed}
			}
		}(w)
	}
	for i := 0; i < reqs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return samples, time.Since(start)
}

// runReadSweep boots a fresh daemon in the given read mode and drives the
// read-only workload at each concurrency level, reusing the daemon (and its
// built structures) across levels so the modes differ only in how read
// batches schedule.
func runReadSweep(mode string, exclusive bool, n, reqsPerPoint int, concs []int) ([]sweepPoint, error) {
	ctx := context.Background()
	cfg := serve.Config{
		N:              n,
		Seed:           7,
		MaxBatch:       64,
		MaxWait:        2 * time.Millisecond,
		ExclusiveReads: exclusive,
	}
	fmt.Printf("serve bench: read sweep [%s]: booting daemon (n=%d)...\n", mode, cfg.N)
	s, err := serve.Boot(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		srv.Shutdown(ctx)
		s.Close()
	}()

	var pts []sweepPoint
	for _, conc := range concs {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc}}
		samples, wall := driveLoad(client, base, conc, reqsPerPoint, 0)
		var lats []time.Duration
		errs := 0
		for _, sm := range samples {
			if sm.err {
				errs++
				continue
			}
			lats = append(lats, sm.lat)
		}
		ov := summarize("overall", lats, errs)
		pt := sweepPoint{
			Mode:         mode,
			Concurrency:  conc,
			Requests:     reqsPerPoint,
			QPS:          float64(reqsPerPoint) / wall.Seconds(),
			P50ms:        ov.P50ms,
			P95ms:        ov.P95ms,
			Errors:       errs,
			InFlightPeak: s.CoalesceStats().InFlightPeak,
		}
		pts = append(pts, pt)
		fmt.Printf("serve bench: read sweep [%s] conc=%-3d %8.0f req/s  p50=%.2fms p95=%.2fms  inflight peak=%d\n",
			mode, conc, pt.QPS, pt.P50ms, pt.P95ms, pt.InFlightPeak)
	}
	return pts, nil
}

// scrapeModelTotals pulls wegeom_model_total_{reads,writes} from /metrics.
func scrapeModelTotals(base string) (reads, writes int64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	parse := func(line, prefix string, dst *int64) error {
		v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, prefix)), 10, 64)
		if err == nil {
			*dst = v
		}
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "wegeom_model_total_reads "):
			err = parse(line, "wegeom_model_total_reads ", &reads)
		case strings.HasPrefix(line, "wegeom_model_total_writes "):
			err = parse(line, "wegeom_model_total_writes ", &writes)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return reads, writes, sc.Err()
}

func runServeBench(out string, conc, reqs, n int, updateFrac float64) error {
	updatePct := int(updateFrac*100 + 0.5)
	ctx := context.Background()
	cfg := serve.Config{
		N:        n,
		Seed:     7,
		MaxBatch: 64,
		MaxWait:  2 * time.Millisecond,
	}
	fmt.Printf("serve bench: booting daemon (n=%d)...\n", cfg.N)
	s, err := serve.Boot(ctx, cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serve bench: %s, %d requests at concurrency %d (%d%% mixed /batch)\n", base, reqs, conc, updatePct)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conc}}
	samples, wall := driveLoad(client, base, conc, reqs, updatePct)

	// Quiesce: drain pending windows so the batch counters are final, then
	// reconcile /metrics against the server's own totals while the HTTP
	// surface is still up.
	cs := s.CoalesceStats()
	mReads, mWrites, err := scrapeModelTotals(base)
	if err != nil {
		return err
	}
	_, total := s.Totals()

	srv.Shutdown(ctx)
	s.Close()

	byEndpoint := make(map[string][]time.Duration)
	byEndpointErrs := make(map[string]int)
	var all []time.Duration
	allErrs := 0
	for _, sm := range samples {
		if sm.err {
			byEndpointErrs[sm.endpoint]++
			allErrs++
			continue
		}
		byEndpoint[sm.endpoint] = append(byEndpoint[sm.endpoint], sm.lat)
		all = append(all, sm.lat)
	}

	rep := serveReport{
		Concurrency: conc,
		Requests:    reqs,
		UpdateFrac:  float64(updatePct) / 100,
		N:           cfg.N,
		CPUs:        runtime.NumCPU(),
		MaxBatch:    64,
		MaxWaitMs:   2,
		WallMs:      float64(wall) / float64(time.Millisecond),
		QPS:         float64(reqs) / wall.Seconds(),
	}
	endpoints := make([]string, 0, len(byEndpoint))
	for ep := range byEndpoint {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		rep.Latencies = append(rep.Latencies, summarize(ep, byEndpoint[ep], byEndpointErrs[ep]))
	}
	rep.Overall = summarize("overall", all, allErrs)
	rep.Coalescing.Requests = cs.Requests
	rep.Coalescing.Flushes = cs.Flushes()
	rep.Coalescing.MeanBatch = cs.MeanBatch()
	rep.Coalescing.IdleFlushes = cs.IdleFlushes
	rep.Coalescing.SizeFlushes = cs.SizeFlushes
	rep.Coalescing.TimeoutFlushes = cs.TimeoutFlushes
	rep.Coalescing.DrainFlushes = cs.DrainFlushes
	rep.Coalescing.Retries = cs.Retries
	rep.Coalescing.InFlightPeak = cs.InFlightPeak
	rep.Reconcile.MetricsReads = mReads
	rep.Reconcile.MetricsWrites = mWrites
	rep.Reconcile.ReportReads = total.Reads
	rep.Reconcile.ReportWrites = total.Writes
	rep.Reconcile.Match = mReads == total.Reads && mWrites == total.Writes

	// Read-only concurrency sweep: shared (default) vs exclusive read
	// scheduling on otherwise-identical daemons and workloads.
	concs := []int{1, 4, 16, 64}
	sweepReqs := reqs / 2
	if sweepReqs < 800 {
		sweepReqs = 800
	}
	shared, err := runReadSweep("shared", false, n, sweepReqs, concs)
	if err != nil {
		return err
	}
	exclusive, err := runReadSweep("exclusive", true, n, sweepReqs, concs)
	if err != nil {
		return err
	}
	rep.ReadSweep = append(shared, exclusive...)
	var sharedQPS16, exclQPS16 float64
	for _, pt := range rep.ReadSweep {
		if pt.Concurrency == 16 {
			if pt.Mode == "shared" {
				sharedQPS16 = pt.QPS
			} else {
				exclQPS16 = pt.QPS
			}
		}
	}
	if exclQPS16 > 0 {
		rep.SweepSpeedup16 = sharedQPS16 / exclQPS16
	}
	fmt.Printf("serve bench: read sweep conc=16 shared/exclusive QPS speedup = %.2fx\n", rep.SweepSpeedup16)

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Printf("serve bench: %.0f req/s, overall p50=%.2fms p95=%.2fms p99=%.2fms (%d errors)\n",
		rep.QPS, rep.Overall.P50ms, rep.Overall.P95ms, rep.Overall.P99ms, allErrs)
	fmt.Printf("serve bench: mean coalesced batch %.2f over %d flushes (%d idle, %d size, %d timeout); reconcile=%v\n",
		rep.Coalescing.MeanBatch, rep.Coalescing.Flushes, cs.IdleFlushes, cs.SizeFlushes, cs.TimeoutFlushes, rep.Reconcile.Match)
	fmt.Printf("serve bench: wrote %s\n", out)
	if conc >= 8 && rep.Coalescing.MeanBatch <= 1 {
		return fmt.Errorf("serve bench: mean batch size %.2f at concurrency %d; coalescing is not engaging", rep.Coalescing.MeanBatch, conc)
	}
	return nil
}
