package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/parallel"
)

// handleMetrics renders the daemon's counters in the Prometheus text
// exposition format. The module has no dependencies, so the format is
// written by hand — it is only # HELP/# TYPE comments and one
// name{labels} value line per sample.
//
// The model-cost counters are folded from the same *Report values the
// Engine returns to callers (see observe), so a scrape's
// wegeom_model_{reads,writes}_total reconcile exactly with the daemon's own
// Report totals at any instant with no in-flight batches.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder

	b.WriteString("# HELP wegeom_uptime_seconds Seconds since the daemon booted.\n")
	b.WriteString("# TYPE wegeom_uptime_seconds gauge\n")
	fmt.Fprintf(&b, "wegeom_uptime_seconds %.3f\n", time.Since(s.start).Seconds())

	b.WriteString("# HELP wegeom_workers Fork-join worker pool size.\n")
	b.WriteString("# TYPE wegeom_workers gauge\n")
	fmt.Fprintf(&b, "wegeom_workers %d\n", s.workers())

	s.mu.Lock()
	requests := copyCounts(s.requests)
	requestErrs := copyCounts(s.requestErrs)
	batches := copyCounts(s.batches)
	batchQueries := copyCounts(s.batchQueries)
	batchResults := copyCounts(s.batchResults)
	phases := make(map[string]wegeom.Snapshot, len(s.phaseTotals))
	for k, v := range s.phaseTotals {
		phases[k] = v
	}
	total := s.total
	started := s.start
	s.mu.Unlock()

	b.WriteString("# HELP wegeom_requests_total HTTP requests admitted, per endpoint.\n")
	b.WriteString("# TYPE wegeom_requests_total counter\n")
	writeLabeled(&b, "wegeom_requests_total", "endpoint", requests)
	b.WriteString("# HELP wegeom_request_errors_total HTTP requests that failed, per endpoint.\n")
	b.WriteString("# TYPE wegeom_request_errors_total counter\n")
	writeLabeled(&b, "wegeom_request_errors_total", "endpoint", requestErrs)

	b.WriteString("# HELP wegeom_batches_total Engine batch runs, per operation (builds included).\n")
	b.WriteString("# TYPE wegeom_batches_total counter\n")
	writeLabeled(&b, "wegeom_batches_total", "op", batches)
	b.WriteString("# HELP wegeom_batch_queries_total Queries evaluated by Engine batch runs, per operation.\n")
	b.WriteString("# TYPE wegeom_batch_queries_total counter\n")
	writeLabeled(&b, "wegeom_batch_queries_total", "op", batchQueries)
	b.WriteString("# HELP wegeom_batch_results_total Results reported by Engine batch runs, per operation.\n")
	b.WriteString("# TYPE wegeom_batch_results_total counter\n")
	writeLabeled(&b, "wegeom_batch_results_total", "op", batchResults)

	b.WriteString("# HELP wegeom_model_reads_total Simulated large-memory reads charged, per ledger phase.\n")
	b.WriteString("# TYPE wegeom_model_reads_total counter\n")
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "wegeom_model_reads_total{phase=%q} %d\n", name, phases[name].Reads)
	}
	b.WriteString("# HELP wegeom_model_writes_total Simulated large-memory writes charged, per ledger phase.\n")
	b.WriteString("# TYPE wegeom_model_writes_total counter\n")
	for _, name := range names {
		fmt.Fprintf(&b, "wegeom_model_writes_total{phase=%q} %d\n", name, phases[name].Writes)
	}

	b.WriteString("# HELP wegeom_model_total_reads All simulated reads charged to the engine's meter since boot.\n")
	b.WriteString("# TYPE wegeom_model_total_reads counter\n")
	fmt.Fprintf(&b, "wegeom_model_total_reads %d\n", total.Reads)
	b.WriteString("# HELP wegeom_model_total_writes All simulated writes charged to the engine's meter since boot.\n")
	b.WriteString("# TYPE wegeom_model_total_writes counter\n")
	fmt.Fprintf(&b, "wegeom_model_total_writes %d\n", total.Writes)

	if s.sh != nil {
		b.WriteString("# HELP wegeom_shards Shard engines behind the scatter-gather router.\n")
		b.WriteString("# TYPE wegeom_shards gauge\n")
		fmt.Fprintf(&b, "wegeom_shards %d\n", s.sh.Shards())
		per, router := s.sh.PerShardTotals()
		b.WriteString("# HELP wegeom_shard_model_reads_total Simulated reads charged per shard engine (shard=\"router\" is the scatter-gather plan).\n")
		b.WriteString("# TYPE wegeom_shard_model_reads_total counter\n")
		for sid, snap := range per {
			fmt.Fprintf(&b, "wegeom_shard_model_reads_total{shard=\"%d\"} %d\n", sid, snap.Reads)
		}
		fmt.Fprintf(&b, "wegeom_shard_model_reads_total{shard=\"router\"} %d\n", router.Reads)
		b.WriteString("# HELP wegeom_shard_model_writes_total Simulated writes charged per shard engine (shard=\"router\" is the scatter-gather plan).\n")
		b.WriteString("# TYPE wegeom_shard_model_writes_total counter\n")
		for sid, snap := range per {
			fmt.Fprintf(&b, "wegeom_shard_model_writes_total{shard=\"%d\"} %d\n", sid, snap.Writes)
		}
		fmt.Fprintf(&b, "wegeom_shard_model_writes_total{shard=\"router\"} %d\n", router.Writes)
	}

	cs := s.CoalesceStats()
	b.WriteString("# HELP wegeom_coalesce_flushes_total Coalesced-batch flushes, by trigger: idle (no batch of the kind outstanding), size (MaxBatch), timeout (MaxWait behind a long batch), drain (shutdown).\n")
	b.WriteString("# TYPE wegeom_coalesce_flushes_total counter\n")
	fmt.Fprintf(&b, "wegeom_coalesce_flushes_total{trigger=\"idle\"} %d\n", cs.IdleFlushes)
	fmt.Fprintf(&b, "wegeom_coalesce_flushes_total{trigger=\"size\"} %d\n", cs.SizeFlushes)
	fmt.Fprintf(&b, "wegeom_coalesce_flushes_total{trigger=\"timeout\"} %d\n", cs.TimeoutFlushes)
	fmt.Fprintf(&b, "wegeom_coalesce_flushes_total{trigger=\"drain\"} %d\n", cs.DrainFlushes)
	b.WriteString("# HELP wegeom_coalesce_retries_total Batch re-runs after a member's cancellation aborted a shared run.\n")
	b.WriteString("# TYPE wegeom_coalesce_retries_total counter\n")
	fmt.Fprintf(&b, "wegeom_coalesce_retries_total %d\n", cs.Retries)
	b.WriteString("# HELP wegeom_coalesce_inflight Coalesced batches executing right now, summed over coalescers.\n")
	b.WriteString("# TYPE wegeom_coalesce_inflight gauge\n")
	fmt.Fprintf(&b, "wegeom_coalesce_inflight %d\n", cs.InFlight)
	b.WriteString("# HELP wegeom_coalesce_inflight_peak Maximum concurrently-executing batches observed on any single coalescer (> 1 proves read batches overlapped).\n")
	b.WriteString("# TYPE wegeom_coalesce_inflight_peak gauge\n")
	fmt.Fprintf(&b, "wegeom_coalesce_inflight_peak %d\n", cs.InFlightPeak)

	b.WriteString("# HELP wegeom_coalesce_batch_size Achieved coalesced-batch sizes (requests per flush).\n")
	b.WriteString("# TYPE wegeom_coalesce_batch_size histogram\n")
	cum := int64(0)
	for i, c := range cs.SizeHist {
		cum += c
		if i == len(cs.SizeHist)-1 {
			fmt.Fprintf(&b, "wegeom_coalesce_batch_size_bucket{le=\"+Inf\"} %d\n", cum)
		} else {
			// Bucket i holds sizes in [2^i, 2^(i+1)), so its inclusive
			// upper edge is 2^(i+1)-1.
			fmt.Fprintf(&b, "wegeom_coalesce_batch_size_bucket{le=\"%d\"} %d\n", (1<<(i+1))-1, cum)
		}
	}
	fmt.Fprintf(&b, "wegeom_coalesce_batch_size_sum %d\n", cs.Requests)
	fmt.Fprintf(&b, "wegeom_coalesce_batch_size_count %d\n", cum)

	qps := 0.0
	if up := time.Since(started).Seconds(); up > 0 {
		served := int64(0)
		for _, n := range requests {
			served += n
		}
		qps = float64(served) / up
	}
	b.WriteString("# HELP wegeom_qps Mean HTTP queries per second since boot.\n")
	b.WriteString("# TYPE wegeom_qps gauge\n")
	fmt.Fprintf(&b, "wegeom_qps %.3f\n", qps)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write([]byte(b.String()))
}

func (s *Server) workers() int {
	if s.cfg.Parallelism > 0 {
		return s.cfg.Parallelism
	}
	return parallel.Workers()
}

func copyCounts(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func writeLabeled(b *strings.Builder, metric, label string, counts map[string]int64) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", metric, label, k, counts[k])
	}
}
