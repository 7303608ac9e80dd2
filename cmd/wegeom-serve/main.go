// wegeom-serve is the long-lived batch-serving daemon over this module's
// write-efficient structures: it builds (or restores from a checkpoint) one
// interval tree, priority search tree, range tree, k-d tree, and Delaunay
// tracing DAG, then serves single queries over HTTP, coalescing concurrent
// requests of one kind into batched Engine runs so serving inherits the
// batch layer's write-efficiency.
//
// Coalescing is self-clocking: a request that finds no batch of its kind
// running is served at once, alone; requests that arrive while one runs
// queue behind it and run together as one batch the moment it completes.
// -max-batch caps such a batch, and -max-wait caps how long it waits behind
// a long-running batch before it starts beside it.
//
// Usage:
//
//	go run ./cmd/wegeom-serve -addr :8080 -n 20000
//	go run ./cmd/wegeom-serve -restore serve.ckpt           # boot a replica
//	go run ./cmd/wegeom-serve -checkpoint serve.ckpt        # save after boot
//	go run ./cmd/wegeom-serve -shards 4                     # scatter-gather scale-out
//	go run ./cmd/wegeom-serve -shards 4 -shard-scheme kdmedian
//
// With -shards N > 1 the four partitioned structures split across N
// independent engines behind internal/shard's scatter-gather router (the
// Delaunay DAG stays on the daemon's engine); /metrics grows per-shard
// model-cost labels, and checkpoints save/restore every shard (a restored
// daemon adopts the file's shard count).
//
// Read endpoints: /stab, /stab/count, /query3sided, /query3sided/count,
// /range, /range/sum, /knn, /kdrange, /kdrange/count, /locate, /healthz,
// /metrics (Prometheus text). The zero-write count/aggregate variants
// (/stab/count, /query3sided/count, /range/sum, /kdrange/count) answer
// without materializing result lists.
//
// Write path: POST /batch takes one JSON mixed-op request —
//
//	{"structure":"interval","ops":[{"op":"stab","q":0.5},
//	  {"op":"insert","left":0.4,"right":0.6,"id":7},{"op":"stab","q":0.5}]}
//
// ("range" and "kd" structures take their own op payloads; see
// internal/serve). Ops run under mbatch epoch serialization: each query
// sees exactly the updates that precede it in the request. POST /checkpoint
// re-saves the structures to the -checkpoint path mid-stream; the snapshot
// lands between batches, so a replica restored from it continues
// bit-identically. SIGINT/SIGTERM drain in-flight batches before exit.
//
// Read batches run in the Engine's shared mode: any number of coalesced
// read flushes execute concurrently (bounded by -max-inflight), and writes
// take the lock exclusively. -exclusive-reads restores the old
// one-batch-at-a-time behaviour for A/B comparison. -pprof mounts
// net/http/pprof (with mutex and block profiling enabled) for inspecting
// contention under concurrent load.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	n := flag.Int("n", 20000, "intervals/points per structure when building from generated data")
	delaunayN := flag.Int("delaunay-n", 0, "Delaunay point count (0 = min(n, 2000))")
	seed := flag.Uint64("seed", 1, "generator seed (same seed+n => identical replicas)")
	parallelism := flag.Int("parallelism", 0, "worker-pool size (0 = runtime default)")
	omega := flag.Int64("omega", 0, "write/read cost ratio (0 = module default)")
	alpha := flag.Int("alpha", 0, "alpha-labeling parameter (0 = module default)")
	maxBatch := flag.Int("max-batch", 64, "most requests one coalesced batch holds")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "longest a request waits behind a running batch of its kind before its batch starts beside it (a request that finds none running never waits)")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent flushed batches per coalescer (0 = default 8)")
	exclusiveReads := flag.Bool("exclusive-reads", false, "serialize read batches behind the write lock instead of running them concurrently")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ and enable mutex/block profiling")
	restore := flag.String("restore", "", "boot from this checkpoint file instead of building")
	checkpoint := flag.String("checkpoint", "", "write a checkpoint of the booted structures to this path, then serve (also enables POST /checkpoint re-saves)")
	shards := flag.Int("shards", 1, "shard the partitioned structures across this many engines behind the scatter-gather router (1 = single engine; a restored checkpoint's shard count wins)")
	shardScheme := flag.String("shard-scheme", "grid", "spatial partitioner for -shards > 1: grid or kdmedian")
	flag.Parse()

	ctx := context.Background()
	boot := time.Now()
	s, err := serve.Boot(ctx, serve.Config{
		N:              *n,
		DelaunayN:      *delaunayN,
		Seed:           *seed,
		Parallelism:    *parallelism,
		Omega:          *omega,
		Alpha:          *alpha,
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		MaxInFlight:    *maxInFlight,
		ExclusiveReads: *exclusiveReads,
		RestorePath:    *restore,
		CheckpointPath: *checkpoint,
		Shards:         *shards,
		ShardScheme:    *shardScheme,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	_, total := s.Totals()
	how := "built"
	if *restore != "" {
		how = "restored"
	}
	sharded := ""
	if sh := s.Sharded(); sh != nil {
		sharded = fmt.Sprintf(" across %d shards [%s]", sh.Shards(), sh.Scheme())
	}
	fmt.Printf("wegeom-serve: structures %s%s in %s (model: %d reads, %d writes)\n",
		how, sharded, time.Since(boot).Round(time.Millisecond), total.Reads, total.Writes)

	if *checkpoint != "" {
		if err := s.SaveCheckpoint(ctx, *checkpoint); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint:", err)
			os.Exit(1)
		}
		fmt.Printf("wegeom-serve: checkpoint written to %s\n", *checkpoint)
	}

	handler := s.Handler()
	if *pprofFlag {
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(10_000) // one sample per 10µs blocked
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Printf("wegeom-serve: pprof mounted at /debug/pprof/\n")
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("wegeom-serve: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Printf("wegeom-serve: %s, draining\n", sig)
		shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
		s.Close() // flush pending windows, wait for in-flight batches
		fmt.Println("wegeom-serve: drained")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		s.Close()
		os.Exit(1)
	}
}
