// Command tarserved runs the Tarantula simulator as a long-lived job
// service: a JSON-over-HTTP API to submit experiments, poll or long-poll
// their status, and fetch results, backed by a bounded pool of worker
// goroutines, a content-addressed LRU result cache with in-flight
// deduplication, and a Prometheus /metrics endpoint.
//
// Usage:
//
//	tarserved -addr :8077
//	tarserved -addr :8077 -workers 8 -cache 4096 -max-deadline 5m
//	tarserved -addr :8077 -store-dir /var/lib/tarserved -queue 256
//
// With -store-dir, completed results are persisted to a crash-safe disk
// store (temp-file + fsync + rename, schema-versioned, corrupt files
// quarantined) and a restarted server warm-starts from them: resubmitting
// finished experiments after a crash costs zero re-simulation. -queue
// bounds the simulations waiting for a worker and is the one backpressure:
// a submission that finds it full is refused with "queue_full" (503,
// Retry-After: 1), and a queued job always runs and is stored.
//
// Simulations run in this process. A panicking model build fails its job
// with "internal", and a wedged one, or a kernel that stalls past its
// deadline (-job-deadline), fails it with "wedge" and frees its worker. A
// hard crash or an out-of-memory kill takes the server down; restarted over
// the same -store-dir, it warm-starts from the results already stored.
//
// API sketch (see README.md for the endpoint table, DESIGN.md for the
// error-code table and the full contract):
//
//	POST /v1/jobs                {"bench":"dgemm","config":"T","scale":"test"}
//	GET  /v1/jobs/{id}?wait=30s  long-poll job status
//	GET  /v1/jobs/{id}/result    200 result | error envelope (422/500) | 404
//	GET  /v1/jobs                list retained jobs
//	GET  /v1/sweeps/knobs        sweepable knobs: names, types, legal ranges
//	GET  /v1/benches, /v1/configs, /metrics, /healthz
//
// Every error body is the stable envelope {"error":{"code","message",...}};
// a submission naming a field the API does not have is a bad_request. A
// job's status never carries its result: /result is the one read path.
// A design-space sweep is one job per point and bench, each carrying its
// knobs; tarload -sweep submits them and ranks the points on {speedup,
// watts, mm²}.
//
// SIGTERM/SIGINT drains: intake returns 503, queued and in-flight
// simulations complete (bounded by -drain-timeout), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "max simulations waiting for a worker; a submission past it is refused with queue_full")
	cache := flag.Int("cache", 4096, "result-cache entries (LRU)")
	jobDeadline := flag.Duration("job-deadline", 10*time.Minute, "default wall-clock budget per simulation (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 30*time.Minute, "upper bound a request may ask for (0 = uncapped)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Minute, "how long shutdown waits for in-flight simulations")
	sample := flag.Uint64("sample", 0, "sample IPC/bandwidth/occupancy every N cycles on every simulation; results carry the series and /metrics exposes per-experiment summaries (0 = off)")
	storeDir := flag.String("store-dir", "", "persist results to this directory (crash-safe disk store; empty = memory only)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "disk-store byte cap; least-recently-accessed artifacts are evicted past it (0 = 1 GiB)")
	chaos := flag.String("chaos", "", "chaos campaigns, comma-separated: disk (inject disk-store I/O errors and torn writes)")
	chaosSeed := flag.Int64("chaos-seed", 1, "deterministic seed for -chaos campaigns")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file, finalized at drained shutdown")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at drained shutdown")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tarserved:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tarserved:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tarserved:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "tarserved:", err)
			}
		}()
	}

	// Resolve the -chaos campaigns before anything opens: disk chaos arms
	// the store's injector.
	var diskChaos *faults.Config
	for _, c := range strings.Split(*chaos, ",") {
		switch strings.TrimSpace(c) {
		case "":
		case "disk":
			diskChaos = faults.DiskChaos(*chaosSeed)
		default:
			fmt.Fprintf(os.Stderr, "tarserved: unknown -chaos campaign %q (want disk)\n", c)
			os.Exit(2)
		}
	}
	if *chaos != "" {
		fmt.Fprintf(os.Stderr, "tarserved: chaos armed (%s, seed %d) — its disk store fails on purpose\n", *chaos, *chaosSeed)
	}

	db, err := serve.OpenStore(*storeDir, *cache, *storeMaxBytes, diskChaos)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarserved:", err)
		os.Exit(2)
	}
	if *storeDir != "" {
		r := db.Status().NS[store.Results]
		fmt.Fprintf(os.Stderr, "tarserved: disk store %s: %d artifacts warm-started (%d bytes), %d quarantined\n",
			*storeDir, r.WarmStart, r.DiskBytes, r.Quarantined)
	}

	s := serve.New(serve.Options{
		Workers:         *workers,
		QueueDepth:      *queue,
		Store:           db,
		DefaultDeadline: *jobDeadline,
		MaxDeadline:     *maxDeadline,
		SampleEvery:     *sample,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "tarserved: listening on %s\n", *addr)

	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "tarserved: %v — draining in-flight simulations\n", sig)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "tarserved:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "tarserved:", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "tarserved: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "tarserved: drained, exiting")
}
