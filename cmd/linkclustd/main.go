// Command linkclustd serves link clustering over HTTP: a bounded job queue
// feeding a worker pool that runs the cancellable clustering pipelines over
// shared immutable graphs, with content-addressed caching of similarity pair
// lists and dendrograms (see internal/jobs and DESIGN.md §8).
//
//	linkclustd -addr :8080 -concurrency 2 -queue 32 -mem-budget 2147483648
//
// API:
//
//	POST /jobs              {"graph": "<text format>", "options": {...}}
//	GET  /jobs/{id}         status
//	GET  /jobs/{id}/result  result summary
//	GET  /jobs/{id}/merges  merge stream (LCMG binary)
//	GET  /runreport/{id}    observability run report (JSON)
//	GET  /metrics           counters
//	GET  /healthz           liveness (always 200 while the process serves)
//	GET  /readyz            readiness (503 until startup recovery finishes,
//	                        and again while draining)
//
// With -state-dir the daemon is crash-safe: submissions are journaled,
// caches get a durable on-disk tier, and a restart against the same
// directory replays the journal — completed results are re-served under
// their original job ids, interrupted jobs re-run their sweep and produce
// bitwise-identical merge streams. See DESIGN.md §11.
//
// SIGTERM or SIGINT drains gracefully: the listener stops accepting, new
// submissions get 503, in-flight jobs are cancelled through their contexts,
// and the process exits once every worker goroutine has unwound — partial
// run reports for cancelled jobs stay retrievable until exit. With a state
// dir, drain-interrupted jobs are re-run on the next start.
//
// LINKCLUSTD_FAULT=<point>:<hitN>:<kill|fail> arms one deterministic fault
// injection point (see internal/fault) — the crash harness's interface for
// killing the daemon at an exact persistence operation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"linkclust/internal/fault"
	"linkclust/internal/jobs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkclustd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("linkclustd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8080", "listen address")
		concurrency  = fs.Int("concurrency", 1, "jobs run simultaneously")
		queueDepth   = fs.Int("queue", 16, "max queued jobs (beyond it submissions get 429)")
		jobTimeout   = fs.Duration("job-timeout", 5*time.Minute, "default per-job deadline (0 = none)")
		memBudget    = fs.Int64("mem-budget", 0, "reject submissions while live heap exceeds this many bytes (0 = off)")
		jobMemBudget = fs.Int64("job-mem-budget", 0, "default per-job memory budget in bytes: pair-list bytes above it choose the spill rung, degrading fine→coarse only if the spill fails; coarse jobs ignore it (0 = off)")
		spillDir     = fs.String("spill-dir", "", "parent directory for out-of-core spill files (default: system temp dir)")
		cacheEntries = fs.Int("cache", 64, "in-memory entries per cache side (pair lists, results; <0 disables); with -state-dir, pair lists and results are still written to and served from disk, without bound")
		drainWait    = fs.Duration("drain-timeout", 30*time.Second, "max time to wait for the listener to drain on shutdown")
		stateDir     = fs.String("state-dir", "", "state directory for crash-safe persistence: job journal, durable caches, graph blobs (empty = memory-only)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := fault.ArmFromEnv(os.Getenv("LINKCLUSTD_FAULT")); err != nil {
		return err
	}

	m, err := jobs.NewPersistentManager(jobs.Config{
		Concurrency:       *concurrency,
		QueueDepth:        *queueDepth,
		DefaultJobTimeout: *jobTimeout,
		MemBudgetBytes:    *memBudget,
		JobMemBudgetBytes: *jobMemBudget,
		SpillDir:          *spillDir,
		CacheEntries:      *cacheEntries,
		StateDir:          *stateDir,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           jobs.NewHandler(m),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "linkclustd listening on %s (concurrency=%d queue=%d cache=%d)\n",
		ln.Addr(), *concurrency, *queueDepth, *cacheEntries)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		m.Drain()
		return err
	case <-ctx.Done():
	}

	// Graceful drain, manager first: while Drain runs, the listener still
	// answers — new submissions get 503, status and run-report reads keep
	// working, so a client can collect the partial report of its cancelled
	// job. Drain blocks until every worker goroutine has unwound, so exiting
	// after it cannot orphan work. Only then is the listener shut down.
	fmt.Fprintln(stdout, "linkclustd: draining")
	m.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	err = srv.Shutdown(shutdownCtx)
	cancel()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Fprintln(stdout, "linkclustd: drained cleanly")
	return nil
}
