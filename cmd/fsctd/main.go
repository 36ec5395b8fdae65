// Command fsctd is the service daemon: it serves concurrent screening,
// ATPG, fault-simulation and diagnosis jobs over an HTTP/JSON API. A
// submitted job body is a task.Spec, and runners execute it through
// the same internal/task pipeline the batch CLIs (cmd/fsctest,
// cmd/faultsim, cmd/diagnose) use — so reports are byte-identical to
// the CLIs' for the same spec.
//
// Usage:
//
//	fsctd -addr localhost:8341
//	fsctd -addr localhost:8341 -runners 4 -queue 128 -cache-budget 256MiB
//	fsctd -addr localhost:8341 -ledger runs.jsonl -metrics
//
// Submit a job and follow it:
//
//	curl -s -X POST localhost:8341/api/v1/jobs \
//	    -d '{"kind":"flow","circuit":"s1423","scale":0.1}'
//	curl -s localhost:8341/api/v1/jobs/j000001
//	curl -N localhost:8341/api/v1/jobs/j000001/events
//	curl -s localhost:8341/api/v1/jobs/j000001/result
//
// Every job view carries the job's live progress, so one poll of
// /api/v1/jobs reads them all (or point `fsctstats watch` at the
// daemon for a terminal dashboard).
//
// A straggler watchdog flags any running job that makes no progress
// for the -stall threshold (default 30s); stalled jobs surface in
// their job view's progress, in /metrics and as warning logs. -log and -logfile
// emit structured request and job-lifecycle logs correlated by
// run_id/job_id.
//
// See SERVICE.md at the repository root for the operator's handbook:
// every endpoint, the SSE stream format, FIFO queue semantics and
// cache-budget tuning.
//
// The shared observability flags apply to the daemon process itself:
// -ledger makes every finished job append one run record immediately
// (the /api/v1/history endpoint then serves that file), and /metrics
// on -addr exposes the server counters in the OpenMetrics format
// (-debug serves the usual pprof endpoints on a second address).
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// running jobs are canceled cooperatively (their partial records land
// in the ledger), and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/cmd/internal/obsflags"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8341", "HTTP listen address")
		queueLimit  = flag.Int("queue", serve.DefaultQueueLimit, "max queued (not yet running) jobs before submissions get 429")
		runners     = flag.Int("runners", 0, "concurrent job executors (0 = GOMAXPROCS capped at 4)")
		cacheBudget = flag.String("cache-budget", "0", "engine artifact cache byte budget, e.g. 256MiB (0 = unbounded)")
		stall       = flag.Duration("stall", telemetry.DefaultStallThreshold, "flag a running job as stalled after this much `silence` (negative disables the watchdog)")
		oflags      = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()

	sess, err := oflags.Open()
	if err != nil {
		sess.Fail(err)
	}
	defer sess.Close()

	budget, err := serve.ParseByteSize(*cacheBudget)
	if err != nil {
		sess.Fail(fmt.Errorf("-cache-budget: %w", err))
	}

	srv := serve.New(serve.Config{
		QueueLimit:     *queueLimit,
		Runners:        *runners,
		CacheBudget:    budget,
		Ledger:         sess,
		LedgerPath:     oflags.Ledger,
		StallThreshold: *stall,
		Logger:         sess.Logger(),
		RunID:          sess.RunID(),
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("fsctd: serving on http://%s (queue %d, budget %s)\n", *addr, *queueLimit, *cacheBudget)

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, then cancel jobs. A second
		// deadline bounds how long draining connections may linger.
		fmt.Println("fsctd: shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = httpSrv.Shutdown(shCtx)
		cancel()
		srv.Close()
		sess.Exit(0)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			sess.Fail(err)
		}
	}
	sess.Exit(0)
}
