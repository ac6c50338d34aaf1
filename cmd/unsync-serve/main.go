// Command unsync-serve runs the campaign job service: an HTTP API that
// accepts fault-injection campaign and figure-experiment jobs as JSON,
// runs them on a bounded worker pool with per-job deadlines, sheds
// load with 429 Retry-After when the admission queue fills, and drains
// gracefully on SIGTERM — in-flight campaigns flush their checkpoint
// journals and a restarted server resumes them bit-identically.
//
// Usage:
//
//	unsync-serve [flags]
//
//	-addr string        listen address (default ":8321")
//	-state dir          state directory: jobs journal + campaign
//	                    checkpoints (default "unsync-serve-state")
//	-max-concurrent n   jobs running at once (default 2)
//	-queue-depth n      admitted jobs waiting for a slot (default 8)
//	-default-deadline d per-job deadline when the request sets none
//	                    (default 10m)
//	-max-deadline d     upper clamp on requested deadlines (default 1h)
//	-drain-timeout d    how long SIGTERM waits for in-flight jobs to
//	                    checkpoint before exiting anyway (default 30s)
//	-worker             enable fleet worker mode: mount the shard
//	                    execution endpoint so an unsync-fault -fleet
//	                    coordinator can lease trial ranges to this node
//
// API:
//
//	POST /api/v1/jobs        submit a job; 202 + job JSON, or 429 with
//	                         Retry-After under overload
//	GET  /api/v1/jobs        list jobs
//	GET  /api/v1/jobs/{id}   one job's state and result
//	POST /api/v1/shards      (-worker only) execute one leased campaign
//	                         trial range, streaming its records back as
//	                         JSONL, one write and flush per journal
//	                         chunk; 409 on a params key mismatch, 429
//	                         under overload
//	GET  /healthz            liveness
//	GET  /readyz             readiness (503 while draining)
//	GET  /metrics            Prometheus text exposition: serve gauges
//	                         (in-flight jobs, queue depth, shed total,
//	                         jobs by state) plus one
//	                         unsync_job_event_total{job,event} counter
//	                         per taxonomy event of each completed job,
//	                         and in -worker mode the shard gauges
//	                         (active/total/trials/failures)
//
// Exit status: 0 after a clean drain, 1 on startup or serve failure,
// 2 when the drain timed out with jobs still in flight.
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

	"github.com/cmlasu/unsync/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	state := flag.String("state", "unsync-serve-state", "state directory (jobs journal + checkpoints)")
	maxConcurrent := flag.Int("max-concurrent", 2, "jobs running at once")
	queueDepth := flag.Int("queue-depth", 8, "admitted jobs waiting for a worker slot")
	defaultDeadline := flag.Duration("default-deadline", 10*time.Minute, "per-job deadline when the request sets none")
	maxDeadline := flag.Duration("max-deadline", time.Hour, "upper clamp on requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "SIGTERM drain budget")
	worker := flag.Bool("worker", false, "fleet worker mode: mount the shard execution endpoint")
	flag.Parse()

	srv, err := serve.New(serve.Config{
		StateDir:        *state,
		MaxConcurrent:   *maxConcurrent,
		QueueDepth:      *queueDepth,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		EnableShards:    *worker,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	serveErr := make(chan error, 1)
	// The acceptor goroutine is deliberately detached: ListenAndServe
	// returns (ErrServerClosed) when Shutdown below closes the listener,
	// and the buffered channel makes its final send non-blocking, so the
	// goroutine cannot outlive process teardown in a way that matters.
	//unsync:allow-goroutine acceptor exits when Shutdown closes the listener; buffered send cannot block
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "unsync-serve: listening on %s (state %s)\n", *addr, *state)

	select {
	case err := <-serveErr:
		fatal(err)
	case <-sigCtx.Done():
	}

	// Graceful shutdown: stop accepting HTTP, then cancel in-flight
	// jobs and wait for them to journal their interrupted state. The
	// campaign checkpoints are flushed per trial, so even a cut-short
	// drain loses no completed trial.
	fmt.Fprintln(os.Stderr, "unsync-serve: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "unsync-serve: http shutdown: %v\n", err)
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "unsync-serve: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, "unsync-serve: drained cleanly")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "unsync-serve: %v\n", err)
	os.Exit(1)
}
