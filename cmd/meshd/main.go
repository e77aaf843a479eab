// meshd is the simulation daemon: a long-running HTTP service over the
// ndmesh experiment library. It keeps a pool of warm, Reset-recycled
// simulation engines, accepts JSON job specs on POST /v1/jobs (open-loop
// and closed-loop sweeps, trace replays, reliability grids), streams
// result rows incrementally as cells complete, and serves repeat
// submissions from a determinism-keyed result cache without touching an
// engine. See internal/server for the service-layer contracts.
//
// Endpoints:
//
//	POST /v1/jobs[?format=csv]  submit a spec, stream rows (NDJSON; CSV
//	                            for open-loop jobs uses loadgen's exact
//	                            column format)
//	GET  /v1/jobs               list job statuses
//	GET  /v1/jobs/{id}          one job's status
//	GET  /debug/census          pool / cache / live-probe counters
//	GET  /healthz               liveness (503 once draining)
//
// Examples:
//
//	meshd -addr :8080
//	curl -s localhost:8080/v1/jobs -d '{"kind":"open-loop","dims":[8,8],"rates":[0.1,0.2],"seed":42}'
//	curl -s 'localhost:8080/v1/jobs?format=csv' -d '{"kind":"open-loop","seed":7}'
//
// On SIGINT/SIGTERM meshd stops admitting jobs and drains: in-flight
// streams run to completion up to -drain-timeout, after which remaining
// jobs are canceled (their engines still return to the pool clean — the
// library's cleanup contract holds on the abort path).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ndmesh/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meshd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole daemon behind main: it parses args, serves until ctx is
// canceled (the SIGTERM path) and returns once the drain is over, logging
// to stderr, so main_test.go drives the daemon in-process.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("meshd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg server.Config
	addr := fs.String("addr", ":8080", "listen address")
	fs.IntVar(&cfg.MaxConcurrent, "concurrency", 0, "jobs running engines at once (0 = default 2)")
	fs.IntVar(&cfg.MaxQueue, "queue", 0, "admitted jobs waiting for a run slot before 503 (0 = default 8)")
	fs.IntVar(&cfg.CacheEntries, "cache-entries", 0, "result-cache body bound (0 = default 256, negative disables)")
	fs.IntVar(&cfg.CacheBytes, "cache-bytes", 0, "result-cache byte bound (0 = default 64 MiB, negative disables)")
	fs.IntVar(&cfg.PoolIdle, "pool-idle", 0, "warm simulations retained per mesh shape (0 = default 8)")
	fs.IntVar(&cfg.MaxWorkers, "max-workers", 0, "per-job sweep fan-out cap (0 = GOMAXPROCS)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs before canceling them")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"concurrency", cfg.MaxConcurrent}, {"queue", cfg.MaxQueue}, {"pool-idle", cfg.PoolIdle}} {
		if f.v < 0 {
			return fmt.Errorf("-%s %d must be >= 0 (0 = default)", f.name, f.v)
		}
	}
	logger := log.New(stderr, "meshd: ", 0)

	srv := server.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	logger.Printf("listening on %s", ln.Addr())

	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	logger.Printf("draining (timeout %v)", *drainTimeout)
	srv.BeginShutdown()
	drain, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drain); err != nil {
		// Drain deadline passed: force-cancel the stragglers, then wait
		// for their handlers to unwind (cancellation is polled, so this
		// is prompt).
		logger.Printf("drain timeout; canceling in-flight jobs")
		srv.CancelAll()
		srv.Wait()
		_ = httpSrv.Close()
	}
	logger.Printf("drained cleanly")
	return nil
}
