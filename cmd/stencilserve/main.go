// Command stencilserve is the multi-tenant simulation service: POST a
// wire-form Spec (see API.md) and an iteration count to /v1/jobs, stream
// per-iteration Stats over SSE, and fetch the finished domain — scheduled
// over a persistent pool of worker processes with per-tenant concurrency
// quotas and a content-addressed result cache.
//
// The server re-execs its own binary with -worker to populate the pool;
// each worker speaks the line + attachment protocol on stdin/stdout and hosts one
// job at a time. Cluster jobs whose rank count fits the pool are fanned out
// one TCP rank per worker — the same deployment shape as stencilrun
// -launch, behind an HTTP API.
//
// Usage:
//
//	stencilserve -addr :8080 -workers 2 -quota 4
//
// Endpoints (see API.md for the wire contract):
//
//	POST /v1/jobs                submit {"spec": WireSpec, "iters": N}
//	GET  /v1/jobs/{id}           job status
//	GET  /v1/jobs/{id}/events    SSE stream: stats per iteration, then done
//	GET  /v1/jobs/{id}/result    final grid + merged stats (JSON, or raw cells under Accept: application/octet-stream)
//	POST /v1/grids               upload a grid, reference it as {"upload": id}
//	GET  /v1/healthz, /metrics   liveness and Prometheus text
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stencilabft/internal/serve"
)

func main() {
	var (
		worker  = flag.Bool("worker", false, "run as a pool worker on stdin/stdout (internal)")
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 2, "worker process pool size")
		quota   = flag.Int("quota", 4, "max queued+running jobs per tenant")
		queue   = flag.Int("queue", 64, "global job backlog bound")
		timeout = flag.Duration("timeout", 2*time.Minute, "per-job deadline before its workers are killed")
		cache   = flag.Int("cache", 128, "result cache entries")
		fanout  = flag.Bool("fanout", true, "spread cluster jobs one tcp rank per worker when they fit")
	)
	flag.Parse()

	if *worker {
		if err := serve.WorkerMain(os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	exe, err := os.Executable()
	if err != nil {
		log.Fatalf("stencilserve: cannot locate own binary for worker re-exec: %v", err)
	}
	srv, err := serve.New(serve.Config{
		Workers:        *workers,
		Start:          serve.ProcessWorkers(exe, nil, "-worker"),
		QuotaPerTenant: *quota,
		QueueDepth:     *queue,
		JobTimeout:     *timeout,
		CacheEntries:   *cache,
		DisableFanOut:  !*fanout,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	log.Printf("stencilserve listening on %s (%d workers, quota %d/tenant)", ln.Addr(), *workers, *quota)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("stencilserve: %v — draining", sig)
	case err := <-done:
		log.Fatalf("stencilserve: serve failed: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("stencilserve: http shutdown: %v", err)
	}
	srv.Close()
	fmt.Println("shutdown complete")
}
