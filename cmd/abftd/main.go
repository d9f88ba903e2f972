// Command abftd is the fault-tolerant ABFT compute daemon: every request
// runs an ABFT kernel through the §4 recovery ladder on a fresh simulated
// node configured with the request's ECC strategy, behind a bounded
// admission queue, an optional small-GEMM batching stage, and a
// concurrency limit.
//
// Endpoints:
//
//	POST /v1/gemm, /v1/cholesky, /v1/cg   JSON compute requests
//	POST /v1/block                        one block task of a sharded gateway job
//	GET  /healthz                         liveness + queue snapshot
//	GET  /debug/vars                      expvar counters (serve.*)
//	GET  /debug/pprof/...                 profiling
//
// Overload answers 429 (typed, immediate, Retry-After), queue-budget
// expiry 503 — never queue collapse. SIGINT/SIGTERM drain in-flight
// requests and exit 0.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coopabft/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abftd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8321", "listen address")
		concurrency  = flag.Int("max-concurrency", 2, "simultaneously executing batches")
		queueDepth   = flag.Int("queue-depth", 0, "admission queue depth (default 4x concurrency)")
		queueTimeout = flag.Duration("queue-timeout", 2*time.Second, "max time a request may wait queued")
		batchWindow  = flag.Duration("batch-window", 0, "how long to hold a small-GEMM batch open (0, the default, disables batching)")
		maxBatch     = flag.Int("max-batch", 8, "max requests per execution batch")
		maxN         = flag.Int("max-n", 192, "largest accepted gemm/cholesky dimension")
		maxJobN      = flag.Int("max-job-n", 2048, "largest accepted sharded-job dimension on /v1/block")
		blockConc    = flag.Int("block-concurrency", 0, "simultaneously executing block tasks (default max-concurrency)")
		parallelism  = flag.Int("parallelism", 1, "mat worker count per kernel (throughput comes from request concurrency)")
		drain        = flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
		byzLie       = flag.Float64("byzantine-lie", 0, "chaos fixture: fraction of integrity-tier requests this node answers with a well-formed wrong answer (0 disables)")
		byzSeed      = flag.Uint64("byzantine-seed", 0, "seed for the lying lottery (pure function of it and the request seed)")
		tenantRate   = flag.Float64("tenant-rate", 0, "per-tenant admission token rate in req/s (0 disables tenant quotas)")
		tenantBurst  = flag.Float64("tenant-burst", 0, "per-tenant token bucket capacity (default 2x tenant-rate)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := &serve.Metrics{}
	m.Publish()
	svc := serve.New(serve.Config{
		MaxConcurrency:   *concurrency,
		QueueDepth:       *queueDepth,
		QueueTimeout:     *queueTimeout,
		BatchWindow:      *batchWindow,
		MaxBatch:         *maxBatch,
		MaxN:             *maxN,
		MaxJobN:          *maxJobN,
		BlockConcurrency: *blockConc,
		Parallelism:      *parallelism,
		LieFraction:      *byzLie,
		LieSeed:          *byzSeed,
		TenantRate:       *tenantRate,
		TenantBurst:      *tenantBurst,
		Metrics:          m,
	})
	if *byzLie > 0 {
		log.Printf("abftd: BYZANTINE CHAOS FIXTURE ACTIVE: lying on %.0f%% of integrity-tier requests", *byzLie*100)
	}

	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(svc))
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)

	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("abftd: serving on http://%s (concurrency %d, queue %s)",
		ln.Addr(), *concurrency, *queueTimeout)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight handlers classify
	// their requests (the service is still live underneath them), then
	// close the service.
	log.Printf("abftd: signal received, draining (budget %s)", *drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	svc.Close()
	log.Printf("abftd: drained, exiting")
	return nil
}
