// Command abftgate is the cluster gateway in front of a pool of abftd
// workers: capability-aware rendezvous placement, bounded per-node
// outstanding windows, health probes, circuit breakers, and failover
// retries on connection failures and 503s — never on a delivered answer.
// The wire surface is identical to a single abftd node, so abftload (and
// any client) drives a cluster without changes.
//
// Endpoints:
//
//	POST /v1/gemm, /v1/cholesky, /v1/cg   forwarded compute requests
//	POST   /v1/jobs                       submit an async job (202 + status)
//	GET    /v1/jobs/{id}                  poll a job's status/result
//	DELETE /v1/jobs/{id}                  cancel a job
//	PUT  /v1/jobs/{id}/checkpoint         worker checkpoint upload (long jobs)
//	GET  /v1/events                       cluster-wide NDJSON error-bus stream
//	GET  /healthz                         gateway liveness + per-node status
//	POST /admin/drain?node=ID             take a node out of placement
//	POST /admin/rejoin?node=ID            return a drained node to placement
//	GET  /debug/vars                      expvar counters (cluster.*)
//	GET  /debug/pprof/...                 profiling
//
// GEMM jobs at or above -shard-threshold are split into a 2D grid of block
// tasks with dedicated checksum-block tasks on distinct nodes; a lost
// worker's blocks are reconstructed algebraically from the survivors, never
// recomputed. Smaller jobs pass through the sync forwarding path.
//
// CG jobs ride the long path: the worker streams a checkpoint back to the
// gateway every -checkpoint-every steps, and when the worker dies mid-solve
// the gateway reschedules the job on a healthy capable node, ships the last
// checkpoint, and the solve resumes from that step — not from zero. Workers
// stream to the address the listener bound; set -self-url when they reach
// the gateway at any other.
//
// Nodes are given as a comma-separated list of base URLs, each optionally
// restricted to an ECC-capability set:
//
//	abftgate -nodes "http://127.0.0.1:8321,http://127.0.0.1:8322=W_CK|P_CK+P_SD"
//
// A node without a capability suffix advertises all six strategies.
// SIGINT/SIGTERM drain in-flight requests and exit 0.
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
	"strings"
	"syscall"
	"time"

	"coopabft/internal/cluster"
	"coopabft/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "abftgate:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr            = flag.String("addr", "127.0.0.1:8320", "listen address")
		nodes           = flag.String("nodes", "", "comma-separated node base URLs, each optionally url=CAP|CAP (required)")
		window          = flag.Int("window", 8, "outstanding-request window per node")
		retries         = flag.Int("retries", 2, "failover attempts after a failed placement")
		retryBackoff    = flag.Duration("retry-backoff", 5*time.Millisecond, "base jittered delay before a failover retry")
		probeInterval   = flag.Duration("probe-interval", 250*time.Millisecond, "health-probe period (<0 disables)")
		probeTimeout    = flag.Duration("probe-timeout", time.Second, "per-probe budget")
		breakerFailures = flag.Int("breaker-failures", 3, "consecutive failures that open a node's breaker")
		breakerCooldown = flag.Duration("breaker-cooldown", time.Second, "open-breaker cooldown before the next trial")
		seed            = flag.Uint64("seed", 1, "retry-jitter seed")
		drain           = flag.Duration("drain", 10*time.Second, "graceful shutdown budget")
		shardThreshold  = flag.Int("shard-threshold", 256, "GEMM jobs with n >= this are sharded into block tasks")
		shardBlock      = flag.Int("shard-block", 128, "target block extent when choosing the shard grid")
		maxJobN         = flag.Int("max-job-n", 2048, "largest admitted job dimension")
		maxJobs         = flag.Int("max-jobs", 128, "job records held before submissions are shed")
		jobRetention    = flag.Duration("job-retention", 10*time.Minute, "how long terminal job records stay pollable")
		selfURL         = flag.String("self-url", "", "externally reachable base URL of this gateway; workers stream long-job checkpoints back to it (default: the bound listen address)")
		checkpointEvery = flag.Int("checkpoint-every", 8, "steps between long-job checkpoint uploads")
		maxMigrations   = flag.Int("max-migrations", 3, "long-job reschedules before the job fails")
		voteReplicas    = flag.Int("vote-replicas", 3, "default replica count R for integrity=vote|verify-vote requests")
		suspectTrip     = flag.Int("suspect-trip", 3, "lost vote elections that open a node's breaker")
		suspectDecay    = flag.Int("suspect-decay", 0, "honest deliveries that forgive one accumulated suspect (0 = default 16, <0 disables)")
		tenantRate      = flag.Float64("tenant-rate", 0, "per-tenant admission token rate in req/s at the gateway door (0 disables)")
		tenantBurst     = flag.Float64("tenant-burst", 0, "per-tenant token bucket capacity (default 2x tenant-rate)")
	)
	flag.Parse()

	nodeCfgs, err := parseNodes(*nodes)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	m := &cluster.Metrics{}
	m.Publish()
	g, err := cluster.New(cluster.Config{
		Nodes:             nodeCfgs,
		Window:            *window,
		Retries:           *retries,
		RetryBackoff:      *retryBackoff,
		ProbeInterval:     *probeInterval,
		ProbeTimeout:      *probeTimeout,
		BreakerFailures:   *breakerFailures,
		BreakerCooldown:   *breakerCooldown,
		Seed:              *seed,
		Metrics:           m,
		ShardThreshold:    *shardThreshold,
		ShardBlock:        *shardBlock,
		MaxJobN:           *maxJobN,
		MaxJobs:           *maxJobs,
		JobRetention:      *jobRetention,
		CheckpointEvery:   *checkpointEvery,
		MaxMigrations:     *maxMigrations,
		VoteReplicas:      *voteReplicas,
		SuspectTrip:       *suspectTrip,
		SuspectDecayEvery: *suspectDecay,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		SelfURL:           *selfURL,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		g.Close()
		return err
	}
	log.Printf("abftgate: serving on http://%s (%d nodes, window %d, retries %d)",
		ln.Addr(), len(nodeCfgs), *window, *retries)
	return serveGateway(ctx, g, ln, *drain)
}

// serveGateway serves g on ln until ctx is done, then drains for at most
// drain and closes g. A gateway without a self URL gets the one address
// that is known to be listening: ln's own, which is not the -addr text
// when that names port 0 or no host.
func serveGateway(ctx context.Context, g *cluster.Gateway, ln net.Listener, drain time.Duration) error {
	defer g.Close()
	if g.SelfURL() == "" {
		g.SetSelfURL("http://" + ln.Addr().String())
	}

	mux := http.NewServeMux()
	mux.Handle("/", cluster.NewHandler(g))
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
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight forwards classify,
	// then stop the prober.
	log.Printf("abftgate: signal received, draining (budget %s)", drain)
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	log.Printf("abftgate: drained, exiting")
	return nil
}

// parseNodes reads the -nodes spec: "url[=CAP|CAP...],url,...". The
// capability suffix uses the paper's strategy labels; omitting it
// advertises all six.
func parseNodes(spec string) ([]cluster.NodeConfig, error) {
	var out []cluster.NodeConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		url, caps, hasCaps := strings.Cut(part, "=")
		nc := cluster.NodeConfig{BaseURL: url}
		if hasCaps {
			for _, label := range strings.Split(caps, "|") {
				s, err := core.ParseStrategy(strings.TrimSpace(label))
				if err != nil {
					return nil, fmt.Errorf("node %s: %w", url, err)
				}
				nc.Strategies = append(nc.Strategies, s)
			}
		}
		out = append(out, nc)
	}
	if len(out) == 0 {
		return nil, errors.New("no nodes given (-nodes url,url,...)")
	}
	return out, nil
}
