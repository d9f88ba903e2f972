// Package cluster is the node-level analogue of the paper's cooperative
// placement. A gateway fronts a pool of abftd workers; each node
// advertises the ECC strategies it can host — the cluster-scale version of
// per-page-frame ECC regions, where software declares which ranges may run
// relaxed — and placement routes every request to a compatible node via
// rendezvous hashing on (kernel, size-class), under a bounded per-node
// outstanding window. Robustness stays hidden behind the hot path the way
// §4 hides recovery behind ABFT: health probes and circuit breakers take
// sick nodes out of rotation, connection failures and 503s fail over to
// the next-ranked replica with jittered backoff, and a delivered
// classification is never re-executed — retries cannot manufacture a wrong
// answer, because only undelivered requests are ever retried and every
// delivered answer is oracle-gated by the node's ladder.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
	"coopabft/internal/serve/qos"
)

// ErrUnknownNode reports an admin operation against an ID the gateway does
// not manage. The gateway's request errors (serve.ErrNoNodes,
// ErrUnavailable, ErrNoQuorum) live with the wire contract in serve.
var ErrUnknownNode = errors.New("cluster: unknown node")

// NodeConfig describes one backend worker.
type NodeConfig struct {
	// ID names the node in metrics, responses, and admin calls; defaults
	// to BaseURL without its scheme.
	ID string
	// BaseURL is the node's root, e.g. http://127.0.0.1:8321; its scheme
	// must be http.
	BaseURL string
	// Strategies is the node's ECC-capability set: the strategies whose
	// requests it accepts. Empty means all six — a node whose memory
	// controller can program any per-range configuration.
	Strategies []core.Strategy
}

// Config sizes the gateway. The zero value (plus at least one node) is
// usable: defaults are applied by New. No field configures HTTP: the gateway
// owns its node hops (hop.go) and its transport for the GET streams, and
// Window sizes each node's pool of idle connections.
type Config struct {
	Nodes []NodeConfig

	// Window bounds outstanding requests per node (default 8); a full
	// window spills the placement to the next-ranked replica.
	Window int
	// Retries is how many additional replicas a request may try after a
	// connection failure, 503, or shed (default 2).
	Retries int
	// RetryBackoff is the base jittered delay before a failover retry
	// (default 5ms; grows exponentially per attempt).
	RetryBackoff time.Duration

	// ProbeInterval is the health-probe period (default 250ms; < 0
	// disables probing, leaving nodes optimistically healthy).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration

	// BreakerFailures is the consecutive connection/503 failures that
	// open a node's breaker (default 3).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker parks a node before the
	// next trial (default 1s).
	BreakerCooldown time.Duration

	// VoteReplicas is the default replica count R for integrity-tier
	// requests that do not specify one (default 3: tolerates one lying or
	// lost replica).
	VoteReplicas int
	// SuspectTrip is the cumulative minority-vote count that opens a
	// node's breaker (default 3). Suspect tallies do not reset on honest
	// deliveries — see breaker.onSuspect.
	SuspectTrip int
	// SuspectDecayEvery forgives one accumulated suspect per this many
	// consecutive honest deliveries (default 16; <0 disables decay), so a
	// rare honest minority loss cannot build into a quarantine over weeks
	// of clean traffic while a steady liar still trips.
	SuspectDecayEvery int

	// TenantRate/TenantBurst enable per-tenant token-bucket quotas at the
	// gateway door (requests/second and bucket depth; 0 disables). The
	// gateway checks the bucket before placement, so a flooding tenant is
	// rejected with a typed 429 and Retry-After instead of consuming node
	// windows.
	TenantRate  float64
	TenantBurst float64

	// ShardThreshold is the GEMM size at which a job submitted via the
	// jobs API splits into checksum-block tasks across the pool instead of
	// forwarding whole (default 256). Requires >= 3 eligible workers;
	// smaller pools pass through.
	ShardThreshold int
	// MaxJobN caps jobs-API problem sizes — and, as the gateway's shared
	// admission bound, the largest n the sync path will forward (default
	// 2048).
	MaxJobN int
	// MaxFaults caps per-request fault injection at gateway admission,
	// mirroring the node-side default (default 8).
	MaxFaults int
	// ShardBlock is the target block edge when choosing the grid: an n×n
	// job aims for ceil(n/ShardBlock) block rows/columns, clamped to
	// [2, min(8, workers-1)] (default 128).
	ShardBlock int
	// JobRetention is how long a terminal job stays pollable before
	// eviction (default 10m).
	JobRetention time.Duration
	// MaxJobs caps tracked job records; at capacity the oldest terminal
	// record is evicted, and if every record is live, submission sheds
	// (default 128).
	MaxJobs int

	// SelfURL is the gateway's own externally reachable base URL (e.g.
	// http://127.0.0.1:8330). Long-job workers stream checkpoints back to
	// SelfURL + /v1/jobs/{id}/checkpoint; empty disables checkpoint
	// streaming (long jobs still run, but a dead worker forces a cold
	// restart instead of a step-granular migration). The daemon may also
	// set it after binding its listener, via SetSelfURL.
	SelfURL string
	// CheckpointEvery is the step interval workers are asked to stream
	// checkpoints at for long jobs (default 8).
	CheckpointEvery int
	// MaxMigrations bounds how many times one long job may be rescheduled
	// onto a new node after worker deaths (default 3).
	MaxMigrations int

	// Seed feeds the deterministic retry jitter.
	Seed uint64
	// Metrics receives counters; nil allocates a private set.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.VoteReplicas <= 0 {
		c.VoteReplicas = 3
	}
	if c.VoteReplicas > serve.MaxReplicas {
		c.VoteReplicas = serve.MaxReplicas
	}
	if c.SuspectTrip <= 0 {
		c.SuspectTrip = 3
	}
	if c.SuspectDecayEvery == 0 {
		c.SuspectDecayEvery = 16
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = 2 * c.TenantRate
	}
	if c.ShardThreshold <= 0 {
		c.ShardThreshold = 256
	}
	if c.MaxJobN <= 0 {
		c.MaxJobN = 2048
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 8
	}
	if c.ShardBlock <= 0 {
		c.ShardBlock = 128
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 10 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 128
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 3
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{}
	}
	return c
}

// node is one backend's runtime state.
type node struct {
	id   string
	base string
	hop  *hop                   // carries every POST to the node
	caps map[core.Strategy]bool // nil = all strategies
	hash uint64

	window   chan struct{}
	br       *breaker
	draining atomic.Bool
	m        *NodeMetrics // its Healthy gauge is the node's health: probes and the event stream set it
}

func (nd *node) supports(s core.Strategy) bool { return nd.caps == nil || nd.caps[s] }

// inRotation reports whether placement may count on nd at all: not drained,
// and healthy by the last probe or event stream.
func (nd *node) inRotation() bool { return !nd.draining.Load() && nd.m.Healthy.Value() == 1 }

// admits reports whether nd may take a request now: in rotation, and its
// breaker allows one (a breaker refusal counts in BreakerSkips). Admission
// to an election counts inRotation nodes; every dispatch asks this.
func (nd *node) admits(now time.Time) bool {
	if !nd.inRotation() {
		return false
	}
	if !nd.br.allow(now) {
		nd.m.BreakerSkips.Add(1)
		return false
	}
	return true
}

func (nd *node) tryAcquire() bool {
	select {
	case nd.window <- struct{}{}:
		nd.m.Inflight.Add(1)
		return true
	default:
		return false
	}
}

func (nd *node) release() {
	<-nd.window
	nd.m.Inflight.Add(-1)
}

// acquire blocks until a window slot frees or ctx ends. The voting path
// uses this instead of tryAcquire: a vote needs R specific distinct
// nodes, so spilling to the next-ranked replica on a momentarily full
// window would silently shrink the electorate.
func (nd *node) acquire(ctx context.Context) error {
	select {
	case nd.window <- struct{}{}:
		nd.m.Inflight.Add(1)
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Gateway is the cluster front-end: capability-filtered rendezvous
// placement, bounded per-node windows, breakers, probes, failover.
type Gateway struct {
	cfg   Config
	m     *Metrics
	nodes []*node
	byID  map[string]*node
	quota *qos.Quota // nil when TenantRate is 0 (quotas off)

	quit      chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once

	// Async jobs (the /v1/jobs surface).
	jobMu     sync.Mutex
	jobs      map[string]*jobRecord
	jobSeq    uint64
	jobCtx    context.Context
	jobCancel context.CancelFunc
	jobWG     sync.WaitGroup

	// long carries the two GET streams: event watches (open indefinitely)
	// and probes (bounded by ProbeTimeout). Every POST to a node goes
	// through the node's hop.
	long *http.Transport

	// Error bus and long-job plumbing. selfURL is atomic so the daemon can
	// set it after binding its listener.
	bus     *serve.Bus
	selfURL atomic.Value // string
}

// forwardTimeout bounds how long a node may take to answer a windowed
// exchange with its reply's headers.
const forwardTimeout = 2 * time.Minute

// New builds a gateway and starts its health prober.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	g := &Gateway{
		cfg:  cfg,
		m:    cfg.Metrics,
		byID: make(map[string]*node, len(cfg.Nodes)),
		quit: make(chan struct{}),
		jobs: make(map[string]*jobRecord),
		bus:  serve.NewBus(),
		long: &http.Transport{
			Proxy:              http.ProxyFromEnvironment,
			DialContext:        (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
			IdleConnTimeout:    90 * time.Second,
			DisableCompression: true,
		},
	}
	if cfg.TenantRate > 0 {
		g.quota = qos.NewQuota(qos.Config{Rate: cfg.TenantRate, Burst: cfg.TenantBurst})
	}
	g.selfURL.Store(strings.TrimRight(cfg.SelfURL, "/"))
	g.m.bus = g.bus
	g.jobCtx, g.jobCancel = context.WithCancel(context.Background())
	for _, nc := range cfg.Nodes {
		base := strings.TrimRight(nc.BaseURL, "/")
		if base == "" {
			return nil, errors.New("cluster: node with empty BaseURL")
		}
		u, err := url.Parse(base)
		if err != nil {
			return nil, fmt.Errorf("cluster: node BaseURL: %w", err)
		}
		h, err := newHop(u, cfg.Window)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %w", err)
		}
		id := nc.ID
		if id == "" {
			id = strings.TrimPrefix(base, "http://")
		}
		if _, dup := g.byID[id]; dup {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", id)
		}
		nd := &node{
			id:     id,
			base:   base,
			hop:    h,
			hash:   fnv64a(id),
			window: make(chan struct{}, cfg.Window),
			m:      g.m.Node(id),
		}
		nd.br = newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, cfg.SuspectTrip, cfg.SuspectDecayEvery, &nd.m.BreakerTrips)
		if len(nc.Strategies) > 0 {
			nd.caps = make(map[core.Strategy]bool, len(nc.Strategies))
			for _, s := range nc.Strategies {
				nd.caps[s] = true
			}
		}
		nd.m.Healthy.Set(1) // optimistic until the first probe
		g.nodes = append(g.nodes, nd)
		g.byID[id] = nd
	}
	// Event watchers ride the same switch as the prober: ProbeInterval < 0
	// means "no background node traffic" (deterministic tests), and the
	// push-on-fault stream is a complement to probing, not a replacement.
	if cfg.ProbeInterval > 0 {
		for _, nd := range g.nodes {
			g.probeWG.Add(2)
			go g.probeLoop(nd)
			go g.watchLoop(nd)
		}
	}
	return g, nil
}

// Metrics returns the gateway's counters.
func (g *Gateway) Metrics() *Metrics { return g.m }

// Bus returns the gateway's error bus: every node's fault events, relayed
// with Node stamped, plus the gateway's own node_death publications.
func (g *Gateway) Bus() *serve.Bus { return g.bus }

// SetSelfURL records the gateway's externally reachable base URL after
// the daemon binds its listener, enabling checkpoint streaming for long
// jobs submitted from then on.
func (g *Gateway) SetSelfURL(u string) { g.selfURL.Store(strings.TrimRight(u, "/")) }

// SelfURL returns the currently configured self URL ("" if unset).
func (g *Gateway) SelfURL() string { u, _ := g.selfURL.Load().(string); return u }

// Close stops the health prober and cancels running jobs, waiting for
// their coordinators to unwind. In-flight synchronous forwards are
// unaffected — the HTTP server draining above the gateway bounds them.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.quit)
		g.jobCancel()
	})
	g.probeWG.Wait()
	g.jobWG.Wait()
	for _, nd := range g.nodes {
		nd.hop.close()
	}
	g.long.CloseIdleConnections()
}

// forwardClass discriminates one placement attempt's result.
type forwardClass int

const (
	fcDelivered  forwardClass = iota // classified answer: final, never retried
	fcBadRequest                     // node-validated 400: final
	fcShed                           // 429: node alive but full — try elsewhere
	fcFailed                         // connection failure or 503 — breaker fault
)

// Do places one request on a compatible node and returns its classified
// answer, failing over across replicas on connection failures, 503s, and
// sheds. It implements the same Doer contract as serve.Service.Do, so the
// load generator drives a cluster exactly like a single daemon.
func (g *Gateway) Do(ctx context.Context, req serve.Request) (serve.Response, error) {
	g.m.Requests.Add(1)
	// One admission entrypoint for the whole stack: the gateway validates
	// with the same serve.ParseRequest the nodes use (against its own,
	// looser limits), so a 400 means the same thing at every layer and a
	// malformed request never ties up a placement.
	p, err := serve.ParseRequest(g.jobLimits(), req)
	if err != nil {
		g.m.BadRequests.Add(1)
		return serve.Response{}, err
	}
	// Route construction refuses non-wire kernel values rather than ever
	// splicing the Kernel(%d) diagnostic fallback into a URL.
	wire, err := p.Kernel.Wire()
	if err != nil {
		g.m.BadRequests.Add(1)
		return serve.Response{}, err
	}
	// Per-tenant quota at the cluster door: a flooding tenant is turned
	// away before it consumes node windows or placement work. The nodes'
	// own schedulers still apply their quotas/fair-queueing underneath.
	if g.quota != nil {
		if qerr := g.quota.Take(p.Tenant); qerr != nil {
			var qe *qos.QuotaError
			errors.As(qerr, &qe)
			g.m.Throttled.Add(1)
			return serve.Response{}, &serve.ThrottleError{Tenant: p.Tenant, RetryAfter: qe.RetryAfter}
		}
	}

	ranked := g.placement(p)
	if len(ranked) == 0 {
		g.m.NoNodes.Add(1)
		return serve.Response{}, fmt.Errorf("%w: %s", serve.ErrNoNodes, p.Strategy)
	}

	// Every forward of this request sends these bytes, encoded once from a
	// recycled copy of req (encoding req itself would move it to the heap).
	buf := serve.GetBody()
	defer serve.PutBody(buf)
	rec := getRecord[serve.Request]()
	*rec = req
	err = buf.Encode(rec)
	putRecord(rec)
	if err != nil {
		g.m.BadRequests.Add(1)
		return serve.Response{}, fmt.Errorf("%w: %w", serve.ErrBadRequest, err)
	}
	body := buf.Bytes()

	// Integrity-tier requests leave the single-placement path here: they
	// are elections over distinct nodes, not failover chains.
	if p.Integrity != serve.IntegrityNone {
		return g.doIntegrity(ctx, p, wire, body, ranked)
	}

	forwards := 0
	sawShed := false
	needBackoff := false
	var lastErr error
	for _, nd := range ranked {
		if forwards > g.cfg.Retries {
			break
		}
		if !nd.admits(time.Now()) {
			continue
		}
		if needBackoff {
			needBackoff = false
			if err := sleepCtx(ctx, g.backoff(req.Seed, forwards)); err != nil {
				return serve.Response{}, fmt.Errorf("%w: %w", serve.ErrUnavailable, err)
			}
		}
		if !nd.tryAcquire() {
			nd.m.WindowSkips.Add(1)
			sawShed = true
			continue
		}
		if forwards > 0 {
			g.m.Retries.Add(1)
		}
		resp, class, err := postJSON[serve.Response](ctx, nd, "/v1/"+wire, body)
		nd.release()
		forwards++
		switch class {
		case fcDelivered:
			g.delivered(resp.Outcome)
			resp.Node = nd.id
			resp.GatewayRetries = forwards - 1
			return resp, nil
		case fcBadRequest:
			g.m.BadRequests.Add(1)
			return serve.Response{}, err
		case fcShed:
			sawShed = true
			lastErr = err
		case fcFailed:
			lastErr = err
			needBackoff = true
			if ctx.Err() != nil {
				// The node's own error is detail (%v): a 503's kind
				// must not outrank this one on the wire.
				g.m.Unavailable.Add(1)
				return serve.Response{}, fmt.Errorf("%w: %v", serve.ErrUnavailable, lastErr)
			}
		}
	}

	if sawShed {
		g.m.Overloaded.Add(1)
		if lastErr == nil {
			lastErr = errors.New("every eligible replica's window is full")
		}
		return serve.Response{}, fmt.Errorf("%w: %v", serve.ErrOverloaded, lastErr)
	}
	g.m.Unavailable.Add(1)
	if lastErr == nil {
		lastErr = errors.New("every eligible replica is parked (breaker open or unhealthy)")
	}
	return serve.Response{}, fmt.Errorf("%w after %d attempts: %v", serve.ErrUnavailable, forwards, lastErr)
}

// placement lists the nodes capable of p's strategy in p's rendezvous order.
func (g *Gateway) placement(p serve.Parsed) []*node {
	capable := make([]*node, 0, len(g.nodes))
	for _, nd := range g.nodes {
		if nd.supports(p.Strategy) {
			capable = append(capable, nd)
		}
	}
	return rank(capable, placementKey(p.Kernel, sizeClass(p.Size())))
}

// delivered counts one classified answer the gateway hands a client or a
// job, by outcome. A vote counts its election once, not its ballots.
func (g *Gateway) delivered(outcome string) {
	g.m.Delivered.Add(1)
	switch outcome {
	case "corrected":
		g.m.Corrected.Add(1)
	case "restarted":
		g.m.Restarted.Add(1)
	case "aborted":
		g.m.Aborted.Add(1)
	}
}

// postJSON is the gateway's one way of sending work to a node: POST body to
// path on nd, classify the reply, and settle the node's books for it. Only
// fcDelivered carries a decoded R, decoded into a recycled record (see
// records) and copied out; fcBadRequest is the node's own 400
// (final), fcShed its 429 (alive but full — try elsewhere), fcFailed a failed
// exchange, an undecodable body, or a 503 — a breaker fault, charged to the
// node's TransportErrors/Failed503. An exchange that fails once ctx has ended
// is the caller giving up, not the node failing: it books nothing on the
// node, and its error wraps ctx's. The class goes by status alone; the error
// of a reply that is not a 200 is the one serve.ReadError reads from it.
// What the caller does next is its dispatch policy; the books are done.
//
// Every route but the long job's is windowed: bounded by the hop's header
// timeout and resent once when a pooled connection turns out closed. A long
// job's POST waits as long as its solve, and is never resent.
func postJSON[R any](ctx context.Context, nd *node, path string, body []byte) (res R, class forwardClass, err error) {
	nd.m.Forwarded.Add(1)
	rep, err := nd.hop.post(ctx, path, body, path != longJobRoute)
	if err != nil {
		if ctx.Err() != nil {
			return res, fcFailed, fmt.Errorf("node %s: %w (%v)", nd.id, ctx.Err(), err)
		}
		nd.m.TransportErrors.Add(1)
		nd.settle(fcFailed, false)
		return res, fcFailed, fmt.Errorf("node %s: %w", nd.id, err)
	}
	defer serve.PutBody(rep.body) // res and the errors below hold copies
	payload := rep.body.Bytes()

	switch rep.status {
	case http.StatusOK:
		rec := getRecord[R]()
		err := json.Unmarshal(payload, rec)
		res = *rec
		putRecord(rec)
		if err != nil {
			nd.m.TransportErrors.Add(1)
			nd.settle(fcFailed, false)
			return res, fcFailed, fmt.Errorf("node %s: bad %s response body: %w", nd.id, path, err)
		}
		nd.settle(fcDelivered, aborted(&res))
		return res, fcDelivered, nil
	case http.StatusBadRequest:
		class = fcBadRequest
	case http.StatusTooManyRequests:
		class = fcShed
	default: // 503 and anything else unexpected is a node fault
		nd.m.Failed503.Add(1)
		class = fcFailed
	}
	nd.settle(class, false)
	var h http.Header
	if rep.retryAfter != "" {
		h = http.Header{"Retry-After": {rep.retryAfter}}
	}
	return res, class, fmt.Errorf("node %s: %w", nd.id, serve.ReadError(rep.status, h, payload))
}

// records keeps the structs the gateway encodes a forwarded request from
// and decodes node replies into, one free list per type, so that neither is
// a fresh struct that escapes to the heap: encoding/json takes its value as
// an interface. A record goes back zeroed once its value is copied in or
// out; each list keeps as many as the forwards in flight at once, up to
// maxIdleRecords.
var records = [...]any{
	mat.NewFreeList[*serve.Request](maxIdleRecords),
	mat.NewFreeList[*serve.Response](maxIdleRecords),
	mat.NewFreeList[*serve.VerifyResult](maxIdleRecords),
	mat.NewFreeList[*serve.BlockResult](maxIdleRecords),
	mat.NewFreeList[*serve.LongResult](maxIdleRecords),
}

const maxIdleRecords = 64

// recordList returns the free list of T's records.
func recordList[T any]() *mat.FreeList[*T] {
	for _, l := range records {
		if tl, ok := l.(*mat.FreeList[*T]); ok {
			return tl
		}
	}
	panic(fmt.Sprintf("cluster: no records kept for %T", *new(T)))
}

// getRecord returns a zero T from its list, or a new one.
func getRecord[T any]() *T {
	if rec, ok := recordList[T]().Get(); ok {
		return rec
	}
	return new(T)
}

// putRecord zeroes rec and hands it back to its list.
func putRecord[T any](rec *T) {
	*rec = *new(T)
	recordList[T]().Put(rec, 1)
}

// longJobRoute is the one route whose POST is not windowed.
const longJobRoute = "/v1/longjob"

// settle books one classified exchange on its node: a delivery feeds the
// breaker's outcome window and the node's delivered count, a shed its
// rejected_429, a fault the breaker's failure count. A 400 is the request's
// fault, not the node's, and touches neither.
func (nd *node) settle(class forwardClass, aborted bool) {
	switch class {
	case fcDelivered:
		nd.br.onDelivered(time.Now(), aborted)
		nd.m.Delivered.Add(1)
	case fcShed:
		nd.m.Rejected429.Add(1)
	case fcFailed:
		nd.br.onFailure(time.Now())
	}
}

// aborted reports whether a decoded reply classifies its work aborted: the
// outcome the breaker's rate window watches. Only kernel answers and long-job
// results carry an outcome.
func aborted(res any) bool {
	switch r := res.(type) {
	case *serve.Response:
		return r.Outcome == "aborted"
	case *serve.LongResult:
		return r.Outcome == "aborted"
	}
	return false
}

// backoff derives the jittered failover delay from the request seed and
// attempt index — exponential growth, deterministic per (gateway seed,
// request seed, attempt) so a replayed sweep behaves identically.
func (g *Gateway) backoff(seed uint64, attempt int) time.Duration {
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	if shift < 0 {
		shift = 0
	}
	d := g.cfg.RetryBackoff << shift
	j := campaign.Splitmix64(g.cfg.Seed ^ seed ^ (uint64(attempt)+1)*0x9E3779B97F4A7C15)
	frac := 0.5 + float64(j%1024)/1024.0 // [0.5, 1.5)
	return time.Duration(float64(d) * frac)
}

// Drain takes a node out of placement without touching its in-flight
// requests: running work finishes, new work goes elsewhere.
func (g *Gateway) Drain(id string) error {
	nd, ok := g.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nd.draining.Store(true)
	return nil
}

// Rejoin returns a drained node to placement.
func (g *Gateway) Rejoin(id string) error {
	nd, ok := g.byID[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	nd.draining.Store(false)
	return nil
}

// NodeStatus is one node's live state, as reported by /healthz.
type NodeStatus struct {
	ID         string `json:"id"`
	Healthy    bool   `json:"healthy"`
	Draining   bool   `json:"draining"`
	Breaker    string `json:"breaker"`
	Inflight   int64  `json:"inflight"`
	QueueDepth int64  `json:"queue_depth"` // node-reported, from the last probe
	// Suspects counts vote elections this node lost (its well-formed
	// answer was outvoted by the replica majority).
	Suspects int64 `json:"suspects"`
}

// Status snapshots every node in configuration order.
func (g *Gateway) Status() []NodeStatus {
	out := make([]NodeStatus, 0, len(g.nodes))
	for _, nd := range g.nodes {
		out = append(out, NodeStatus{
			ID:         nd.id,
			Healthy:    nd.m.Healthy.Value() == 1,
			Draining:   nd.draining.Load(),
			Breaker:    nd.br.snapshot().String(),
			Inflight:   nd.m.Inflight.Value(),
			QueueDepth: nd.m.QueueDepth.Value(),
			Suspects:   nd.m.Suspects.Value(),
		})
	}
	return out
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}
