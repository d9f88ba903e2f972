// Package serve puts the §4 recovery ladder behind a request path: a
// bounded fair admission queue with typed overload rejections, execution on
// a bounded number of concurrency slots, an optional small-GEMM batching
// stage, and per-request ECC strategy selection mapped through
// core.Strategy — the serving analogue of the paper's malloc_ecc flag. The
// service starts no goroutine of its own: each request runs on the goroutine
// that called Do (an HTTP handler's, on a worker). A caller whose job is
// queued waits for a slot; the caller that wins one runs the fair-queue
// head, which may be another caller's job, and delivers it, until its own
// job has been taken. Every admitted request executes
// through recovery.Coordinator, so a fault-injected request degrades per
// the Case 1–4 ladder (silent hardware correction → notified ABFT repair →
// bounded checkpoint restart) instead of ever returning a wrong answer:
// success is oracle-gated, and the only terminal states are the ladder's
// Corrected/Restarted/Aborted taxonomy plus the admission layer's typed
// rejections.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
	"coopabft/internal/serve/qos"
)

// Typed admission errors. The HTTP layer maps them onto status codes
// (429/503, see errorKinds); in-process callers branch with errors.Is.
var (
	// ErrOverloaded means admission refused the request under load. It is
	// the umbrella both QoS rejections satisfy via errors.Is — callers that
	// predate multi-tenancy keep branching on it unchanged; callers that
	// care use errors.As with ThrottleError/ShedError.
	ErrOverloaded = errors.New("serve: overloaded (admission queue full)")
	// ErrQueueTimeout means the request was admitted but its budget
	// (request deadline or the service's QueueTimeout) expired before a
	// worker picked it up.
	ErrQueueTimeout = errors.New("serve: timed out waiting in queue")
	// ErrClosed means the service is shutting down.
	ErrClosed = errors.New("serve: service closed")
)

// ThrottleError reports a tenant over its own token-bucket quota: the
// tenant's excess was rejected at the door, other tenants are unaffected.
// The HTTP layer maps it to 429 kind "throttled" with a computed
// Retry-After. Satisfies errors.Is(err, ErrOverloaded), and
// errors.Is(err, &ThrottleError{}) asks whether err is a throttle at all.
type ThrottleError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("serve: tenant %q over quota, retry after %s", e.Tenant, e.RetryAfter)
}

func (e *ThrottleError) Is(target error) bool {
	_, throttle := target.(*ThrottleError)
	return throttle || target == ErrOverloaded
}

// ShedError reports a request sacrificed to overload: a speculative arrival
// refused at a full queue, or a queued speculative request evicted to make
// room for a protected arrival. The HTTP layer maps it to 429 kind "shed".
// Satisfies errors.Is(err, ErrOverloaded), and errors.Is(err, &ShedError{})
// asks whether err is a shed at all.
type ShedError struct {
	Tenant  string
	Evicted bool // true when evicted from the queue, false when refused at the door
}

func (e *ShedError) Error() string {
	if e.Evicted {
		return fmt.Sprintf("serve: tenant %q speculative request evicted for protected work", e.Tenant)
	}
	return fmt.Sprintf("serve: tenant %q speculative request shed (queue full)", e.Tenant)
}

func (e *ShedError) Is(target error) bool {
	_, shed := target.(*ShedError)
	return shed || target == ErrOverloaded
}

// maxRestarts is the per-request checkpoint-restart budget handed to the
// coordinator. For long jobs the budget is cumulative across migrations: a
// resumed task's snapshot carries the restarts already consumed.
const maxRestarts = 3

// Config sizes the service. The zero value is usable: defaults are applied
// by New.
type Config struct {
	// MaxConcurrency is the number of concurrency slots: batches executing
	// at once, each on the goroutine of the caller that won its slot
	// (default 2).
	MaxConcurrency int
	// QueueDepth bounds admitted-but-not-running requests; a full queue
	// rejects with ErrOverloaded (default 4×MaxConcurrency).
	QueueDepth int
	// QueueTimeout bounds time spent queued regardless of the request
	// deadline (default 2s; <0 disables).
	QueueTimeout time.Duration
	// BatchWindow is how long the slot holder that pops a GEMM request
	// keeps its batch open for compatible followers, on its slot (default 0:
	// batching off).
	BatchWindow time.Duration
	// MaxBatch caps requests coalesced into one batch (default 8).
	MaxBatch int
	// MaxN caps gemm/cholesky problem sizes (default 192); the CG grid
	// area is capped at MaxN²/16.
	MaxN int
	// MaxFaults caps per-request fault injection (default 8).
	MaxFaults int
	// MaxJobN caps the problem size of sharded-job block tasks, which may
	// far exceed the interactive MaxN (default 2048).
	MaxJobN int
	// BlockConcurrency bounds simultaneously executing block tasks on
	// their own semaphore, isolated from the interactive path (default
	// MaxConcurrency).
	BlockConcurrency int
	// CheckpointEvery is the default step interval between streamed
	// checkpoints for long tasks that do not specify one (default 8).
	CheckpointEvery int
	// Parallelism, when > 0, sets the process-global mat worker count at
	// New time. Serving throughput comes from request concurrency, so the
	// daemon defaults this to 1.
	Parallelism int
	// LieFraction is the Byzantine chaos fixture: the fraction of
	// integrity-tier requests on which this node lies — it computes the
	// honest answer, then corrupts the copy it signs (and ships, for
	// verify-vote), producing a well-formed wrong answer. The draw is a
	// pure function of (LieSeed, request seed), so a lying node lies
	// identically on replay. 0 (the default) disables lying; requests with
	// integrity=none are never affected because they carry no signature.
	LieFraction float64
	// LieSeed seeds the lying lottery (default 0).
	LieSeed uint64
	// TenantRate is the per-tenant token-bucket refill (requests/second).
	// 0 (the default) disables quotas: tenants contend only through fair
	// queueing and shedding.
	TenantRate float64
	// TenantBurst is the bucket depth per tenant (default: 2×TenantRate,
	// minimum 1, when TenantRate > 0).
	TenantBurst float64
	// Metrics receives counters; nil allocates a private set.
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrency <= 0 {
		c.MaxConcurrency = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxConcurrency
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxN <= 0 {
		c.MaxN = 192
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 8
	}
	if c.MaxJobN <= 0 {
		c.MaxJobN = 2048
	}
	if c.BlockConcurrency <= 0 {
		c.BlockConcurrency = c.MaxConcurrency
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.TenantRate > 0 && c.TenantBurst <= 0 {
		c.TenantBurst = 2 * c.TenantRate
	}
	if c.Metrics == nil {
		c.Metrics = &Metrics{}
	}
	return c
}

// job states: a job is delivered exactly once, either by the slot holder
// that took it from the queue or the arrival that evicted it
// (queued→running→done), or by the abandoning waiter (queued→abandoned).
//
// Jobs are recycled on one rule: the waiter that received a job's result is
// the last to touch it — the deliverer is done with it once the result is in
// the channel, and the scheduler let go of it when it was popped or evicted
// — so that waiter, and only it, puts the job back on the service's job
// list (Service.receive). An abandoned job was never delivered and may still
// sit in the scheduler; it is left to the GC.
const (
	stateQueued int32 = iota
	stateRunning
	stateAbandoned
)

type result struct {
	resp Response
	err  error
}

type job struct {
	ctx   context.Context
	req   Parsed
	enq   time.Time
	state atomic.Int32
	done  chan result // buffered(1); receives exactly one result unless abandoned
}

// deliver hands the job's result to its waiter (no-op if abandoned).
func (j *job) deliver(r Response, err error) {
	j.done <- result{resp: r, err: err}
}

// Service is the fault-tolerant compute service: admission control and
// fair queueing in Do, and MaxConcurrency slots on which the callers of Do
// run the recovery ladder, their own requests and each other's (see work).
type Service struct {
	cfg Config
	m   *Metrics

	sched      *qos.Scheduler
	sem        chan struct{} // the concurrency slots; a send wins one
	quit       chan struct{}
	bus        *Bus
	ckptClient *http.Client

	// jobs keeps delivered jobs and their channels for the next requests
	// (see the job states). Every job is Put at weight 1: as many as can be
	// queued and executing at once.
	jobs *mat.FreeList[*job]

	// nodes keeps the functional nodes f64 requests and long tasks run on
	// (see execute) between them, through garbage collections. It starts
	// empty: the first requests build theirs. Every node is Put at weight 1,
	// so its budget is a count: one node per slot that can hold one,
	// MaxConcurrency concurrency slots and the long-task route's one.
	nodes *mat.FreeList[*node]

	// gemm32s keeps the f32 kernel objects between requests as nodes keeps
	// the f64 ladder's, by the same rule (see execute); one per concurrency
	// slot.
	gemm32s *mat.FreeList[*abft.GEMM32]

	// The side routes; verification is an offloaded O(n²) pass, much closer
	// to a block task than to an interactive ladder run, so it shares the
	// block route's slots.
	block, verify, long sideRoute

	closeOnce sync.Once
}

// New builds a service. It starts no goroutine: requests run on their
// callers'.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	if cfg.Parallelism > 0 {
		mat.SetParallelism(cfg.Parallelism)
	}
	s := &Service{
		cfg: cfg,
		m:   cfg.Metrics,
		sched: qos.New(qos.Config{
			Rate:     cfg.TenantRate,
			Burst:    cfg.TenantBurst,
			Capacity: cfg.QueueDepth,
		}),
		sem:        make(chan struct{}, cfg.MaxConcurrency),
		quit:       make(chan struct{}),
		bus:        NewBus(),
		ckptClient: &http.Client{Timeout: 10 * time.Second},
		jobs:       mat.NewFreeList[*job](cfg.QueueDepth + cfg.MaxConcurrency),
		nodes:      mat.NewFreeList[*node](cfg.MaxConcurrency + 1),
		gemm32s:    mat.NewFreeList[*abft.GEMM32](cfg.MaxConcurrency),
	}
	blockSem := make(chan struct{}, cfg.BlockConcurrency)
	s.block = sideRoute{"block", blockSem, &s.m.Block}
	s.verify = sideRoute{"verify", blockSem, &s.m.Verify}
	s.long = sideRoute{"long-job", make(chan struct{}, 1), &s.m.Long} // one solve at a time
	s.m.QueueCap.Set(int64(cfg.QueueDepth))
	s.m.bus = s.bus
	return s
}

// Metrics returns the service's counters.
func (s *Service) Metrics() *Metrics { return s.m }

// sideRoute is one task route beside the request path (/v1/block,
// /v1/verify, /v1/longjob): the semaphore its tasks wait on — their own, so
// a large sharded job or a multi-minute solve cannot starve interactive
// requests — the ledger they count into, and the name shed errors give the
// slot.
type sideRoute struct {
	slot string
	sem  chan struct{}
	m    *RouteMetrics
}

// reject counts a task whose parse failed and passes the error through.
func (rt *sideRoute) reject(err error) error {
	rt.m.Rejected.Add(1)
	return err
}

// acquire is the side routes' one admission path: apply the task's own
// timeout, then wait for a slot of rt within the queue budget. The taxonomy
// mirrors Do's — ErrQueueTimeout when no slot frees within the budget or
// the task's deadline (counted shed), ErrClosed at shutdown. On success the
// caller runs under the returned context and must call release.
func (s *Service) acquire(ctx context.Context, rt *sideRoute, timeoutMS int) (_ context.Context, release func(), err error) {
	cancel := func() {}
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
	}
	// QueueTimeout < 0 disables the queue budget: expired stays nil and
	// never fires (a timer armed with a negative duration is born expired).
	var expired <-chan time.Time
	if qt := s.cfg.QueueTimeout; qt > 0 {
		wait := time.NewTimer(qt)
		defer wait.Stop()
		expired = wait.C
	}
	select {
	case rt.sem <- struct{}{}:
		return ctx, func() { <-rt.sem; cancel() }, nil
	case <-expired:
		rt.m.Shed.Add(1)
		err = fmt.Errorf("%w: no %s slot within %s", ErrQueueTimeout, rt.slot, s.cfg.QueueTimeout)
	case <-ctx.Done():
		rt.m.Shed.Add(1)
		err = fmt.Errorf("%w: %w", ErrQueueTimeout, context.Cause(ctx))
	case <-s.quit:
		err = ErrClosed
	}
	cancel()
	return nil, nil, err
}

// Bus returns the service's error bus — the in-process fault-event stream
// that /v1/events exports and in-process embedders (the gateway, tests)
// subscribe to directly.
func (s *Service) Bus() *Bus { return s.bus }

// Close stops admission, fails queued-but-unstarted requests with
// ErrClosed (each waiter fails its own), and waits for running batches to
// finish by taking every concurrency slot, which it keeps. In-flight
// requests complete normally, so callers draining an HTTP server should
// Shutdown the server first, then Close the service.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		for range cap(s.sem) {
			s.sem <- struct{}{}
		}
	})
}

// Do admits, queues, and executes one request on the calling goroutine,
// blocking until it is classified or rejected. While its job is queued the
// caller waits for a concurrency slot, its result, its deadline or
// shutdown; with a slot it runs queue heads until its own job has been
// taken (see work). Rejections are typed: ErrBadRequest,
// ThrottleError (tenant over quota), ShedError (sacrificed to overload) —
// both satisfying errors.Is(err, ErrOverloaded) — ErrQueueTimeout (admitted
// but expired in queue), ErrClosed. A nil error means the Response carries
// one of the ladder's three oracle-gated outcomes.
func (s *Service) Do(ctx context.Context, req Request) (Response, error) {
	p, err := ParseRequest(s.cfg.Limits(), req)
	if err != nil {
		s.m.BadRequests.Add(1)
		return Response{}, err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	select {
	case <-s.quit:
		return Response{}, ErrClosed
	default:
	}
	j, ok := s.jobs.Get()
	if !ok {
		j = &job{done: make(chan result, 1)}
	}
	j.ctx, j.req, j.enq = ctx, p, time.Now()
	class := qos.Protected
	if p.Priority == PrioritySpeculative {
		class = qos.Speculative
	}
	evicted, err := s.sched.Enqueue(qos.Item{Tenant: p.Tenant, Class: class, Value: j})
	if err != nil {
		s.putJob(j) // never queued: nobody else has seen it
		var qe *qos.QuotaError
		if errors.As(err, &qe) {
			s.m.Rejected.Add(1)
			s.m.Throttled.Add(1)
			s.m.Tenant(p.Tenant).Throttled.Add(1)
			return Response{}, &ThrottleError{Tenant: p.Tenant, RetryAfter: qe.RetryAfter}
		}
		s.m.Rejected.Add(1)
		if class == qos.Speculative {
			s.m.Shed.Add(1)
			s.m.Tenant(p.Tenant).Shed.Add(1)
			return Response{}, &ShedError{Tenant: p.Tenant}
		}
		// A protected request refused at a full queue is plain overload —
		// the legacy wire form, so pre-multi-tenancy clients see no change.
		return Response{}, fmt.Errorf("%w: depth %d", ErrOverloaded, s.cfg.QueueDepth)
	}
	// Deliver the shed verdict to any speculative jobs evicted to make room
	// (their waiters are blocked on done; only un-started jobs can appear
	// here, but the CAS keeps eviction and execution mutually exclusive).
	for _, ev := range evicted {
		ej := ev.Value.(*job)
		if ej.state.CompareAndSwap(stateQueued, stateRunning) {
			s.m.QueueDepth.Add(-1)
			s.m.Shed.Add(1)
			s.m.Tenant(ej.req.Tenant).Shed.Add(1)
			ej.deliver(Response{}, &ShedError{Tenant: ej.req.Tenant, Evicted: true})
		}
	}
	s.m.Accepted.Add(1)
	s.m.QueueDepth.Add(1)
	s.m.Inflight.Add(1)
	defer s.m.Inflight.Add(-1)

	for {
		select {
		case r := <-j.done:
			s.putJob(j)
			return r.resp, r.err
		case s.sem <- struct{}{}:
			s.work(j)
			if j.state.Load() != stateQueued {
				return s.receive(j)
			}
		case <-ctx.Done():
			if j.state.CompareAndSwap(stateQueued, stateAbandoned) {
				// Never taken: the slot holder that pops it drops it.
				s.m.QueueDepth.Add(-1)
				s.m.QueueTimeouts.Add(1)
				return Response{}, fmt.Errorf("%w: %w", ErrQueueTimeout, context.Cause(ctx))
			}
			// Already taken: its slot holder delivers it, a queue timeout if
			// it has not started yet; once running, the coordinator observes
			// the same context and aborts at the next step boundary.
			return s.receive(j)
		case <-s.quit:
			// Shutdown while queued: no slot holder takes work any more.
			if j.state.CompareAndSwap(stateQueued, stateAbandoned) {
				s.m.QueueDepth.Add(-1)
				return Response{}, ErrClosed
			}
			return s.receive(j)
		}
	}
}

// receive waits for j's result and recycles j: its waiter is the last to
// touch a delivered job.
func (s *Service) receive(j *job) (Response, error) {
	r := <-j.done
	s.putJob(j)
	return r.resp, r.err
}

// putJob returns a job nobody else holds to the job list, emptied of its
// request and context, with its channel drained.
func (s *Service) putJob(j *job) {
	*j = job{done: j.done}
	s.jobs.Put(j, 1)
}
