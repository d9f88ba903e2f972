// Package qos is the multi-tenant admission subsystem for the serving
// layer: per-tenant token-bucket quotas, fair queueing across
// tenants, and priority load-shedding that sacrifices speculative work
// before protected work.
//
// The serving layer used to have one FIFO channel shared by every caller —
// a single flooding client could starve everyone, and the only backpressure
// was a blanket 429 once the channel filled. qos replaces that with three
// cooperating mechanisms:
//
//   - Token buckets (per tenant) reject a tenant's own excess at the door
//     with a computed Retry-After, before it consumes queue space.
//   - Fair queueing orders admitted work by virtual finish tag, so a burst
//     from one tenant delays its own later requests, not other tenants'.
//   - Load shedding: when the queue is full, an arriving protected request
//     evicts the speculative item with the largest finish tag (the one that
//     would have run last anyway); arriving speculative work is shed
//     outright.
//
// The scheduler is value-agnostic: serve wraps its jobs in Items and maps
// QuotaError/ErrQueueFull/evictions onto its own typed errors.
package qos

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Class is the shed priority of an item. Protected work is never evicted in
// favour of speculative work; speculative work is the first to go under
// pressure.
type Class int

const (
	// Protected is end-user-visible work (checked strategies, P_* ladders).
	Protected Class = iota
	// Speculative is best-effort work (W_* write-back strategies, probes)
	// that the caller can cheaply regenerate.
	Speculative
)

func (c Class) String() string {
	switch c {
	case Protected:
		return "protected"
	case Speculative:
		return "speculative"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Item is one unit of admitted work.
type Item struct {
	Tenant string
	Class  Class
	Cost   float64 // WFQ service cost; <=0 is treated as 1
	Value  any     // opaque payload returned by Pop
}

// QuotaError reports a tenant exceeding its own token bucket. RetryAfter is
// when the bucket next has a whole token.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("qos: tenant %q over quota, retry after %s", e.Tenant, e.RetryAfter)
}

// ErrQueueFull reports an item shed because the queue is at capacity and
// nothing lower-priority could be evicted for it.
var ErrQueueFull = errors.New("qos: queue full")

// Config parameterises a Scheduler. The zero value of Rate disables quotas
// (every tenant is unmetered); Capacity must be positive.
type Config struct {
	Rate     float64            // default tokens/sec refill per tenant; <=0 disables quotas
	Burst    float64            // default bucket depth; <1 lifted to 1 when Rate>0
	Rates    map[string]float64 // per-tenant rate overrides
	Bursts   map[string]float64 // per-tenant burst overrides
	Capacity int                // max queued items across all tenants
	Now      func() time.Time   // injectable clock; nil means time.Now
}

// Quota is the standalone per-tenant token-bucket front: admission points
// that do their own queueing (the cluster gateway) use it at the door
// without the scheduler's queueing half. Safe for concurrent use.
type Quota struct {
	mu      sync.Mutex
	cfg     Config
	now     func() time.Time
	buckets bucketSet
}

// NewQuota builds a quota front from the bucket-relevant Config fields
// (Rate, Burst, Rates, Bursts, Now).
func NewQuota(cfg Config) *Quota {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Quota{cfg: cfg, now: now}
}

// Take spends one token from the tenant's bucket, returning nil on success
// or a *QuotaError carrying the retry horizon.
func (q *Quota) Take(tenant string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	if ok, retry := q.buckets.get(q.cfg, tenant, now).take(now); !ok {
		return &QuotaError{Tenant: tenant, RetryAfter: retry}
	}
	return nil
}

// maxIdleBuckets is how many buckets a bucketSet holds before it looks for
// ones to drop. The tenant name is the client's to choose, so without a cap
// the map is the client's to grow.
const maxIdleBuckets = 4096

// bucketSet is the tenant → bucket map behind Quota and Scheduler, bounded
// without forgetting anything: a bucket that has refilled to its burst
// behaves exactly like the one newBucket would make for the same tenant, so
// dropping it loses nothing. What cannot be dropped is a bucket still
// refilling, and there are at most as many of those as distinct tenants
// seen within one refill time.
type bucketSet struct {
	m       map[string]*bucket
	sweepAt int // size at which the next insertion sweeps first
}

// get returns the tenant's bucket, making a full one on first sight. Before
// the map grows past sweepAt it drops every bucket that is full again at
// now; the next sweep waits until the map has doubled over what survived,
// so a sweep's cost is spread over at least as many insertions.
func (s *bucketSet) get(cfg Config, tenant string, now time.Time) *bucket {
	if b, ok := s.m[tenant]; ok {
		return b
	}
	if s.m == nil {
		s.m = make(map[string]*bucket)
	}
	if len(s.m) >= max(s.sweepAt, maxIdleBuckets) {
		for name, b := range s.m {
			if b.full(now) {
				delete(s.m, name)
			}
		}
		s.sweepAt = 2 * len(s.m)
	}
	b := newBucket(cfg, tenant, now)
	s.m[tenant] = b
	return b
}

// newBucket resolves the per-tenant rate/burst overrides against the
// defaults and primes a full bucket.
func newBucket(cfg Config, tenant string, now time.Time) *bucket {
	rate, burst := cfg.Rate, cfg.Burst
	if r, ok := cfg.Rates[tenant]; ok {
		rate = r
	}
	if bu, ok := cfg.Bursts[tenant]; ok {
		burst = bu
	}
	if rate > 0 && burst < 1 {
		burst = 1
	}
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// bucket is a standard token bucket with lazy refill.
type bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// full reports whether the bucket, at now, is what newBucket would build:
// unmetered, or refilled to its burst. It does not refill.
func (b *bucket) full(now time.Time) bool {
	return b.rate <= 0 || b.tokens+now.Sub(b.last).Seconds()*b.rate >= b.burst
}

func (b *bucket) take(now time.Time) (ok bool, retry time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	retry = time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
	return false, retry
}
