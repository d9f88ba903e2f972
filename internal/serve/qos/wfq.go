package qos

import (
	"sync"
	"time"
)

// Scheduler is a fair queue with per-tenant admission quotas and priority
// load-shedding. Safe for concurrent use.
//
// Fairness model: classic virtual-finish-tag WFQ with every tenant at unit
// weight. Each tenant keeps a FIFO of its own items; item i of tenant t
// gets finish tag
//
//	F = max(V, lastF[t]) + cost
//
// where V is the scheduler's virtual time (the finish tag of the last item
// dispatched). Pop always serves the smallest finish tag among tenant queue
// HEADS — per-tenant order is FIFO by construction, and backlogged tenants
// converge to equal shares of service regardless of arrival bursts.
type Scheduler struct {
	mu      sync.Mutex
	cfg     Config
	now     func() time.Time
	vtime   float64
	buckets bucketSet
	queues  map[string]*tenantQueue
	order   []string // tenant first-seen order: deterministic scans and ties
	size    int
	ready   chan struct{}
}

type tenantQueue struct {
	lastF float64
	items []entry
}

type entry struct {
	it     Item
	finish float64
}

// New builds a Scheduler. Capacity <= 0 is lifted to 1.
func New(cfg Config) *Scheduler {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Scheduler{
		cfg:    cfg,
		now:    now,
		queues: make(map[string]*tenantQueue),
		ready:  make(chan struct{}, 1),
	}
}

// Enqueue admits one item. It returns the speculative items evicted to make
// room (possibly empty) and an error if the item itself was refused: a
// *QuotaError when the tenant is over its token bucket, ErrQueueFull when
// the queue is at capacity and the item's class does not warrant eviction.
func (s *Scheduler) Enqueue(it Item) (evicted []Item, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	now := s.now()
	if ok, retry := s.buckets.get(s.cfg, it.Tenant, now).take(now); !ok {
		return nil, &QuotaError{Tenant: it.Tenant, RetryAfter: retry}
	}
	for s.size >= s.cfg.Capacity {
		if it.Class != Protected {
			return nil, ErrQueueFull
		}
		victim, ok := s.evictSpeculative()
		if !ok {
			return nil, ErrQueueFull
		}
		evicted = append(evicted, victim)
	}

	tq := s.queueFor(it.Tenant)
	cost := it.Cost
	if cost <= 0 {
		cost = 1
	}
	f := s.vtime
	if tq.lastF > f {
		f = tq.lastF
	}
	f += cost
	tq.lastF = f
	tq.items = append(tq.items, entry{it: it, finish: f})
	s.size++
	s.signal()
	return evicted, nil
}

// Pop removes and returns the item with the smallest finish tag among
// tenant queue heads. ok is false when the queue is empty.
func (s *Scheduler) Pop() (Item, bool) {
	return s.PopWhere(nil)
}

// PopWhere is Pop restricted to items accepted by match (nil matches all).
// Only queue HEADS are considered — a head that fails the predicate blocks
// its tenant's later items, preserving per-tenant FIFO order.
func (s *Scheduler) PopWhere(match func(Item) bool) (Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()

	bestTenant := ""
	bestF := 0.0
	for _, name := range s.order {
		tq := s.queues[name]
		if len(tq.items) == 0 {
			continue
		}
		head := tq.items[0]
		if match != nil && !match(head.it) {
			continue
		}
		if bestTenant == "" || head.finish < bestF {
			bestTenant, bestF = name, head.finish
		}
	}
	if bestTenant == "" {
		return Item{}, false
	}
	tq := s.queues[bestTenant]
	head := tq.items[0]
	copy(tq.items, tq.items[1:])
	tq.items = tq.items[:len(tq.items)-1]
	s.size--
	if head.finish > s.vtime {
		s.vtime = head.finish
	}
	if s.size > 0 {
		s.signal()
	}
	return head.it, true
}

// Len returns the number of queued items.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Ready signals (buffered, coalescing) whenever items may be available.
func (s *Scheduler) Ready() <-chan struct{} { return s.ready }

func (s *Scheduler) signal() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// evictSpeculative removes and returns the speculative item with the
// LARGEST finish tag — the one that would have been served last anyway, so
// eviction disturbs the fair order least.
func (s *Scheduler) evictSpeculative() (Item, bool) {
	victimTenant, victimIdx, victimF := "", -1, 0.0
	for _, name := range s.order {
		tq := s.queues[name]
		for i, e := range tq.items {
			if e.it.Class != Speculative {
				continue
			}
			if victimIdx < 0 || e.finish > victimF {
				victimTenant, victimIdx, victimF = name, i, e.finish
			}
		}
	}
	if victimIdx < 0 {
		return Item{}, false
	}
	tq := s.queues[victimTenant]
	victim := tq.items[victimIdx]
	tq.items = append(tq.items[:victimIdx], tq.items[victimIdx+1:]...)
	s.size--
	return victim.it, true
}

func (s *Scheduler) queueFor(tenant string) *tenantQueue {
	tq, ok := s.queues[tenant]
	if !ok {
		tq = &tenantQueue{}
		s.queues[tenant] = tq
		s.order = append(s.order, tenant)
	}
	return tq
}
