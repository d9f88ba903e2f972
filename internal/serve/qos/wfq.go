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
//
// Only tenants with queued work are scanned: they sit in an active list, and
// ties between equal finish tags go to the tenant whose queue went from empty
// to non-empty first. A drained tenant's record is dropped at the next sweep
// unless its lastF is still above V (a speculative eviction can leave it so):
// a fresh record (lastF 0) tags the tenant's next item exactly as the old one
// would. So the tenant name, which is the client's to choose, does not grow
// Pop's scan, and grows the records kept only to minSweep or to twice those a
// sweep must keep, whichever is larger.
type Scheduler struct {
	mu      sync.Mutex
	cfg     Config
	now     func() time.Time
	vtime   float64
	buckets bucketSet
	queues  map[string]*tenantQueue // queued and drained tenants, until a sweep
	active  []*tenantQueue          // tenants with queued work, any order
	sweepAt int                     // size at which the next new tenant sweeps first
	seq     uint64                  // activations so far
	size    int
	ready   chan struct{}
}

// minSweep is how many tenant records a Scheduler holds before a new tenant
// sweeps the drained ones out. Until then a tenant whose queue drains between
// requests keeps its record, and allocates none per request.
const minSweep = 1024

type tenantQueue struct {
	lastF float64
	items []entry
	seq   uint64 // activation order: the tie-break between equal finish tags
	pos   int    // index in active while items are queued
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

	var best *tenantQueue
	for _, tq := range s.active {
		head := tq.items[0]
		if match != nil && !match(head.it) {
			continue
		}
		if best == nil || head.finish < best.items[0].finish ||
			head.finish == best.items[0].finish && tq.seq < best.seq {
			best = tq
		}
	}
	if best == nil {
		return Item{}, false
	}
	head := best.items[0]
	s.remove(best, 0)
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
	var victim *tenantQueue
	victimIdx := -1
	for _, tq := range s.active {
		for i, e := range tq.items {
			if e.it.Class != Speculative {
				continue
			}
			if victim == nil {
				victim, victimIdx = tq, i
				continue
			}
			if vf := victim.items[victimIdx].finish; e.finish > vf || e.finish == vf && tq.seq < victim.seq {
				victim, victimIdx = tq, i
			}
		}
	}
	if victim == nil {
		return Item{}, false
	}
	it := victim.items[victimIdx].it
	s.remove(victim, victimIdx)
	return it, true
}

// remove takes item i off tq's queue; a queue left empty leaves the active
// list.
func (s *Scheduler) remove(tq *tenantQueue, i int) {
	n := len(tq.items) - 1
	copy(tq.items[i:], tq.items[i+1:])
	tq.items[n] = entry{}
	tq.items = tq.items[:n]
	s.size--
	if n == 0 {
		last := s.active[len(s.active)-1]
		s.active[tq.pos], last.pos = last, tq.pos
		s.active[len(s.active)-1] = nil
		s.active = s.active[:len(s.active)-1]
	}
}

// queueFor returns the tenant's record, in the active list. A tenant new to
// the map sweeps it first once it holds sweepAt records.
func (s *Scheduler) queueFor(tenant string) *tenantQueue {
	tq, ok := s.queues[tenant]
	if !ok {
		if len(s.queues) >= s.sweepAt {
			s.sweep()
		}
		tq = &tenantQueue{}
		s.queues[tenant] = tq
	}
	if len(tq.items) == 0 {
		s.seq++
		tq.seq, tq.pos = s.seq, len(s.active)
		s.active = append(s.active, tq)
	}
	return tq
}

// sweep drops every drained record whose lastF is at or below vtime. What
// survives is a tenant with queued work or one an eviction left ahead of
// vtime; the next sweep waits until the map has doubled over that, so the
// sweeps cost O(1) per new tenant.
func (s *Scheduler) sweep() {
	for name, tq := range s.queues {
		if len(tq.items) == 0 && tq.lastF <= s.vtime {
			delete(s.queues, name)
		}
	}
	s.sweepAt = max(2*len(s.queues), minSweep)
}
