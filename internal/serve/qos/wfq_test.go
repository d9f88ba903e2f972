package qos

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// refScheduler is the scheduler as it was before it forgot tenants: one
// record per tenant ever seen, scanned in first-seen order. The reference
// for TestSchedulerMatchesReference.
type refScheduler struct {
	vtime  float64
	queues map[string]*tenantQueue
	order  []string
	size   int
	cap    int
}

func (s *refScheduler) enqueue(it Item) (evicted []Item, ok bool) {
	for s.size >= s.cap {
		if it.Class != Protected {
			return nil, false
		}
		victimTenant, victimIdx, victimF := "", -1, 0.0
		for _, name := range s.order {
			for i, e := range s.queues[name].items {
				if e.it.Class == Speculative && (victimIdx < 0 || e.finish > victimF) {
					victimTenant, victimIdx, victimF = name, i, e.finish
				}
			}
		}
		if victimIdx < 0 {
			return nil, false
		}
		tq := s.queues[victimTenant]
		evicted = append(evicted, tq.items[victimIdx].it)
		tq.items = append(tq.items[:victimIdx], tq.items[victimIdx+1:]...)
		s.size--
	}
	tq, seen := s.queues[it.Tenant]
	if !seen {
		tq = &tenantQueue{}
		s.queues[it.Tenant] = tq
		s.order = append(s.order, it.Tenant)
	}
	f := max(s.vtime, tq.lastF) + it.Cost
	tq.lastF = f
	tq.items = append(tq.items, entry{it: it, finish: f})
	s.size++
	return evicted, true
}

func (s *refScheduler) popWhere(match func(Item) bool) (Item, bool) {
	best, bestF := "", 0.0
	for _, name := range s.order {
		tq := s.queues[name]
		if len(tq.items) == 0 || match != nil && !match(tq.items[0].it) {
			continue
		}
		if best == "" || tq.items[0].finish < bestF {
			best, bestF = name, tq.items[0].finish
		}
	}
	if best == "" {
		return Item{}, false
	}
	tq := s.queues[best]
	head := tq.items[0]
	tq.items = tq.items[1:]
	s.size--
	s.vtime = max(s.vtime, head.finish)
	return head.it, true
}

// TestSchedulerMatchesReference: dropping drained tenants changes no finish
// tag. A random script of enqueues (recurring and one-shot tenants, both
// classes, evictions), pops and predicate pops runs against the scheduler and
// the reference; costs are random reals, so no two finish tags tie and the
// tie-break, which now follows activation order, never decides. Every
// returned and evicted item must match, vtime must match, and every item
// must get the reference's finish tag, those of tenants the scheduler swept
// out included. Besides the sweeps new tenants trigger, the script sweeps
// at random points, so that some find a record an eviction left ahead of
// vtime.
func TestSchedulerMatchesReference(t *testing.T) {
	const capacity = 12
	rng := rand.New(rand.NewSource(3))
	s, _ := newTest(Config{Capacity: capacity})
	ref := &refScheduler{queues: map[string]*tenantQueue{}, cap: capacity}
	fresh, evictions, sweeps, keptAhead := 0, 0, 0, 0
	for step := 0; step < 12000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			tenant := "r" + strconv.Itoa(rng.Intn(5))
			if rng.Intn(2) == 0 {
				fresh++
				tenant = "f" + strconv.Itoa(fresh)
			}
			it := Item{Tenant: tenant, Class: Class(rng.Intn(2)), Cost: 0.5 + rng.Float64(), Value: step}
			want, ok := ref.enqueue(it)
			got, err := s.Enqueue(it)
			if ok != (err == nil) || len(got) != len(want) {
				t.Fatalf("step %d: enqueue %+v: scheduler (%v, %v), reference (%v, %v)", step, it, got, err, want, ok)
			}
			for i := range got {
				if got[i].Value != want[i].Value {
					t.Fatalf("step %d: evicted %v, reference evicted %v", step, got, want)
				}
			}
			if ok && s.queues[tenant].lastF != ref.queues[tenant].lastF {
				t.Fatalf("step %d: tenant %s tagged %v, reference %v", step, tenant, s.queues[tenant].lastF, ref.queues[tenant].lastF)
			}
			evictions += len(got)
		default:
			var match func(Item) bool
			if op == 9 {
				match = func(it Item) bool { return it.Value.(int)%2 == 0 }
			}
			want, wok := ref.popWhere(match)
			got, gok := s.PopWhere(match)
			if gok != wok || got.Value != want.Value {
				t.Fatalf("step %d: popped (%v, %v), reference (%v, %v)", step, got, gok, want, wok)
			}
		}
		if s.vtime != ref.vtime {
			t.Fatalf("step %d: vtime %v, reference %v", step, s.vtime, ref.vtime)
		}
		if rng.Intn(8) == 0 {
			s.sweep()
			sweeps++
			for _, tq := range s.queues {
				if len(tq.items) == 0 && tq.lastF > s.vtime {
					keptAhead++
				}
			}
		}
	}
	t.Logf("%d tenants seen, %d kept at the end; %d evictions, %d sweeps keeping %d drained records ahead of vtime",
		len(ref.queues), len(s.queues), evictions, sweeps, keptAhead)
	if evictions == 0 || keptAhead == 0 {
		t.Fatalf("script too tame: %d evictions, %d sweeps, %d drained records kept", evictions, sweeps, keptAhead)
	}
}

// TestTiesGoToActivationOrder: equal finish tags go to the tenant whose
// queue went from empty to non-empty first, so a tenant that drains and
// returns is served behind one that stayed queued, even though it was seen
// first.
func TestTiesGoToActivationOrder(t *testing.T) {
	s, _ := newTest(Config{Capacity: 10})
	s.Enqueue(Item{Tenant: "a", Value: "a1"}) // F = 1
	s.Enqueue(Item{Tenant: "b", Value: "b1"}) // F = 1
	s.Enqueue(Item{Tenant: "b", Value: "b2"}) // F = 2
	var got []string
	it, _ := s.Pop() // a1: a drains at V = 1
	got = append(got, it.Value.(string))
	s.Enqueue(Item{Tenant: "a", Value: "a2"}) // F = 2, a tie with b2
	for it, ok := s.Pop(); ok; it, ok = s.Pop() {
		got = append(got, it.Value.(string))
	}
	if strings.Join(got, " ") != "a1 b1 b2 a2" {
		t.Fatalf("served %v, want a1 b1 b2 a2", got)
	}

	// An eviction picks between equal tags the same way.
	s, _ = newTest(Config{Capacity: 2})
	s.Enqueue(Item{Tenant: "x", Class: Speculative, Value: "x1"})
	s.Enqueue(Item{Tenant: "y", Class: Speculative, Value: "y1"})
	if evicted, err := s.Enqueue(Item{Tenant: "p", Class: Protected}); err != nil || len(evicted) != 1 || evicted[0].Value != "x1" {
		t.Fatalf("evicted %v (%v), want x1", evicted, err)
	}
}

// TestSchedulerStateBoundedByQueuedTenants: the tenant name is the client's
// to choose. A million one-shot tenants, each queued behind a steady backlog
// and a quarter of them evicted by protected arrivals, must leave the
// scheduler holding at most minSweep records, and no Pop may scan more than
// the tenants with queued work.
func TestSchedulerStateBoundedByQueuedTenants(t *testing.T) {
	const capacity, tenants = 16, 1_000_000
	s, _ := newTest(Config{Capacity: capacity})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	maxKept, maxScan, evictions := 0, 0, 0
	for i := 0; i < tenants; i++ {
		if _, err := s.Enqueue(Item{Tenant: "steady", Class: Protected}); err != nil {
			t.Fatalf("tenant %d: steady refused: %v", i, err)
		}
		s.Enqueue(Item{Tenant: "t" + strconv.Itoa(i), Class: Speculative, Cost: float64(1 + i%3)})
		if i%4 == 0 {
			evicted, err := s.Enqueue(Item{Tenant: "gold", Class: Protected})
			if err != nil {
				t.Fatalf("tenant %d: gold refused: %v", i, err)
			}
			evictions += len(evicted)
		}
		maxKept = max(maxKept, len(s.queues))
		for s.Len() > capacity-2 {
			maxScan = max(maxScan, len(s.active))
			s.Pop()
		}
	}
	for s.Len() > 0 {
		s.Pop()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	t.Logf("%d tenants, %d evictions: at most %d records kept, %d heads scanned by one Pop",
		tenants, evictions, maxKept, maxScan)
	if evictions == 0 {
		t.Fatal("no protected arrival evicted anything")
	}
	if maxScan > capacity {
		t.Errorf("a Pop scanned %d heads, but at most %d items are queued", maxScan, capacity)
	}
	if maxKept > minSweep {
		t.Errorf("%d records kept after %d tenants, sweeps start at %d", maxKept, tenants, minSweep)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 512<<10 {
		t.Errorf("heap grew %d KiB over %d distinct tenants", grown>>10, tenants)
	}
}
