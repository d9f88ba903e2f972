package qos

import (
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// fakeClock gives tests full control of bucket refill.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTest(cfg Config) (*Scheduler, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg.Now = clk.now
	return New(cfg), clk
}

func TestTokenBucketQuota(t *testing.T) {
	s, clk := newTest(Config{Rate: 10, Burst: 2, Capacity: 100})
	for i := 0; i < 2; i++ {
		if _, err := s.Enqueue(Item{Tenant: "a"}); err != nil {
			t.Fatalf("burst request %d refused: %v", i, err)
		}
	}
	_, err := s.Enqueue(Item{Tenant: "a"})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-burst request: got %v, want QuotaError", err)
	}
	if qe.RetryAfter <= 0 || qe.RetryAfter > 150*time.Millisecond {
		t.Fatalf("RetryAfter = %s, want ~100ms", qe.RetryAfter)
	}
	// Other tenants have their own buckets.
	if _, err := s.Enqueue(Item{Tenant: "b"}); err != nil {
		t.Fatalf("tenant b refused by tenant a's bucket: %v", err)
	}
	// Refill restores exactly rate*dt tokens.
	clk.advance(100 * time.Millisecond)
	if _, err := s.Enqueue(Item{Tenant: "a"}); err != nil {
		t.Fatalf("post-refill request refused: %v", err)
	}
	if _, err := s.Enqueue(Item{Tenant: "a"}); !errors.As(err, &qe) {
		t.Fatalf("second post-refill request: got %v, want QuotaError", err)
	}
}

func TestZeroRateDisablesQuota(t *testing.T) {
	s, _ := newTest(Config{Capacity: 1000})
	for i := 0; i < 500; i++ {
		if _, err := s.Enqueue(Item{Tenant: "a"}); err != nil {
			t.Fatalf("unmetered request %d refused: %v", i, err)
		}
	}
}

func TestPerTenantFIFO(t *testing.T) {
	s, _ := newTest(Config{Capacity: 100})
	for i := 0; i < 5; i++ {
		s.Enqueue(Item{Tenant: "a", Value: i})
		s.Enqueue(Item{Tenant: "b", Value: i})
	}
	last := map[string]int{"a": -1, "b": -1}
	for {
		it, ok := s.Pop()
		if !ok {
			break
		}
		v := it.Value.(int)
		if v <= last[it.Tenant] {
			t.Fatalf("tenant %s served %d after %d (FIFO violated)", it.Tenant, v, last[it.Tenant])
		}
		last[it.Tenant] = v
	}
}

func TestProtectedEvictsSpeculative(t *testing.T) {
	s, _ := newTest(Config{Capacity: 4})
	for i := 0; i < 4; i++ {
		if _, err := s.Enqueue(Item{Tenant: "flood", Class: Speculative, Value: i}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	// Speculative arrival at capacity is shed outright.
	if _, err := s.Enqueue(Item{Tenant: "flood", Class: Speculative}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("speculative at capacity: got %v, want ErrQueueFull", err)
	}
	// Protected arrival evicts the LAST-to-run speculative item (max finish
	// tag = the most recently enqueued of the flood).
	evicted, err := s.Enqueue(Item{Tenant: "gold", Class: Protected, Value: "p"})
	if err != nil {
		t.Fatalf("protected at capacity refused: %v", err)
	}
	if len(evicted) != 1 || evicted[0].Value.(int) != 3 {
		t.Fatalf("evicted %v, want the newest speculative item (3)", evicted)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d after eviction+admit, want 4", s.Len())
	}
}

func TestProtectedNeverEvictsProtected(t *testing.T) {
	s, _ := newTest(Config{Capacity: 2})
	s.Enqueue(Item{Tenant: "a", Class: Protected})
	s.Enqueue(Item{Tenant: "b", Class: Protected})
	if _, err := s.Enqueue(Item{Tenant: "c", Class: Protected}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("protected-full queue: got %v, want ErrQueueFull", err)
	}
}

func TestPopWhereHeadOnly(t *testing.T) {
	s, _ := newTest(Config{Capacity: 100})
	s.Enqueue(Item{Tenant: "a", Value: "x1"})
	s.Enqueue(Item{Tenant: "a", Value: "y1"}) // behind x1: must not be reachable
	s.Enqueue(Item{Tenant: "b", Value: "y2"})
	it, ok := s.PopWhere(func(it Item) bool { return it.Value.(string)[0] == 'y' })
	if !ok || it.Value.(string) != "y2" {
		t.Fatalf("PopWhere = %v %v, want y2 (a's y1 is not at its head)", it, ok)
	}
	// Draining a's head exposes y1.
	if it, _ := s.Pop(); it.Value.(string) != "x1" {
		t.Fatalf("Pop = %v, want x1", it.Value)
	}
	it, ok = s.PopWhere(func(it Item) bool { return it.Value.(string)[0] == 'y' })
	if !ok || it.Value.(string) != "y1" {
		t.Fatalf("PopWhere after drain = %v %v, want y1", it, ok)
	}
}

func TestReadySignal(t *testing.T) {
	s, _ := newTest(Config{Capacity: 10})
	select {
	case <-s.Ready():
		t.Fatal("ready before any enqueue")
	default:
	}
	s.Enqueue(Item{Tenant: "a"})
	select {
	case <-s.Ready():
	default:
		t.Fatal("no ready signal after enqueue")
	}
}

// TestQuotaMemoryBoundedByRefillWindow: the tenant name is the client's to
// choose. A million distinct ones, each spending one token, must not leave a
// million buckets behind, and the sweep that drops the refilled ones must not
// forgive a tenant that is still over its quota.
func TestQuotaMemoryBoundedByRefillWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	q := NewQuota(Config{Rate: 10, Burst: 2, Now: clk.now})
	throttled := func() bool {
		var qe *QuotaError
		return errors.As(q.Take("hog"), &qe)
	}
	for !throttled() {
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const tenants = 1_000_000
	for i := 0; i < tenants; i++ {
		clk.advance(time.Millisecond) // a bucket is full again 100 tenants later
		if err := q.Take("t" + strconv.Itoa(i)); err != nil {
			t.Fatalf("tenant %d's first request refused: %v", i, err)
		}
		if i%100 == 99 {
			// The hog keeps asking, 100 ms apart: one token has refilled, the
			// second request is refused, before and after every sweep.
			if q.Take("hog") != nil || !throttled() {
				t.Fatalf("after %d tenants the hog's bucket is not the one it drained", i)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := len(q.buckets.m); n > 2*maxIdleBuckets {
		t.Errorf("%d buckets held after %d tenants, cap is %d", n, tenants, maxIdleBuckets)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 512<<10 {
		t.Errorf("heap grew %d KiB over %d distinct tenants", grown>>10, tenants)
	}
}

// TestBucketSweepIsLossless: a swept set answers every later request as an
// unswept one does. The reference never sweeps because it never sees more
// than a handful of tenants; the set under test is flooded with one-shot
// tenants between every step of the same script.
func TestBucketSweepIsLossless(t *testing.T) {
	cfg := Config{Rate: 5, Burst: 3, Rates: map[string]float64{"slow": 0.5}}
	var ref, swept bucketSet
	now := time.Unix(1000, 0)
	flood := 0
	for step := 0; step < 400; step++ {
		now = now.Add(time.Duration(37*(step%11)) * time.Millisecond)
		tenant := []string{"a", "b", "slow"}[step%3]
		ok1, r1 := ref.get(cfg, tenant, now).take(now)
		ok2, r2 := swept.get(cfg, tenant, now).take(now)
		if ok1 != ok2 || r1 != r2 {
			t.Fatalf("step %d tenant %s: unswept (%v, %s), swept (%v, %s)", step, tenant, ok1, r1, ok2, r2)
		}
		for i := 0; i < 50; i++ {
			flood++
			swept.get(cfg, "f"+strconv.Itoa(flood), now).take(now)
		}
	}
	if flood < 4*maxIdleBuckets || len(swept.m) >= flood {
		t.Fatalf("flooded %d tenants, %d buckets held: the set never swept", flood, len(swept.m))
	}
}
