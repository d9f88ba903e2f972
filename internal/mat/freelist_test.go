package mat

import (
	"runtime"
	"sync"
	"testing"
)

// TestFreeListKeepsItemsAcrossGC: what goes in comes back, last in first
// out, after any number of collections.
func TestFreeListKeepsItemsAcrossGC(t *testing.T) {
	l := NewFreeList[*[]float64](1 << 20)
	a, b := make([]float64, 8), make([]float64, 8)
	l.Put(&a, 64)
	l.Put(&b, 64)
	runtime.GC()
	runtime.GC()
	runtime.GC()
	if p, ok := l.Get(); !ok || p != &b {
		t.Fatalf("first Get after three collections: %p, %v; want the last Put, %p", p, ok, &b)
	}
	if p, ok := l.Get(); !ok || p != &a {
		t.Fatalf("second Get: %p, %v; want the first Put, %p", p, ok, &a)
	}
	if p, ok := l.Get(); ok || p != nil {
		t.Fatalf("Get from an empty list: %p, %v", p, ok)
	}
}

// TestFreeListIdleBytesNeverExceedBudget: a Put that would take the idle
// bytes past the budget drops its item, lists that share a budget share the
// bound, and under concurrent Puts and Gets the idle bytes are never seen
// past it and come back to exactly zero once every list is drained.
func TestFreeListIdleBytesNeverExceedBudget(t *testing.T) {
	l := NewFreeList[int](1000)
	for i, want := range []bool{true, true, true, false} {
		if kept := l.Put(i, 300); kept != want {
			t.Fatalf("Put %d of 300 B into a 1000 B budget: kept %v, want %v", i+1, kept, want)
		}
	}
	if l.budget.used.Load() != 900 {
		t.Fatalf("idle %d B, want 900", l.budget.used.Load())
	}
	if !l.Put(9, 100) || l.Put(10, 1) {
		t.Fatal("the budget is not filled to the byte, or not held there")
	}
	if v, _ := l.Get(); v != 9 || l.budget.used.Load() != 900 {
		t.Fatalf("Get returned %d and left %d B idle, want 9 and 900", v, l.budget.used.Load())
	}

	const limit = 1 << 16
	shared := &byteBudget{limit: limit}
	lists := []*FreeList[int]{newSharedList[int](shared), newSharedList[int](shared), newSharedList[int](shared)}
	stop := make(chan struct{})
	var over sync.WaitGroup
	over.Add(1)
	go func() {
		defer over.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if idle := shared.used.Load(); idle > limit {
				t.Errorf("idle %d B past the %d B budget", idle, limit)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				l := lists[(g+i)%len(lists)]
				if i%3 == 2 {
					l.Get()
				} else {
					l.Put(i, 1+(i*7919+g)%4096)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	over.Wait()
	for _, l := range lists {
		for {
			if _, ok := l.Get(); !ok {
				break
			}
		}
	}
	if idle := shared.used.Load(); idle != 0 {
		t.Errorf("every list drained, %d B still counted idle", idle)
	}

	// Every buffer class of every element type, and the arenas' lists,
	// draw on the one budget bufBudget names.
	if bufBytes.limit != bufBudget || arenaLists.budget != &bufBytes {
		t.Fatalf("the buffer lists are bound to %d B, not to bufBudget", bufBytes.limit)
	}
	for c := range bufs64 {
		if bufs64[c].budget != &bufBytes || bufs32[c].budget != &bufBytes || bufsI32[c].budget != &bufBytes {
			t.Fatalf("class %d is not bound to bufBudget", c)
		}
	}
}

// TestFreeListEvictsColdestList: once one list has filled a shared budget,
// a Put to another list is still kept, by evicting idle items of the list
// used longest ago; a list is never evicted for its own Put, and an item
// larger than the whole budget evicts nothing.
func TestFreeListEvictsColdestList(t *testing.T) {
	b := &byteBudget{limit: 1000}
	burst, cold, warm, hot := newSharedList[int](b), newSharedList[int](b), newSharedList[int](b), newSharedList[int](b)
	cold.Put(-1, 100)
	warm.Put(-2, 100)
	for i := 0; i < 8; i++ {
		if !burst.Put(i, 100) {
			t.Fatalf("Put %d of the burst not kept", i)
		}
	}
	if !hot.Put(0, 100) {
		t.Fatal("with the budget full of other lists' idle items, a Put was dropped")
	}
	if cold.idle() || !warm.idle() {
		t.Errorf("evicted cold: %v, warm: %v; want the coldest list only", !cold.idle(), !warm.idle())
	}
	if got := b.used.Load(); got != 1000 {
		t.Errorf("%d B idle after evicting, want the full 1000", got)
	}
	if hot.Put(1, 2000) || !warm.idle() || b.used.Load() != 1000 {
		t.Fatalf("an item past the budget was kept or evicted others: %d B idle", b.used.Load())
	}
	if v, ok := hot.Get(); !ok || v != 0 {
		t.Fatalf("hot list Get: %d, %v; want 0", v, ok)
	}
	solo := NewFreeList[int](200)
	if !solo.Put(1, 100) || !solo.Put(2, 100) || solo.Put(3, 100) {
		t.Fatal("a list alone on its budget evicted its own items for a Put")
	}

	// The same through the buffer classes: a budget's worth of one class
	// left idle does not stop another class being recycled.
	const class = 17
	var held []*[]float64
	for len(held)*8<<class < bufBudget {
		held = append(held, getBuf[float64](1<<class))
	}
	for _, p := range held {
		putBuf(p)
	}
	p := getBuf[float64](1 << 10)
	putBuf(p)
	if q := getBuf[float64](1 << 10); q != p {
		t.Errorf("with %d idle class-%d buffers filling the budget, a 2^10 buffer was not recycled", len(held), class)
	}
}
