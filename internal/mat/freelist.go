package mat

import (
	"sync"
	"sync/atomic"
)

// FreeList is a stack of idle items kept for reuse: a Get returns what an
// earlier Put handed back, however many garbage collections have run in
// between. The standard library's Pool does not do that — it drops every
// item not taken back before the second collection after its Put, so a
// working set recycled through one survives only while requests come
// faster than collections. A FreeList is bounded by bytes instead: each Put
// states its item's size, and the idle items of the lists sharing one
// budget never weigh more than it.
//
// A Put the budget has no room for makes room: it drops idle items of the
// other lists sharing the budget, coldest list first (the one whose last
// Get or Put is oldest), so a class the traffic stopped using cannot hold
// the budget against the classes it uses now. Only an item that would not
// fit with every other list empty, or whose own list already holds the
// rest of the budget, is dropped for the GC.
//
// Items come back last in, first out, so the warmest is reused first. A
// FreeList is safe for concurrent use.
type FreeList[T any] struct {
	mu     sync.Mutex
	items  []idleItem[T]
	budget *byteBudget
	last   atomic.Int64 // budget.clock at this list's last Get or Put
}

type idleItem[T any] struct {
	v    T
	size int
}

// byteBudget is the bound the lists registered on it share: used counts the
// bytes of their idle items, reserved before an item goes in and released
// after it comes out, so a Put never takes it past limit.
type byteBudget struct {
	limit int64
	used  atomic.Int64
	clock atomic.Int64 // ticks once per Get or Put of any list on the budget

	mu    sync.Mutex // serialises evictions; guards lists
	lists []evictable
}

// evictable is the face a FreeList of any item type shows its budget.
type evictable interface {
	lastUse() int64
	idle() bool
	dropOne() bool
}

func (b *byteBudget) reserve(n int) bool {
	for {
		u := b.used.Load()
		if u+int64(n) > b.limit {
			return false
		}
		if b.used.CompareAndSwap(u, u+int64(n)) {
			return true
		}
	}
}

// evictFor drops idle items of lists other than self, coldest list first,
// until n bytes are reserved; false if they cannot be.
func (b *byteBudget) evictFor(n int, self evictable) bool {
	if int64(n) > b.limit {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.reserve(n) {
		var victim evictable
		for _, l := range b.lists {
			if l != self && l.idle() && (victim == nil || l.lastUse() < victim.lastUse()) {
				victim = l
			}
		}
		if victim == nil || !victim.dropOne() {
			return false
		}
	}
	return true
}

// NewFreeList returns an empty list that keeps at most budget bytes of idle
// items.
func NewFreeList[T any](budget int) *FreeList[T] {
	return newSharedList[T](&byteBudget{limit: int64(budget)})
}

// newSharedList returns an empty list that draws on b with the lists
// already registered there.
func newSharedList[T any](b *byteBudget) *FreeList[T] {
	l := &FreeList[T]{budget: b}
	b.mu.Lock()
	b.lists = append(b.lists, l)
	b.mu.Unlock()
	return l
}

// Get returns the item most recently Put, or ok false when the list is
// empty.
func (l *FreeList[T]) Get() (v T, ok bool) {
	l.touch()
	l.mu.Lock()
	it, ok := l.pop()
	l.mu.Unlock()
	return it.v, ok
}

// Put keeps v, weighed at size bytes (≥ 0), unless the budget has no room
// for it even after evicting colder lists' items; it reports whether v was
// kept.
func (l *FreeList[T]) Put(v T, size int) bool {
	l.touch()
	if !l.budget.reserve(size) && !l.budget.evictFor(size, l) {
		return false
	}
	l.mu.Lock()
	l.items = append(l.items, idleItem[T]{v, size})
	l.mu.Unlock()
	return true
}

func (l *FreeList[T]) touch() { l.last.Store(l.budget.clock.Add(1)) }

// pop takes the top item off the stack and releases its bytes; l.mu is held.
func (l *FreeList[T]) pop() (idleItem[T], bool) {
	n := len(l.items)
	if n == 0 {
		return idleItem[T]{}, false
	}
	it := l.items[n-1]
	l.items[n-1] = idleItem[T]{} // the stack's spare capacity pins nothing
	l.items = l.items[:n-1]
	l.budget.used.Add(-int64(it.size))
	return it, true
}

func (l *FreeList[T]) lastUse() int64 { return l.last.Load() }

func (l *FreeList[T]) idle() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items) > 0
}

// dropOne evicts the list's top item for the GC.
func (l *FreeList[T]) dropOne() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.pop()
	return ok
}
