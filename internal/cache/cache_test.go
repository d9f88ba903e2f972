package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func tiny() Config { return Config{SizeBytes: 4 * 2 * LineBytes, Ways: 2} } // 4 sets, 2 ways

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two set count did not panic")
		}
	}()
	New(Config{SizeBytes: 3 * LineBytes, Ways: 1})
}

func TestHitAfterMiss(t *testing.T) {
	c := New(tiny())
	if o := c.Access(0x100, false); o.Hit {
		t.Error("cold access hit")
	}
	if o := c.Access(0x100, false); !o.Hit {
		t.Error("warm access missed")
	}
	if o := c.Access(0x100+LineBytes-1, false); !o.Hit {
		t.Error("same-line access missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(tiny()) // 4 sets × 2 ways
	// Three lines mapping to set 0: line addresses 0, 4, 8 (set = line % 4).
	a0 := uint64(0 * LineBytes)
	a1 := uint64(4 * LineBytes)
	a2 := uint64(8 * LineBytes)
	c.Access(a0, false)
	c.Access(a1, false)
	c.Access(a0, false) // a0 now MRU, a1 LRU
	c.Access(a2, false) // evicts a1
	if !c.Contains(a0) || c.Contains(a1) || !c.Contains(a2) {
		t.Errorf("LRU eviction wrong: a0=%v a1=%v a2=%v",
			c.Contains(a0), c.Contains(a1), c.Contains(a2))
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := New(tiny())
	a0 := uint64(0)
	a1 := uint64(4 * LineBytes)
	a2 := uint64(8 * LineBytes)
	c.Access(a0, true) // dirty
	c.Access(a1, false)
	c.Access(a2, false) // evicts a0 (LRU, dirty)
	// a0 was LRU because a1 was touched later.
	// Re-access pattern: after access(a1), order is a0(old), a1(new).
	// access(a2) evicts a0 → writeback.
	st := c.Stats()
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", st.Writebacks)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	c := New(tiny())
	a0 := uint64(12 * LineBytes) // set 0, some tag
	c.Access(a0, true)
	c.Access(16*LineBytes, true) // set 0
	o := c.Access(20*LineBytes, true)
	if !o.Writeback {
		t.Fatal("expected writeback")
	}
	if o.VictimAddr != a0 {
		t.Errorf("victim addr = %#x, want %#x", o.VictimAddr, a0)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c := New(tiny())
	c.Access(0, false)
	c.Access(4*LineBytes, false)
	o := c.Access(8*LineBytes, false)
	if o.Writeback {
		t.Error("clean eviction produced a writeback")
	}
}

func TestHierarchyLevels(t *testing.T) {
	var misses []MissEvent
	h := NewHierarchy(tiny(), Config{SizeBytes: 16 * 4 * LineBytes, Ways: 4},
		func(ev MissEvent) { misses = append(misses, ev) })

	if lvl := h.Access(0, false); lvl != LevelMemory {
		t.Errorf("cold access level = %v", lvl)
	}
	if len(misses) != 1 || misses[0].Addr != 0 || !misses[0].Demand {
		t.Errorf("miss events = %+v", misses)
	}
	if lvl := h.Access(0, false); lvl != LevelL1 {
		t.Errorf("warm access level = %v", lvl)
	}
	// Evict from L1 (3 conflicting lines in its set) but stay in L2.
	h.Access(4*LineBytes, false)
	h.Access(8*LineBytes, false)
	if lvl := h.Access(0, false); lvl != LevelL2 {
		t.Errorf("L1-evicted access level = %v", lvl)
	}
}

func TestHierarchyWritebackChain(t *testing.T) {
	// L1 dirty victims must land in L2, and dirty L2 victims must reach
	// memory as non-demand writes.
	var misses []MissEvent
	l2cfg := Config{SizeBytes: 2 * 2 * LineBytes, Ways: 2} // 2 sets, tiny
	h := NewHierarchy(tiny(), l2cfg, func(ev MissEvent) { misses = append(misses, ev) })
	// Write lines that conflict in both levels to force dirty evictions.
	for i := uint64(0); i < 16; i++ {
		h.Access(i*4*LineBytes, true) // all map to L2 set 0 (line%2==0)
	}
	var wb int
	for _, m := range misses {
		if m.Write {
			wb++
			if m.Demand {
				t.Error("writeback marked as demand")
			}
		}
	}
	if wb == 0 {
		t.Error("no writebacks reached memory")
	}
}

func TestHierarchyNilMissSafe(t *testing.T) {
	h := NewHierarchy(tiny(), tiny(), nil)
	h.Access(0, true) // must not panic
}

// Property: a second access to the same address is always an L1 hit.
func TestTemporalLocalityProperty(t *testing.T) {
	h := NewHierarchy(L1Default(), L2Default(), nil)
	f := func(addr uint64, w bool) bool {
		h.Access(addr, w)
		return h.Access(addr, false) == LevelL1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: hits+misses equals the number of accesses at L1.
func TestStatsConservationProperty(t *testing.T) {
	c := New(L1Default())
	n := 0
	f := func(addr uint64, w bool) bool {
		c.Access(addr, w)
		n++
		st := c.Stats()
		return st.Hits+st.Misses == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFlushWritesBackDirtyAndEmpties(t *testing.T) {
	var wb []uint64
	c := New(tiny())
	c.Access(0, true)
	c.Access(4*LineBytes, false)
	c.Flush(func(addr uint64) { wb = append(wb, addr) })
	if len(wb) != 1 || wb[0] != 0 {
		t.Errorf("writebacks = %v", wb)
	}
	if c.Contains(0) || c.Contains(4*LineBytes) {
		t.Error("flush left lines resident")
	}
}

func TestHierarchyFlushReachesMemory(t *testing.T) {
	var misses []MissEvent
	h := NewHierarchy(tiny(), Config{SizeBytes: 16 * 4 * LineBytes, Ways: 4},
		func(ev MissEvent) { misses = append(misses, ev) })
	h.Access(0, true)
	misses = nil
	h.Flush()
	found := false
	for _, m := range misses {
		if m.Write && m.Addr == 0 && !m.Demand {
			found = true
		}
	}
	if !found {
		t.Errorf("dirty line did not reach memory: %+v", misses)
	}
	// After flush the next access is a full miss again.
	misses = nil
	if lvl := h.Access(0, false); lvl != LevelMemory {
		t.Errorf("post-flush access level = %v", lvl)
	}
}

// hierarchyTrace drives h with a fixed pseudo-random access stream (a small
// footprint, so that hits, conflict misses and dirty evictions all occur),
// then flushes it, and returns everything observable: the level every access
// was served at, every miss event in order, and both levels' counters.
func hierarchyTrace(h *Hierarchy, events *[]MissEvent, seed uint64) (levels []Level, l1, l2 Stats) {
	*events = (*events)[:0]
	x := seed
	for i := 0; i < 4000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 33) % (64 * LineBytes * 4)
		levels = append(levels, h.Access(addr, x&(1<<20) != 0))
	}
	h.Flush()
	return levels, h.L1.Stats(), h.L2.Stats()
}

// TestResetEqualsNew: Reset then a scripted use equals New then the same
// use. The recycled hierarchy is first left as dirty as a run leaves one
// (resident and dirty lines in both levels, ticks and counters advanced, no
// closing flush).
func TestResetEqualsNew(t *testing.T) {
	l1, l2 := tiny(), Config{SizeBytes: 16 * 4 * LineBytes, Ways: 4}
	var freshEv, usedEv []MissEvent
	fresh := NewHierarchy(l1, l2, func(ev MissEvent) { freshEv = append(freshEv, ev) })
	used := NewHierarchy(l1, l2, func(ev MissEvent) { usedEv = append(usedEv, ev) })
	for i := uint64(0); i < 3000; i++ {
		used.Access(i*7*LineBytes, i%3 == 0)
	}
	if used.L2.Stats().Writebacks == 0 || !used.L1.Contains(2999*7*LineBytes) {
		t.Fatal("the hierarchy to recycle was not left dirty")
	}
	used.Reset()
	if st := used.L2.Stats(); st != (Stats{}) || used.L1.Contains(2999*7*LineBytes) {
		t.Fatalf("after Reset: L2 stats %+v, last line still resident %v", st, used.L1.Contains(2999*7*LineBytes))
	}

	fl, f1, f2 := hierarchyTrace(fresh, &freshEv, 99)
	ul, u1, u2 := hierarchyTrace(used, &usedEv, 99)
	if !reflect.DeepEqual(fl, ul) || !reflect.DeepEqual(freshEv, usedEv) || f1 != u1 || f2 != u2 {
		t.Errorf("recycled hierarchy diverged from a new one:\n new      L1 %+v L2 %+v, %d miss events\n recycled L1 %+v L2 %+v, %d miss events",
			f1, f2, len(freshEv), u1, u2, len(usedEv))
	}
	if f1.Hits == 0 || f2.Hits == 0 || f2.Writebacks == 0 || len(freshEv) == 0 {
		t.Errorf("the script does not reach hits, L2 hits and writebacks: L1 %+v L2 %+v", f1, f2)
	}
}
