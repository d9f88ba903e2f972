package trace

import (
	"testing"
	"testing/quick"
)

func TestSpaceAllocPageAligned(t *testing.T) {
	s := NewSpace()
	r1 := s.Alloc("a", 100, true)
	r2 := s.Alloc("b", PageSize+1, false)
	if r1.Base%PageSize != 0 || r2.Base%PageSize != 0 {
		t.Errorf("regions not page aligned: %x %x", r1.Base, r2.Base)
	}
	if r1.Size != PageSize {
		t.Errorf("r1.Size = %d, want %d", r1.Size, PageSize)
	}
	if r2.Size != 2*PageSize {
		t.Errorf("r2.Size = %d, want %d", r2.Size, 2*PageSize)
	}
	if r2.Base != r1.End() {
		t.Errorf("r2 does not start at r1 end: %x vs %x", r2.Base, r1.End())
	}
	if r1.Base == 0 {
		t.Error("address 0 must never be allocated")
	}
}

func TestSpaceFind(t *testing.T) {
	s := NewSpace()
	a := s.AllocFloats("A", 512, true)
	b := s.AllocFloats("B", 512, false)
	if r, ok := s.Find(a.Base + 8); !ok || r.Name != "A" {
		t.Errorf("Find(A+8) = %v, %v", r, ok)
	}
	if r, ok := s.Find(b.End() - 1); !ok || r.Name != "B" {
		t.Errorf("Find(B end-1) = %v, %v", r, ok)
	}
	if _, ok := s.Find(b.End()); ok {
		t.Error("Find past the last region succeeded")
	}
	if _, ok := s.Find(0); ok {
		t.Error("Find(0) succeeded")
	}
	if !s.IsABFT(a.Base) || s.IsABFT(b.Base) {
		t.Error("IsABFT misclassifies")
	}
}

func TestMemoryTouchLineGranularity(t *testing.T) {
	var lines []uint64
	m := &Memory{Probe: func(addr uint64, write bool) { lines = append(lines, addr) }}

	// 8 bytes inside one line -> 1 access.
	m.Touch(LineSize+8, 8, false)
	if len(lines) != 1 || lines[0] != LineSize {
		t.Fatalf("single-line touch = %v", lines)
	}
	// Crossing one line boundary -> 2 accesses.
	lines = nil
	m.Touch(LineSize-4, 8, true)
	if len(lines) != 2 || lines[0] != 0 || lines[1] != LineSize {
		t.Fatalf("boundary touch = %v", lines)
	}
	// 64 floats = 512 bytes aligned -> 8 lines.
	lines = nil
	m.Touch(0, 512, false)
	if len(lines) != 8 {
		t.Fatalf("512B touch = %d lines, want 8", len(lines))
	}
}

func TestMemoryNilSafe(t *testing.T) {
	var m *Memory
	m.Touch(0, 64, false) // must not panic
	m2 := &Memory{}
	m2.Touch(0, 64, false)
	m2.TouchFloats(Region{}, 0, 4, false)
	m2.TouchStrided(Region{}, 0, 4, 10, true)
}

func TestTouchFloats(t *testing.T) {
	var n int
	m := &Memory{Probe: func(addr uint64, write bool) { n++ }}
	r := Region{Base: 0x10000, Size: 1 << 20}
	m.TouchFloats(r, 0, 8, false) // 64 bytes aligned = 1 line
	if n != 1 {
		t.Errorf("8 floats = %d lines, want 1", n)
	}
	n = 0
	m.TouchFloats(r, 4, 8, false) // straddles one boundary
	if n != 2 {
		t.Errorf("offset 8 floats = %d lines, want 2", n)
	}
}

func TestTouchStrided(t *testing.T) {
	var n int
	m := &Memory{Probe: func(addr uint64, write bool) { n++ }}
	r := Region{Base: 0x10000, Size: 1 << 20}
	m.TouchStrided(r, 0, 10, 100, false) // column walk: 10 separate lines
	if n != 10 {
		t.Errorf("strided touch = %d events, want 10", n)
	}
}

func TestCounterClassification(t *testing.T) {
	s := NewSpace()
	a := s.AllocFloats("A", 1024, true)
	b := s.AllocFloats("B", 1024, false)
	c := NewCounter(s)
	m := &Memory{Probe: c.Probe}
	m.TouchFloats(a, 0, 800, false) // 100 lines
	m.TouchFloats(b, 0, 80, true)   // 10 lines
	if c.ABFTRefs != 100 || c.OtherRefs != 10 {
		t.Errorf("counter = %v", c)
	}
	if r := c.Ratio(); r != 10 {
		t.Errorf("Ratio = %v, want 10", r)
	}
	if c.ByRegion["A"] != 100 || c.ByRegion["B"] != 10 {
		t.Errorf("ByRegion = %v", c.ByRegion)
	}
}

func TestCounterRatioEdgeCases(t *testing.T) {
	c := NewCounter(NewSpace())
	if c.Ratio() != 0 {
		t.Error("empty counter ratio should be 0")
	}
	c.ABFTRefs = 5
	if c.Ratio() != 5 {
		t.Error("zero-other ratio should be ABFTRefs")
	}
}

func TestChain(t *testing.T) {
	var a, b int
	p := Chain(func(uint64, bool) { a++ }, nil, func(uint64, bool) { b++ })
	p(0, false)
	p(64, true)
	if a != 2 || b != 2 {
		t.Errorf("chain fan-out a=%d b=%d", a, b)
	}
}

// Property: every line address emitted by Touch is line-aligned and covers
// the requested byte range.
func TestTouchCoversRangeProperty(t *testing.T) {
	f := func(addrSeed uint32, size uint16) bool {
		addr := uint64(addrSeed)
		n := int(size%4096) + 1
		var lines []uint64
		m := &Memory{Probe: func(a uint64, w bool) { lines = append(lines, a) }}
		m.Touch(addr, n, false)
		covered := make(map[uint64]bool)
		for _, l := range lines {
			if l%LineSize != 0 {
				return false
			}
			covered[l] = true
		}
		for b := addr; b < addr+uint64(n); b++ {
			if !covered[b&^(LineSize-1)] {
				return false
			}
		}
		// No over-coverage: count must equal the exact number of lines.
		want := int((addr+uint64(n)-1)/LineSize - addr/LineSize + 1)
		return len(lines) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDormant: a Memory is dormant exactly when neither hook is set, and a
// nil Memory (which every method tolerates) is dormant too.
func TestDormant(t *testing.T) {
	var none *Memory
	if !none.Dormant() || !(&Memory{}).Dormant() {
		t.Error("nil or zero Memory is not dormant")
	}
	if (&Memory{Probe: func(uint64, bool) {}}).Dormant() {
		t.Error("Memory with a probe is dormant")
	}
	if (&Memory{OnOps: func(int) {}}).Dormant() {
		t.Error("Memory with an ops listener is dormant")
	}
}
