// Package trace provides the instrumentation layer between the ABFT kernels
// and the machine simulator — the stand-in for Pin in the paper's evaluation
// stack (Figure 4).
//
// Kernels allocate their data structures from a Space, which assigns virtual
// address ranges tagged with a name and an "ABFT-protected" bit. While
// computing, kernels report the element ranges they read and write through a
// Memory; the Memory turns them into cacheline-granular accesses and forwards
// them to a Probe (the simulated cache hierarchy). With a nil Probe the cost
// is a single branch, so the same kernel code runs traced and untraced.
package trace

import "fmt"

// LineSize is the cacheline size in bytes (Table 3: 64B blocks).
const LineSize = 64

// PageSize is the page-frame size used by the OS model.
const PageSize = 4096

// Probe receives one event per cacheline touched.
type Probe func(lineAddr uint64, write bool)

// Region is a tagged virtual address range.
type Region struct {
	Name string
	Base uint64
	Size uint64
	// ABFT marks data structures protected by algorithm-based fault
	// tolerance; the memory controller may run them under relaxed ECC and
	// Table 4 classifies LLC misses by this bit.
	ABFT bool
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Space is a page-aligned bump allocator of tagged virtual regions. The base
// starts above zero so that address 0 is never valid.
type Space struct {
	next    uint64
	regions []Region
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := new(Space)
	s.Reset()
	return s
}

// Reset empties the space as NewSpace built it, keeping the region slice's
// storage: the next Alloc starts at the first page again.
func (s *Space) Reset() {
	clear(s.regions)
	*s = Space{next: PageSize, regions: s.regions[:0]}
}

// Alloc reserves size bytes (rounded up to whole pages) and tags them.
func (s *Space) Alloc(name string, size uint64, abft bool) Region {
	if size == 0 {
		size = 1
	}
	pages := (size + PageSize - 1) / PageSize
	r := Region{Name: name, Base: s.next, Size: pages * PageSize, ABFT: abft}
	s.next += r.Size
	s.regions = append(s.regions, r)
	return r
}

// AllocFloats reserves room for n float64 values.
func (s *Space) AllocFloats(name string, n int, abft bool) Region {
	return s.Alloc(name, uint64(n)*8, abft)
}

// Regions returns all allocated regions in allocation order.
func (s *Space) Regions() []Region { return s.regions }

// Find returns the region containing addr, or false.
func (s *Space) Find(addr uint64) (Region, bool) {
	for _, r := range s.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// IsABFT reports whether addr belongs to an ABFT-protected region.
func (s *Space) IsABFT(addr uint64) bool {
	r, ok := s.Find(addr)
	return ok && r.ABFT
}

// Memory forwards element-range touches to a probe at cacheline granularity.
// The zero value (nil probe) is usable and free.
type Memory struct {
	Probe Probe
	// OnOps, if set, receives arithmetic-operation counts so the timing
	// model can advance compute time alongside memory traffic.
	OnOps func(n int)
}

// Dormant reports whether nobody is listening: every Touch and Ops call is
// currently a no-op, so a kernel may skip a walk that only reports. A
// functional machine's Memory leaves dormancy only inside FlushCaches,
// which kernels reach through their step hooks and nowhere else.
func (m *Memory) Dormant() bool { return m == nil || (m.Probe == nil && m.OnOps == nil) }

// Ops reports n arithmetic operations performed by the kernel.
func (m *Memory) Ops(n int) {
	if m == nil || m.OnOps == nil || n <= 0 {
		return
	}
	m.OnOps(n)
}

// Touch reports an access to bytes [addr, addr+size).
func (m *Memory) Touch(addr uint64, size int, write bool) {
	if m == nil || m.Probe == nil || size <= 0 {
		return
	}
	// The probe is read once: it may clear m.Probe from inside a call (a
	// functional machine going dormant) and still receives the rest of
	// this range.
	probe := m.Probe
	first := addr &^ (LineSize - 1)
	last := (addr + uint64(size) - 1) &^ (LineSize - 1)
	for line := first; line <= last; line += LineSize {
		probe(line, write)
	}
}

// TouchFloats reports an access to n consecutive float64 values starting at
// element index idx of a region.
func (m *Memory) TouchFloats(r Region, idx, n int, write bool) {
	if m == nil || m.Probe == nil || n <= 0 {
		return
	}
	m.Touch(r.Base+uint64(idx)*8, n*8, write)
}

// TouchStrided reports an access to count elements spaced stride float64
// apart (a column walk): each element usually lands on its own line.
func (m *Memory) TouchStrided(r Region, idx, count, stride int, write bool) {
	if m == nil || m.Probe == nil || count <= 0 {
		return
	}
	for k := 0; k < count; k++ {
		m.Touch(r.Base+uint64(idx+k*stride)*8, 8, write)
	}
}

// Counter is a probe that tallies accesses per region — the profiling used
// for Table 4. Wrap it around another probe with Chain.
type Counter struct {
	space *Space
	// ABFTRefs and OtherRefs count cacheline touches to ABFT-protected and
	// unprotected regions respectively.
	ABFTRefs, OtherRefs uint64
	ByRegion            map[string]uint64
}

// NewCounter returns a Counter classifying against space.
func NewCounter(space *Space) *Counter {
	return &Counter{space: space, ByRegion: make(map[string]uint64)}
}

// Probe records one access.
func (c *Counter) Probe(addr uint64, write bool) {
	r, ok := c.space.Find(addr)
	if ok && r.ABFT {
		c.ABFTRefs++
	} else {
		c.OtherRefs++
	}
	if ok {
		c.ByRegion[r.Name]++
	} else {
		c.ByRegion["<unmapped>"]++
	}
}

// Ratio returns ABFTRefs / OtherRefs (∞-safe: returns 0 when OtherRefs is 0
// and ABFTRefs is 0, and a large value string is avoided by the caller).
func (c *Counter) Ratio() float64 {
	if c.OtherRefs == 0 {
		if c.ABFTRefs == 0 {
			return 0
		}
		return float64(c.ABFTRefs)
	}
	return float64(c.ABFTRefs) / float64(c.OtherRefs)
}

// Chain fans one probe event out to several probes.
func Chain(probes ...Probe) Probe {
	return func(addr uint64, write bool) {
		for _, p := range probes {
			if p != nil {
				p(addr, write)
			}
		}
	}
}

// String describes the counter.
func (c *Counter) String() string {
	return fmt.Sprintf("trace.Counter{abft: %d, other: %d, ratio: %.1f}",
		c.ABFTRefs, c.OtherRefs, c.Ratio())
}
