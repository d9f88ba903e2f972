// Package cache models the on-chip cache hierarchy of the evaluation
// platform (Table 3): split 16KB 4-way L1 caches and a shared 8MB 16-way L2,
// 64B blocks, LRU replacement, write-back/write-allocate. It is the McSim
// cache substitute; the machine package wires its miss stream into the
// memory controller.
package cache

import "fmt"

// LineBytes is the block size (Table 3: 64B).
const LineBytes = 64

// Config sizes one cache level.
type Config struct {
	SizeBytes int
	Ways      int
}

// L1Default is the Table 3 L1 data cache: 16KB, 4-way.
func L1Default() Config { return Config{SizeBytes: 16 << 10, Ways: 4} }

// L2Default is the Table 3 shared L2: 8MB, 16-way.
func L2Default() Config { return Config{SizeBytes: 8 << 20, Ways: 16} }

// Stats counts accesses at one level.
type Stats struct {
	Hits, Misses uint64
	Writebacks   uint64
}

// Outcome describes the result of a single-level access.
type Outcome struct {
	Hit bool
	// Writeback is set when a dirty victim was evicted; VictimAddr is its
	// line address.
	Writeback  bool
	VictimAddr uint64
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

// Cache is one set-associative write-back level.
type Cache struct {
	cfg Config
	// lines backs every set in one allocation: set s owns
	// lines[s*ways : (s+1)*ways].
	lines []line
	ways  uint64
	nsets uint64
	tick  uint64
	stats Stats
}

// New builds a cache; SizeBytes must be a multiple of Ways*LineBytes and
// the resulting set count must be a power of two.
func New(cfg Config) *Cache {
	nsets := cfg.SizeBytes / (cfg.Ways * LineBytes)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a positive power of two", nsets))
	}
	c := &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Ways)}
	c.Reset()
	return c
}

// Reset returns the cache to the state New built it in, over the same line
// array: every line invalid, tick and counters zero. It is the constructor's
// own body, so a field added to Cache is fresh after a Reset unless it is
// carried over here by name.
func (c *Cache) Reset() {
	clear(c.lines)
	ways := uint64(c.cfg.Ways)
	*c = Cache{cfg: c.cfg, lines: c.lines, ways: ways, nsets: uint64(len(c.lines)) / ways}
}

func (c *Cache) set(s uint64) []line { return c.lines[s*c.ways : (s+1)*c.ways] }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up the line containing addr; on a miss it allocates,
// evicting the LRU way. write marks the line dirty.
func (c *Cache) Access(addr uint64, write bool) Outcome {
	lineAddr := addr / LineBytes
	set := lineAddr % c.nsets
	tag := lineAddr / c.nsets
	ways := c.set(set)
	c.tick++

	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if write {
				ways[i].dirty = true
			}
			c.stats.Hits++
			return Outcome{Hit: true}
		}
	}
	c.stats.Misses++

	// Choose victim: an invalid way if any, else LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	out := Outcome{}
	if ways[victim].valid && ways[victim].dirty {
		out.Writeback = true
		out.VictimAddr = (ways[victim].tag*c.nsets + set) * LineBytes
		c.stats.Writebacks++
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return out
}

// Flush invalidates every resident line, calling wb (if non-nil) for each
// dirty one with its line address.
func (c *Cache) Flush(wb func(addr uint64)) {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid && l.dirty && wb != nil {
			c.stats.Writebacks++
			wb((l.tag*c.nsets + uint64(i)/c.ways) * LineBytes)
		}
		*l = line{}
	}
}

// Contains reports whether addr's line is resident (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr / LineBytes
	set := lineAddr % c.nsets
	tag := lineAddr / c.nsets
	for _, w := range c.set(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// MissEvent is one request leaving the hierarchy toward memory.
type MissEvent struct {
	Addr  uint64
	Write bool // true for dirty writebacks
	// Demand is true for fills the CPU is waiting on; writebacks are not
	// on the critical path.
	Demand bool
}

// Hierarchy chains an L1 data cache and a shared L2. L2 misses and L2
// writebacks are delivered to the Miss callback (the memory controller).
type Hierarchy struct {
	L1, L2 *Cache
	Miss   func(ev MissEvent)
}

// NewHierarchy builds the two-level hierarchy with the given configs.
func NewHierarchy(l1, l2 Config, miss func(ev MissEvent)) *Hierarchy {
	return &Hierarchy{L1: New(l1), L2: New(l2), Miss: miss}
}

// Reset empties both levels as their constructor left them (nothing is
// written back: the contents are dropped, not flushed) and keeps the Miss
// wiring.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	*h = Hierarchy{L1: h.L1, L2: h.L2, Miss: h.Miss}
}

// Level identifies where an access was served.
type Level int

const (
	// LevelL1 means the access hit in L1.
	LevelL1 Level = iota
	// LevelL2 means it missed L1 and hit L2.
	LevelL2
	// LevelMemory means it missed both levels and went to DRAM.
	LevelMemory
)

// Access walks one data access through the hierarchy and returns where it
// was served.
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	if o := h.L1.Access(addr, write); o.Hit {
		return LevelL1
	} else if o.Writeback {
		// L1 dirty victim lands in L2 (it is inclusive enough for our
		// purposes: allocate on writeback).
		if o2 := h.L2.Access(o.VictimAddr, true); !o2.Hit {
			h.emitFill(o2, o.VictimAddr)
		}
	}
	o2 := h.L2.Access(addr, false)
	if o2.Hit {
		return LevelL2
	}
	h.emitFill(o2, addr)
	return LevelMemory
}

// Flush writes all dirty state back to memory and empties both levels —
// the model of a cache flush between program phases.
func (h *Hierarchy) Flush() {
	h.L1.Flush(func(addr uint64) {
		if o := h.L2.Access(addr, true); o.Writeback && h.Miss != nil {
			h.Miss(MissEvent{Addr: o.VictimAddr, Write: true, Demand: false})
		}
	})
	h.L2.Flush(func(addr uint64) {
		if h.Miss != nil {
			h.Miss(MissEvent{Addr: addr, Write: true, Demand: false})
		}
	})
}

func (h *Hierarchy) emitFill(o Outcome, addr uint64) {
	if h.Miss == nil {
		return
	}
	if o.Writeback {
		h.Miss(MissEvent{Addr: o.VictimAddr, Write: true, Demand: false})
	}
	h.Miss(MissEvent{Addr: addr &^ (LineBytes - 1), Write: false, Demand: true})
}
