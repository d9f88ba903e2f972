// Package machine assembles the full evaluation platform of Figure 4 —
// the McSim + DRAMSim2 substitute: an in-order core, the L1/L2 hierarchy,
// the ECC-aware memory controller, the DRAM timing/power model, and the OS
// model, all driven by the instrumentation probes the ABFT kernels emit.
//
// Two constructors share that wiring. New is the timed platform: every
// cacheline a kernel touches walks the hierarchy and costs cycles and
// joules, which is what the paper's figures are made of (experiments,
// scaling, abftsim, paperfigs, the examples). NewFunctional keeps only what
// decides a run's outcome — OS, controller fault table and ECC codecs, and
// the hierarchy as the filter that decides which fetches reach DRAM — and
// drops time: no core, no DRAM timing, and no per-line work at all while
// the fault table is empty. Serving and the soak harness, which report
// outcomes and never cycles, use it.
package machine

import (
	"fmt"

	"coopabft/internal/cache"
	"coopabft/internal/cpu"
	"coopabft/internal/dram"
	"coopabft/internal/ecc"
	"coopabft/internal/memctrl"
	"coopabft/internal/osmodel"
	"coopabft/internal/trace"
)

// InterruptHandlerCycles is the modeled cost of taking the ECC-error
// interrupt and running the §3.2.1 handler (read error registers, derive
// addresses, publish to the shared list).
const InterruptHandlerCycles = 20000

// Config assembles the component configurations.
type Config struct {
	CPU  cpu.Config
	L1   cache.Config
	L2   cache.Config
	DRAM dram.Config
	// DefaultScheme is the strong protection covering all memory not
	// explicitly relaxed through malloc_ecc.
	DefaultScheme ecc.Scheme
}

// DefaultConfig reproduces Table 3 verbatim.
func DefaultConfig() Config {
	return Config{
		CPU:           cpu.DefaultConfig(),
		L1:            cache.L1Default(),
		L2:            cache.L2Default(),
		DRAM:          dram.DefaultConfig(),
		DefaultScheme: ecc.Chipkill,
	}
}

// ScaledConfig shrinks the node to a 1/divisor "slice" so that scaled-down
// matrices (the harness default; the paper simulates 3000²) keep the
// paper's ratios: the L2 keeps the working-set-to-LLC ratio, and the
// always-on power terms (processor idle/max power, DRAM background power)
// shrink with it so static energy does not drown the dynamic deltas the
// experiments measure. Per-access DRAM energies are untouched — they are
// per-chip physics, not capacity.
func ScaledConfig(divisor int) Config {
	c := DefaultConfig()
	WithL2Divisor(divisor)(&c)
	return c
}

// Machine is one simulated node.
type Machine struct {
	cfg Config
	// Core is nil on a functional machine: no time passes there.
	Core *cpu.Core
	// Hier is nil on a functional machine until its first arm.
	Hier *cache.Hierarchy
	Ctl  *memctrl.Controller
	OS   *osmodel.OS

	mem        *trace.Memory
	llcABFT    uint64 // Table 4: LLC misses to ABFT-protected blocks
	llcOther   uint64
	curVaddr   uint64 // vaddr of the access currently in flight
	interrupts uint64

	// One-entry translation cache: consecutive lines share a page, so this
	// absorbs all but the first lookup of a row walk.
	lastPage, lastFrame uint64

	arms uint64 // functional only: dormant→armed transitions
}

// noPage marks the translation cache empty (no vaddr maps to this page).
const noPage = ^uint64(0)

// New builds the timed machine.
func New(cfg Config) *Machine {
	m := newMachine(cfg)
	m.Core = cpu.New(cfg.CPU)
	m.Hier = cache.NewHierarchy(cfg.L1, cfg.L2, m.handleMiss)
	m.mem = &trace.Memory{Probe: m.probe, OnOps: m.ops}
	return m
}

// NewFunctional builds a machine that decides the same outcomes as New's —
// which faults hardware corrects, which reach the OS and ABFT, which panic
// — without modelling time. Its hierarchy is dormant (Memory().Probe is
// nil, so a kernel's Touch calls cost one branch) whenever the controller's
// fault table is empty; FlushCaches arms it when residual patterns exist,
// and it disarms itself once the table has drained.
//
// This is exact, not an approximation, for the inject-then-flush discipline
// every campaign in this repository follows:
//
//  1. the controller's ECC check runs only on demand misses and returns at
//     its first lookup when the fetched line carries no residual pattern,
//     so with an empty fault table no hierarchy state can change an outcome;
//  2. a flush invalidates every line, and LRU only compares ticks among
//     lines filled afterwards, so a hierarchy first built at the flush sees
//     the same hit/miss stream from there on as one that has been running
//     since the start;
//  3. nothing functional reads the clock (an error record's cycle is only
//     copied along).
//
// A fault injected without a following FlushCaches stays unobserved by
// hardware until the next one. Finish reports ECC and OS counters with zero
// time and energy.
//
// A functional machine can be recycled: Reset returns it to the state this
// constructor leaves it in, over the storage it has grown (page maps, fault
// table, line arrays), so a server keeps a few of them for all its requests
// instead of building one per request.
func NewFunctional(cfg Config) *Machine {
	m := newMachine(cfg)
	m.mem = &trace.Memory{}
	return m
}

// Reset returns a functional machine to the state NewFunctional built it
// in, with scheme as the default protection: controller and OS reset, the
// hierarchy (if one was ever built) emptied and dormant, every counter zero.
// A reset hierarchy is a flushed one with tick 0, which by point 2 above is
// indistinguishable from one built at the next arm. A timed machine is
// refused: its core and DRAM model have no Reset, and nothing recycles one.
func (m *Machine) Reset(scheme ecc.Scheme) {
	if !m.functional() {
		panic("machine: Reset of a timed machine")
	}
	// arms counts this life's dormant→armed transitions: with none, the
	// hierarchy is still as the previous Reset left it.
	if m.Hier != nil && m.arms > 0 {
		m.Hier.Reset()
	}
	m.Ctl.Reset(scheme)
	m.OS.Reset()
	*m.mem = trace.Memory{}
	cfg := m.cfg
	cfg.DefaultScheme = scheme
	m.init(cfg)
}

// init is the one body behind the constructors and Reset: every field at
// its initial value except the components and their wiring, which are
// carried over, so a field added to Machine is fresh after a Reset unless
// it is named here.
func (m *Machine) init(cfg Config) {
	*m = Machine{cfg: cfg, Core: m.Core, Hier: m.Hier, Ctl: m.Ctl, OS: m.OS, mem: m.mem, lastPage: noPage}
}

// newMachine wires what both constructors share: controller, OS, interrupt
// accounting and translation shootdown.
func newMachine(cfg Config) *Machine {
	m := new(Machine)
	m.init(cfg)
	m.Ctl = memctrl.New(dram.New(cfg.DRAM), cfg.DefaultScheme)
	m.OS = osmodel.New(m.Ctl)
	// Wrap the OS interrupt handler to count interrupts and, where there is
	// a core, charge it the handler cost.
	osHandler := m.Ctl.OnUncorr
	m.Ctl.OnUncorr = func(rec memctrl.ErrorRecord) {
		m.interrupts++
		if m.Core != nil {
			m.Core.Advance(InterruptHandlerCycles)
		}
		osHandler(rec)
	}
	// TLB shootdown on page remaps (retirement/migration).
	m.OS.OnRemap = func(vpage uint64) {
		if vpage == m.lastPage {
			m.lastPage = noPage
		}
	}
	return m
}

// functional reports whether NewFunctional built m.
func (m *Machine) functional() bool { return m.Core == nil }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Memory returns the instrumentation endpoint kernels write their accesses
// and operation counts to.
func (m *Machine) Memory() *trace.Memory { return m.mem }

// ops advances compute time.
func (m *Machine) ops(n int) { m.Core.Compute(uint64(n)) }

// probe walks one data access through translation and the cache hierarchy.
func (m *Machine) probe(vaddr uint64, write bool) {
	paddr, ok := m.translate(vaddr)
	if !ok {
		// Accesses outside OS allocations (kernel scratch that was not
		// allocated through the OS model) are ignored by the platform.
		return
	}
	m.curVaddr = vaddr
	switch m.Hier.Access(paddr, write) {
	case cache.LevelL1:
		m.Core.L1Hit()
	case cache.LevelL2:
		m.Core.L2Hit()
	case cache.LevelMemory:
		// Timing handled in handleMiss via the MSHR window.
	}
}

// handleMiss services the L2 miss stream at the memory controller.
func (m *Machine) handleMiss(ev cache.MissEvent) {
	if ev.Demand {
		if m.OS.Space.IsABFT(m.curVaddr) {
			m.llcABFT++
		} else {
			m.llcOther++
		}
		issue := m.Core.BeginMiss()
		res := m.Ctl.Access(issue, ev.Addr, false, true)
		m.Core.CompleteMiss(res.Complete)
		return
	}
	// Writebacks occupy banks and consume energy off the critical path.
	m.Ctl.Access(m.Core.Now(), ev.Addr, ev.Write, false)
}

func (m *Machine) translate(vaddr uint64) (uint64, bool) {
	page := vaddr / osmodel.PageSize
	if page != m.lastPage {
		paddr, err := m.OS.Translate(vaddr)
		if err != nil {
			return 0, false
		}
		m.lastPage, m.lastFrame = page, paddr-vaddr%osmodel.PageSize
	}
	return m.lastFrame + vaddr%osmodel.PageSize, true
}

// probeFunctional is the armed functional machine's probe: translation and
// the hierarchy walk, no timing. It disarms at the first access that finds
// the fault table drained.
func (m *Machine) probeFunctional(vaddr uint64, write bool) {
	if m.Ctl.FaultyLines() == 0 {
		// Drained (hardware correction, ABFT overwrite or restart): from
		// here no access can change an outcome until the next injection,
		// whose flush rebuilds the hierarchy state from empty anyway.
		m.mem.Probe = nil
		return
	}
	if paddr, ok := m.translate(vaddr); ok {
		m.Hier.Access(paddr, write)
	}
}

// missFunctional hands demand fills to the controller's ECC check;
// writebacks only cost time, which a functional machine does not keep.
func (m *Machine) missFunctional(ev cache.MissEvent) {
	if ev.Demand {
		m.Ctl.DemandRead(ev.Addr)
	}
}

// FlushCaches writes back all dirty lines and empties the hierarchy, so
// subsequent reads observe memory contents (used between program phases and
// by fault-injection campaigns: a DRAM error is only visible on a fetch).
// On a functional machine this is also where the hierarchy is armed: built
// on first use, live from here on if the fault table holds anything.
func (m *Machine) FlushCaches() {
	if !m.functional() {
		m.Hier.Flush()
		return
	}
	if m.Ctl.FaultyLines() == 0 {
		return
	}
	if m.Hier == nil {
		m.Hier = cache.NewHierarchy(m.cfg.L1, m.cfg.L2, m.missFunctional)
	} else {
		m.Hier.Flush()
	}
	if m.mem.Probe == nil {
		m.arms++
		m.mem.Probe = m.probeFunctional
	}
}

// Arms returns how many times a functional machine's hierarchy went from
// dormant to armed (always 0 on a timed machine, whose hierarchy is never
// dormant).
func (m *Machine) Arms() uint64 { return m.arms }

// Result summarizes a finished run.
type Result struct {
	Cycles       uint64
	Seconds      float64
	Instructions uint64
	IPC          float64

	ProcEnergyJ   float64
	MemDynamicJ   float64
	MemStandbyJ   float64
	SystemEnergyJ float64

	LLCMissABFT  uint64
	LLCMissOther uint64
	RowHitRate   float64
	Interrupts   uint64
	ECC          memctrl.Stats
	OS           osmodel.Stats
}

// MemEnergyJ returns total memory energy.
func (r Result) MemEnergyJ() float64 { return r.MemDynamicJ + r.MemStandbyJ }

// Finish drains outstanding misses, charges standby energy, and returns the
// run summary. The machine can keep running afterwards, but energy totals
// are only consistent at Finish points. A functional machine reports its
// ECC, OS and interrupt counters and zero for everything timed.
func (m *Machine) Finish() Result {
	if m.functional() {
		return Result{Interrupts: m.interrupts, ECC: m.Ctl.Stats(), OS: m.OS.Stats()}
	}
	m.Core.Drain()
	st := m.Ctl.Mem.Finalize(m.Core.Now(), m.cfg.CPU.ClockHz)
	r := Result{
		Cycles:       m.Core.Now(),
		Seconds:      m.Core.Seconds(),
		Instructions: m.Core.Instructions(),
		IPC:          m.Core.IPC(),
		ProcEnergyJ:  m.Core.EnergyJ(),
		MemDynamicJ:  st.DynamicEnergyJ + m.Ctl.Stats().ECCEnergyJ,
		MemStandbyJ:  st.StandbyEnergyJ,
		LLCMissABFT:  m.llcABFT,
		LLCMissOther: m.llcOther,
		RowHitRate:   st.RowHitRate(),
		Interrupts:   m.interrupts,
		ECC:          m.Ctl.Stats(),
		OS:           m.OS.Stats(),
	}
	r.SystemEnergyJ = r.ProcEnergyJ + r.MemDynamicJ + r.MemStandbyJ
	return r
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("machine.Result{%.3g s, IPC %.3f, proc %.3g J, mem %.3g J (dyn %.3g), llc abft/other %d/%d}",
		r.Seconds, r.IPC, r.ProcEnergyJ, r.MemEnergyJ(), r.MemDynamicJ, r.LLCMissABFT, r.LLCMissOther)
}
