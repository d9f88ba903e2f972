package machine

import (
	"testing"

	"coopabft/internal/ecc"
	"coopabft/internal/memctrl"
	"coopabft/internal/osmodel"
)

// touchRange streams sequential read accesses over an allocation.
func touchRange(m *Machine, a *osmodel.Allocation, bytes uint64) {
	mem := m.Memory()
	for off := uint64(0); off < bytes; off += 64 {
		mem.Touch(a.VBase()+off, 8, false)
	}
}

func TestComputeOnlyRun(t *testing.T) {
	m := New(ScaledConfig(32))
	m.Memory().Ops(1000)
	r := m.Finish()
	if r.Cycles == 0 || r.Instructions != 1000 {
		t.Errorf("result = %+v", r)
	}
	if r.ProcEnergyJ <= 0 || r.MemStandbyJ <= 0 {
		t.Error("energies not accounted")
	}
	if r.MemDynamicJ != 0 {
		t.Error("dynamic memory energy without accesses")
	}
	if r.SystemEnergyJ != r.ProcEnergyJ+r.MemDynamicJ+r.MemStandbyJ {
		t.Error("system energy inconsistent")
	}
}

func TestUnmappedAccessIgnored(t *testing.T) {
	m := New(ScaledConfig(32))
	m.Memory().Touch(0xdeadbeef000, 8, false) // never allocated
	r := m.Finish()
	if r.LLCMissABFT+r.LLCMissOther != 0 {
		t.Error("unmapped access reached memory")
	}
}

func TestMissClassificationTable4Style(t *testing.T) {
	m2 := New(ScaledConfig(32))
	a, err := m2.OS.MallocECC("abft-data", 1<<20, ecc.None, true)
	if err != nil {
		t.Fatal(err)
	}
	b := m2.OS.Malloc("other", 1<<20)
	touchRange(m2, a, 1<<20) // 16384 lines
	touchRange(m2, b, 1<<18) // 4096 lines
	r := m2.Finish()
	if r.LLCMissABFT == 0 || r.LLCMissOther == 0 {
		t.Fatalf("classification empty: %+v", r)
	}
	ratio := float64(r.LLCMissABFT) / float64(r.LLCMissOther)
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("miss ratio = %v, want ≈4", ratio)
	}
}

func TestCacheFiltersRepeatedAccesses(t *testing.T) {
	m := New(ScaledConfig(32))
	a := m.OS.Malloc("x", 1<<16)
	touchRange(m, a, 1<<16)
	first := m.Ctl.Mem.Stats().Reads
	touchRange(m, a, 1<<16) // 64KB fits in the scaled 256KB L2
	second := m.Ctl.Mem.Stats().Reads - first
	if second != 0 {
		t.Errorf("second sweep caused %d DRAM reads, want 0 (L2-resident)", second)
	}
}

func TestChipkillSlowerAndHotterThanNone(t *testing.T) {
	run := func(scheme ecc.Scheme) Result {
		cfg := ScaledConfig(32)
		cfg.DefaultScheme = scheme
		m := New(cfg)
		a := m.OS.Malloc("big", 8<<20)
		// Stream over 8MB, far beyond the scaled L2 → heavy DRAM traffic.
		touchRange(m, a, 8<<20)
		return m.Finish()
	}
	ck := run(ecc.Chipkill)
	nn := run(ecc.None)
	if ck.MemDynamicJ <= nn.MemDynamicJ {
		t.Errorf("chipkill dynamic %g <= none %g", ck.MemDynamicJ, nn.MemDynamicJ)
	}
	if ck.IPC > nn.IPC {
		t.Errorf("chipkill IPC %v > none %v", ck.IPC, nn.IPC)
	}
}

func TestInterruptFlowsToOS(t *testing.T) {
	m := New(ScaledConfig(32))
	a, err := m.OS.MallocECC("abft", 1<<16, ecc.SECDED, true)
	if err != nil {
		t.Fatal(err)
	}
	// Plant an uncorrectable (double-bit) error and read through it.
	var p memctrl.Pattern
	p.Data[0] = 0x03
	if err := m.OS.InjectAt(a.VBase(), p); err != nil {
		t.Fatal(err)
	}
	before := m.Core.Now()
	touchRange(m, a, 64)
	r := m.Finish()
	if r.Interrupts != 1 {
		t.Fatalf("interrupts = %d", r.Interrupts)
	}
	if r.OS.ExposedToABFT != 1 {
		t.Errorf("OS stats = %+v", r.OS)
	}
	if m.Core.Now() < before+InterruptHandlerCycles {
		t.Error("interrupt handler cost not charged")
	}
	pend := m.OS.PendingCorruptions()
	if len(pend) != 1 || pend[0].Alloc != a {
		t.Errorf("pending = %+v", pend)
	}
}

func TestScaledConfigShrinksL2(t *testing.T) {
	full := DefaultConfig()
	s := ScaledConfig(32)
	if s.L2.SizeBytes != full.L2.SizeBytes/32 {
		t.Errorf("scaled L2 = %d", s.L2.SizeBytes)
	}
	// Extreme divisor clamps to a valid geometry.
	tiny := ScaledConfig(1 << 30)
	if tiny.L2.SizeBytes < tiny.L2.Ways*64 {
		t.Error("scaled config below minimum geometry")
	}
}

func TestMemEnergyAccumulatesECCLogic(t *testing.T) {
	cfg := ScaledConfig(32)
	cfg.DefaultScheme = ecc.SECDED
	m := New(cfg)
	a := m.OS.Malloc("d", 1<<16)
	var p memctrl.Pattern
	p.Data[0] = 0x01 // single bit: corrected by hardware
	m.OS.InjectAt(a.VBase(), p)
	touchRange(m, a, 64)
	r := m.Finish()
	if r.ECC.CorrectedErrors != 1 {
		t.Fatalf("ecc stats = %+v", r.ECC)
	}
	if r.MemDynamicJ <= 0 {
		t.Error("dynamic energy missing")
	}
}

// TestTLBShootdownOnPageRetirement holds for both machines: the
// translation cache is shared code.
func TestTLBShootdownOnPageRetirement(t *testing.T) {
	for _, build := range []func(Config) *Machine{New, NewFunctional} {
		m := build(ScaledConfig(32))
		a, err := m.OS.MallocECC("abft", 4096, ecc.SECDED, true)
		if err != nil {
			t.Fatal(err)
		}
		// Warm the TLB.
		touchRange(m, a, 64)
		// Drive enough uncorrectable errors through one page to retire it.
		for i := 0; i < osmodel.DefaultRetireThreshold; i++ {
			var p memctrl.Pattern
			p.Data[0] = 0x03
			if err := m.OS.InjectAt(a.VBase()+uint64(i)*64, p); err != nil {
				t.Fatal(err)
			}
			m.FlushCaches()
			m.Memory().Touch(a.VBase()+uint64(i)*64, 8, false)
			m.OS.ClearFaultAt(a.VBase() + uint64(i)*64)
		}
		if m.OS.Stats().PagesRetired != 1 {
			t.Fatalf("pages retired = %d", m.OS.Stats().PagesRetired)
		}
		// A fresh uncorrectable error on the SAME virtual page must be observed
		// through the NEW frame — stale TLB entries would miss it.
		var p memctrl.Pattern
		p.Data[0] = 0x03
		if err := m.OS.InjectAt(a.VBase()+512, p); err != nil {
			t.Fatal(err)
		}
		m.FlushCaches()
		before := m.Ctl.Stats().UncorrectableErrors
		m.Memory().Touch(a.VBase()+512, 8, false)
		if m.Ctl.Stats().UncorrectableErrors != before+1 {
			t.Error("post-retirement error not observed: stale TLB translation")
		}
	}
}

// TestFunctionalDormancy walks a functional machine through its life: no
// hierarchy and no probe while the fault table is empty, armed by the flush
// that follows an injection, the same hardware correction the timed machine
// makes, dormant again once the table has drained, and a Finish that
// carries the ECC counters and no time.
func TestFunctionalDormancy(t *testing.T) {
	cfg := ScaledConfig(32)
	cfg.DefaultScheme = ecc.SECDED
	m := NewFunctional(cfg)
	a := m.OS.Malloc("d", 1<<16)
	m.FlushCaches()
	if m.Hier != nil || m.Memory().Probe != nil || m.Memory().OnOps != nil {
		t.Fatal("clean functional machine is not dormant")
	}

	var p memctrl.Pattern
	p.Data[0] = 0x01 // single bit: corrected by hardware
	if err := m.OS.InjectAt(a.VBase()+4096, p); err != nil {
		t.Fatal(err)
	}
	touchRange(m, a, 1<<16)
	if m.Ctl.FaultyLines() != 1 || m.Arms() != 0 {
		t.Fatal("fault observed before the flush that arms the hierarchy")
	}
	m.FlushCaches()
	if m.Memory().Probe == nil || m.Arms() != 1 {
		t.Fatal("flush over a non-empty fault table did not arm the hierarchy")
	}
	touchRange(m, a, 1<<16)
	if m.Memory().Probe != nil {
		t.Error("hierarchy still armed after the fault table drained")
	}
	r := m.Finish()
	if r.ECC.CorrectedErrors != 1 || m.Ctl.FaultyLines() != 0 {
		t.Errorf("ecc stats = %+v, %d faulty lines left", r.ECC, m.Ctl.FaultyLines())
	}
	if r.Cycles != 0 || r.Instructions != 0 || r.SystemEnergyJ != 0 || r.LLCMissABFT+r.LLCMissOther != 0 {
		t.Errorf("functional machine reported time or energy: %+v", r)
	}
}
