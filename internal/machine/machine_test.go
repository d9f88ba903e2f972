package machine

import (
	"reflect"
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

// functionalScript takes a functional machine through an armed life: a
// relaxed ABFT allocation and a plain one, a working set larger than the L2
// walked with writes, a correctable fault on plain data and an uncorrectable
// one on ABFT data, both read back through the armed hierarchy. The result
// is everything the machine reports, plus what the OS exposed.
func functionalScript(t *testing.T, m *Machine) (Result, []uint64, uint64) {
	t.Helper()
	abft, err := m.OS.MallocECC("abft", 512<<10, ecc.None, true)
	if err != nil {
		t.Fatal(err)
	}
	plain := m.OS.Malloc("plain", 64<<10)
	var one, two memctrl.Pattern
	one.Data[0], two.Data[8] = 0x01, 0x03
	m.OS.AssignECC(abft, ecc.SECDED)
	if err := m.OS.InjectAt(plain.VBase()+4096, one); err != nil {
		t.Fatal(err)
	}
	if err := m.OS.InjectAt(abft.VBase()+300<<10, two); err != nil {
		t.Fatal(err)
	}
	m.FlushCaches()
	m.Memory().Touch(abft.VBase(), 512<<10, true)
	touchRange(m, plain, 64<<10)
	var exposed []uint64
	for _, c := range m.OS.PendingCorruptions() {
		exposed = append(exposed, c.VirtAddr)
	}
	return m.Finish(), exposed, m.Arms()
}

// TestFunctionalResetEqualsNew: Reset(scheme) then a scripted use equals
// NewFunctional then the same use, for a machine recycled out of an armed
// life under a different default scheme, with its hierarchy full of dirty
// lines, a residual pattern in the fault table and a live translation cache.
func TestFunctionalResetEqualsNew(t *testing.T) {
	cfg := ScaledConfig(32)
	cfg.DefaultScheme = ecc.SECDED
	wantRes, wantExposed, wantArms := functionalScript(t, NewFunctional(cfg))
	if wantRes.ECC.CorrectedErrors != 1 || wantRes.Interrupts != 1 || len(wantExposed) != 1 || wantArms != 1 {
		t.Fatalf("the script does not reach correction, interrupt and exposure: %+v, exposed %v, armed %d", wantRes, wantExposed, wantArms)
	}

	other := cfg
	other.DefaultScheme = ecc.None
	used := NewFunctional(other)
	functionalScript(t, used)
	if used.Hier == nil || used.Ctl.FaultyLines() == 0 || used.Memory().Probe == nil {
		t.Fatal("the machine to recycle was not left armed and dirty")
	}
	mem, hier := used.Memory(), used.Hier
	used.Reset(ecc.SECDED)
	if used.Memory() != mem || used.Hier != hier {
		t.Error("Reset replaced the Memory endpoint or the hierarchy instead of recycling them")
	}
	if !used.Memory().Dormant() || used.Arms() != 0 || used.Ctl.FaultyLines() != 0 || used.Config().DefaultScheme != ecc.SECDED ||
		!reflect.DeepEqual(used.Finish(), Result{}) {
		t.Fatalf("after Reset: dormant %v, armed %d, %d faulty lines, result %+v", used.Memory().Dormant(), used.Arms(), used.Ctl.FaultyLines(), used.Finish())
	}
	res, exposed, arms := functionalScript(t, used)
	if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(exposed, wantExposed) || arms != wantArms {
		t.Errorf("recycled machine diverged from a new one:\n new      %+v exposed %v armed %d\n recycled %+v exposed %v armed %d",
			wantRes, wantExposed, wantArms, res, exposed, arms)
	}

	// A clean life leaves the hierarchy as the last Reset left it, and the
	// next Reset still hands back a machine that behaves like a new one.
	used.Reset(ecc.SECDED)
	touchRange(used, used.OS.Malloc("d", 1<<16), 1<<16)
	used.Reset(ecc.SECDED)
	if res, exposed, arms := functionalScript(t, used); !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(exposed, wantExposed) || arms != wantArms {
		t.Errorf("machine recycled after a clean life diverged from a new one: %+v exposed %v armed %d", res, exposed, arms)
	}
}

// TestResetRefusesTimedMachine: a timed machine's core and DRAM model have
// no Reset; recycling one would carry cycles and energy into the next run.
func TestResetRefusesTimedMachine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a timed machine did not panic")
		}
	}()
	New(ScaledConfig(32)).Reset(ecc.SECDED)
}
