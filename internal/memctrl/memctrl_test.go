package memctrl

import (
	"reflect"
	"testing"

	"coopabft/internal/dram"
	"coopabft/internal/ecc"
)

func newCtl(def ecc.Scheme) *Controller {
	return New(dram.New(dram.DefaultConfig()), def)
}

func TestSchemeResolution(t *testing.T) {
	c := newCtl(ecc.Chipkill)
	idx, err := c.SetRegion(0x10000, 0x1000, ecc.None)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.SchemeFor(0x10000); s != ecc.None {
		t.Errorf("inside region: %v", s)
	}
	if s := c.SchemeFor(0x10fff); s != ecc.None {
		t.Errorf("last byte of region: %v", s)
	}
	if s := c.SchemeFor(0x11000); s != ecc.Chipkill {
		t.Errorf("past region: %v", s)
	}
	if s := c.SchemeFor(0xffff); s != ecc.Chipkill {
		t.Errorf("before region: %v", s)
	}
	c.UpdateRegion(idx, ecc.SECDED)
	if s := c.SchemeFor(0x10000); s != ecc.SECDED {
		t.Errorf("after assign_ecc: %v", s)
	}
	c.ClearRegion(idx)
	if s := c.SchemeFor(0x10000); s != ecc.Chipkill {
		t.Errorf("after free_ecc: %v", s)
	}
}

func TestRegionRegisterExhaustion(t *testing.T) {
	c := newCtl(ecc.Chipkill)
	for i := 0; i < NumRegions; i++ {
		if _, err := c.SetRegion(uint64(i)*0x1000, 0x1000, ecc.None); err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
	}
	if _, err := c.SetRegion(0x100000, 0x1000, ecc.None); err != ErrNoFreeRegion {
		t.Errorf("9th region err = %v, want ErrNoFreeRegion", err)
	}
	if got := len(c.Regions()); got != NumRegions {
		t.Errorf("Regions() = %d entries", got)
	}
	// Freeing one makes room again.
	c.ClearRegion(3)
	if _, err := c.SetRegion(0x100000, 0x1000, ecc.SECDED); err != nil {
		t.Errorf("after free: %v", err)
	}
}

func TestSingleBitCorrectedBySECDED(t *testing.T) {
	c := newCtl(ecc.SECDED)
	var repaired []uint64
	c.OnRepair = func(line uint64, diff [64]byte) { repaired = append(repaired, line) }
	var p Pattern
	p.Data[5] = 0x10 // single bit
	c.InjectFault(0x40, p)
	c.Access(0, 0x40, false, true)
	st := c.Stats()
	if st.CorrectedErrors != 1 || st.UncorrectableErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(repaired) != 1 || repaired[0] != 0x40 {
		t.Errorf("repaired = %v", repaired)
	}
	if c.FaultyLines() != 0 {
		t.Error("pattern not cleared after correction")
	}
	if st.ECCEnergyJ <= 0 {
		t.Error("no correction energy accounted")
	}
}

func TestDoubleBitRaisesInterrupt(t *testing.T) {
	c := newCtl(ecc.SECDED)
	var recs []ErrorRecord
	c.OnUncorr = func(r ErrorRecord) { recs = append(recs, r) }
	var p Pattern
	p.Data[0] = 0x03 // two bits in word 0
	c.InjectFault(0x1000, p)
	c.Access(0, 0x1000, false, true)
	if len(recs) != 1 {
		t.Fatalf("interrupts = %d, want 1", len(recs))
	}
	if recs[0].PhysLine != 0x1000 || recs[0].Scheme != ecc.SECDED {
		t.Errorf("record = %+v", recs[0])
	}
	if c.FaultyLines() != 1 {
		t.Error("uncorrectable pattern should persist")
	}
	// The fault site is decoded for the OS.
	if recs[0].Location != c.Mem.Config().MapAddress(0x1000) {
		t.Error("fault-site location wrong")
	}
}

func TestChipkillCorrectsChipFailure(t *testing.T) {
	c := newCtl(ecc.Chipkill)
	var p Pattern
	p.Data[7] = 0xff // one whole symbol
	c.InjectFault(0x2000, p)
	c.Access(0, 0x2000, false, true)
	st := c.Stats()
	if st.CorrectedErrors != 1 || st.UncorrectableErrors != 0 {
		t.Errorf("stats = %+v", st)
	}
	if c.FaultyLines() != 0 {
		t.Error("not repaired")
	}
}

func TestChipkillDetectsScattered(t *testing.T) {
	c := newCtl(ecc.Chipkill)
	fired := 0
	c.OnUncorr = func(ErrorRecord) { fired++ }
	var p Pattern
	p.Data[1] = 0x01
	p.Data[9] = 0x01 // two symbols in the same half-line codeword
	c.InjectFault(0x3000, p)
	c.Access(0, 0x3000, false, true)
	if fired != 1 {
		t.Errorf("interrupts = %d", fired)
	}
}

func TestNoECCSilentPassthrough(t *testing.T) {
	c := newCtl(ecc.Chipkill)
	if _, err := c.SetRegion(0, 0x10000, ecc.None); err != nil {
		t.Fatal(err)
	}
	fired := 0
	c.OnUncorr = func(ErrorRecord) { fired++ }
	var p Pattern
	p.Data[0] = 0xff
	p.Data[8] = 0xff
	c.InjectFault(0x40, p)
	c.Access(0, 0x40, false, true)
	if fired != 0 {
		t.Error("no-ECC region raised an interrupt")
	}
	st := c.Stats()
	if st.SilentPassthrough != 1 {
		t.Errorf("passthrough = %d", st.SilentPassthrough)
	}
	if c.FaultyLines() != 1 {
		t.Error("pattern should persist under no ECC")
	}
}

func TestWritesAndPrefetchesSkipECCCheck(t *testing.T) {
	c := newCtl(ecc.SECDED)
	fired := 0
	c.OnUncorr = func(ErrorRecord) { fired++ }
	var p Pattern
	p.Data[0] = 0x03
	c.InjectFault(0x40, p)
	c.Access(0, 0x40, true, true)   // write
	c.Access(0, 0x40, false, false) // non-demand (writeback traffic)
	if fired != 0 {
		t.Errorf("ECC checked on write/non-demand paths: %d", fired)
	}
}

func TestChipkillChecksCompanionLine(t *testing.T) {
	c := newCtl(ecc.Chipkill)
	fired := 0
	c.OnUncorr = func(ErrorRecord) { fired++ }
	comp := c.Mem.Config().CompanionLine(0)
	var p Pattern
	p.Data[0] = 0x01
	p.Data[12] = 0x01
	c.InjectFault(comp, p)
	c.Access(0, 0, false, true) // demand on line 0 prefetches companion
	if fired != 1 {
		t.Errorf("companion line not checked: interrupts = %d", fired)
	}
}

func TestErrorRegisterOverflow(t *testing.T) {
	c := newCtl(ecc.SECDED)
	var p Pattern
	p.Data[0] = 0x03
	for i := 0; i < NumErrorRegisters+2; i++ {
		addr := uint64(i) * 64
		c.InjectFault(addr, p)
		c.Access(0, addr, false, true)
	}
	recs := c.ReadErrorRegisters()
	if len(recs) != NumErrorRegisters {
		t.Fatalf("registers hold %d records", len(recs))
	}
	// Oldest two were flushed: remaining start at line 2.
	if recs[0].PhysLine != 2*64 {
		t.Errorf("oldest surviving record = %#x", recs[0].PhysLine)
	}
	if c.DroppedRecords() != 2 {
		t.Errorf("dropped = %d", c.DroppedRecords())
	}
	// Registers are cleared after the OS reads them.
	if len(c.ReadErrorRegisters()) != 0 {
		t.Error("registers not cleared after read")
	}
}

func TestInjectFaultXORsAndCancels(t *testing.T) {
	c := newCtl(ecc.SECDED)
	var p Pattern
	p.Data[3] = 0x08
	c.InjectFault(0x40, p)
	c.InjectFault(0x40, p) // same flip twice = restored
	if c.FaultyLines() != 0 {
		t.Error("double injection did not cancel")
	}
}

func TestClearFault(t *testing.T) {
	c := newCtl(ecc.SECDED)
	var p Pattern
	p.Data[0] = 0x03
	c.InjectFault(0x80, p)
	c.ClearFault(0x80 + 13) // any address within the line
	if c.FaultyLines() != 0 {
		t.Error("ClearFault did not clear")
	}
}

func TestMiscorrectionLeavesResidual(t *testing.T) {
	// Find a 3-bit data pattern in one word that SECDED miscorrects
	// (odd-weight syndrome matching some column).
	c := newCtl(ecc.SECDED)
	found := false
	for b1 := 0; b1 < 24 && !found; b1++ {
		for b2 := b1 + 1; b2 < 24 && !found; b2++ {
			for b3 := b2 + 1; b3 < 24 && !found; b3++ {
				w := uint64(1)<<b1 | uint64(1)<<b2 | uint64(1)<<b3
				_, _, r := ecc.SECDEDDecode(w, 0)
				if r == ecc.Corrected {
					var p Pattern
					for i := 0; i < 8; i++ {
						p.Data[i] = byte(w >> (8 * i))
					}
					c.InjectFault(0x40, p)
					c.Access(0, 0x40, false, true)
					st := c.Stats()
					if st.SilentMiscorrects != 1 {
						t.Errorf("miscorrect not counted: %+v", st)
					}
					if c.FaultyLines() != 1 {
						t.Error("residual corruption should remain")
					}
					found = true
				}
			}
		}
	}
	if !found {
		t.Skip("no miscorrectable 3-bit pattern in the searched range")
	}
}

func TestUpdateRegionPanicsOnInvalid(t *testing.T) {
	c := newCtl(ecc.SECDED)
	defer func() {
		if recover() == nil {
			t.Fatal("UpdateRegion on free register did not panic")
		}
	}()
	c.UpdateRegion(0, ecc.None)
}

// ctlObserved is everything ctlScript can see of a controller.
type ctlObserved struct {
	Regions   []Region
	Schemes   []ecc.Scheme
	NoRegion  error
	Repaired  []uint64
	Interrupt []ErrorRecord
	Registers []ErrorRecord
	Faulty    int
	Dropped   uint64
	Stats     Stats
}

// ctlScript programs regions until the registers run out, injects a fault of
// every verdict class, reads them back on the functional path and overflows
// the error registers.
func ctlScript(c *Controller) ctlObserved {
	var o ctlObserved
	c.OnRepair = func(line uint64, _ [64]byte) { o.Repaired = append(o.Repaired, line) }
	c.OnUncorr = func(r ErrorRecord) { o.Interrupt = append(o.Interrupt, r) }
	for i := 0; i <= NumRegions; i++ { // one more than there are registers
		scheme := []ecc.Scheme{ecc.None, ecc.SECDED}[i%2]
		_, o.NoRegion = c.SetRegion(0x100000+uint64(i)*0x10000, 0x10000, scheme)
	}
	c.GrowRegion(1, 0x100000+0x28000)
	c.ClearRegion(6)
	o.Regions = c.Regions()
	for _, a := range []uint64{0, 0x100000, 0x110000, 0x128000 - 1, 0x160000} {
		o.Schemes = append(o.Schemes, c.SchemeFor(a))
	}
	var one, two, sym Pattern
	one.Data[5] = 0x10
	two.Data[0] = 0x03
	sym.Data[7] = 0xff
	c.InjectFault(0x110040, one) // SECDED region: corrected
	c.InjectFault(0x110080, two) // SECDED region: uncorrectable
	c.InjectFault(0x100040, one) // no-ECC region: passes through
	c.InjectFault(0x2000, sym)   // default scheme
	for i := uint64(0); i < NumErrorRegisters+2; i++ {
		c.InjectFault(0x130000+i*64, two) // overflow the error registers
	}
	for _, a := range []uint64{0x110040, 0x110080, 0x100040, 0x2000} {
		c.DemandRead(a)
	}
	for i := uint64(0); i < NumErrorRegisters+2; i++ {
		c.DemandRead(0x130000 + i*64)
	}
	o.Faulty, o.Dropped, o.Stats = c.FaultyLines(), c.DroppedRecords(), c.Stats()
	o.Registers = c.ReadErrorRegisters()
	return o
}

// TestResetEqualsNew: Reset(scheme) then a scripted use equals New(mem,
// scheme) then the same use, for a controller recycled out of the state the
// script itself leaves: every region register programmed, residual patterns
// in the fault table, full error registers, nonzero counters.
func TestResetEqualsNew(t *testing.T) {
	used := newCtl(ecc.SECDED)
	ctlScript(used)
	used.DemandRead(0x130000) // one more record in the registers just read
	if used.FaultyLines() == 0 || len(used.Regions()) == 0 || used.Stats() == (Stats{}) {
		t.Fatal("the controller to recycle was not left dirty")
	}
	used.Reset(ecc.Chipkill)
	if used.FaultyLines() != 0 || len(used.Regions()) != 0 || used.Stats() != (Stats{}) ||
		used.DroppedRecords() != 0 || len(used.ReadErrorRegisters()) != 0 || used.DefaultScheme() != ecc.Chipkill {
		t.Fatalf("after Reset: %d faulty lines, %d regions, stats %+v", used.FaultyLines(), len(used.Regions()), used.Stats())
	}
	want, got := ctlScript(newCtl(ecc.Chipkill)), ctlScript(used)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("recycled controller diverged from a new one:\n new      %+v\n recycled %+v", want, got)
	}
	if want.NoRegion != ErrNoFreeRegion || want.Dropped == 0 || len(want.Repaired) == 0 ||
		want.Stats.SilentPassthrough == 0 || want.Stats.CorrectedErrors < 2 {
		t.Errorf("the script does not reach every verdict: %+v", want)
	}
}
