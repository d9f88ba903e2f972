package core

import (
	"reflect"
	"testing"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/ecc"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/memctrl"
	"coopabft/internal/trace"
)

func toTarget(data []float64, reg trace.Region) bifit.Target {
	return bifit.Target{Data: data, Reg: reg}
}

func TestStrategySchemes(t *testing.T) {
	cases := []struct {
		s            Strategy
		def, abft    ecc.Scheme
		partial      bool
		label        string
		abftRegionOK bool
	}{
		{NoECC, ecc.None, ecc.None, false, "No_ECC", true},
		{WholeChipkill, ecc.Chipkill, ecc.Chipkill, false, "W_CK", true},
		{PartialChipkillNoECC, ecc.Chipkill, ecc.None, true, "P_CK+No_ECC", true},
		{WholeSECDED, ecc.SECDED, ecc.SECDED, false, "W_SD", true},
		{PartialSECDEDNoECC, ecc.SECDED, ecc.None, true, "P_SD+No_ECC", true},
		{PartialChipkillSECDED, ecc.Chipkill, ecc.SECDED, true, "P_CK+P_SD", true},
	}
	if len(Strategies) != 6 {
		t.Fatalf("Strategies = %d entries", len(Strategies))
	}
	for _, c := range cases {
		if c.s.DefaultScheme() != c.def || c.s.ABFTScheme() != c.abft {
			t.Errorf("%v: schemes (%v, %v)", c.s, c.s.DefaultScheme(), c.s.ABFTScheme())
		}
		if c.s.Partial() != c.partial {
			t.Errorf("%v: partial = %v", c.s, c.s.Partial())
		}
		if c.s.String() != c.label {
			t.Errorf("%v: label %q", int(c.s), c.s.String())
		}
	}
}

func TestRuntimeAllocatesABFTUnderRelaxedECC(t *testing.T) {
	rt := NewRuntime(machine.ScaledConfig(32), PartialChipkillNoECC, 1)
	env := rt.Env()
	reg := env.Alloc("matrix", 1024, true)
	other := env.Alloc("scratch", 1024, false)

	pa, err := rt.M.OS.Translate(reg.Base)
	if err != nil {
		t.Fatal(err)
	}
	if s := rt.M.Ctl.SchemeFor(pa); s != ecc.None {
		t.Errorf("ABFT data scheme = %v, want none", s)
	}
	po, _ := rt.M.OS.Translate(other.Base)
	if s := rt.M.Ctl.SchemeFor(po); s != ecc.Chipkill {
		t.Errorf("other data scheme = %v, want chipkill", s)
	}
	if !reg.ABFT || other.ABFT {
		t.Error("ABFT tags wrong")
	}
}

func TestRuntimeKernelConstructorsShareRegisters(t *testing.T) {
	// FT-CG allocates 6+ ABFT vectors; merging must keep them within the 8
	// available ECC registers.
	rt := NewRuntime(machine.ScaledConfig(32), PartialChipkillSECDED, 2)
	cg := rt.NewCG(12, 12, 3)
	if cg == nil {
		t.Fatal("nil kernel")
	}
	if got := len(rt.M.Ctl.Regions()); got == 0 || got > 3 {
		t.Errorf("CG used %d ECC registers; merging failed", got)
	}
	r, ok := cg.VecFor("r")
	if !ok {
		t.Fatal("no r vector")
	}
	pa, _ := rt.M.OS.Translate(r.Reg.Base)
	if s := rt.M.Ctl.SchemeFor(pa); s != ecc.SECDED {
		t.Errorf("r scheme = %v", s)
	}
}

func TestEndToEndCoordinationDGEMM(t *testing.T) {
	// The full ARE loop on a real kernel: relaxed SECDED on ABFT data, a
	// double-bit error injected mid-structure, the demand read raising an
	// interrupt, the OS exposing the address, and notified verification
	// repairing the element.
	rt := NewRuntime(machine.ScaledConfig(32), PartialChipkillSECDED, 4)
	d, err := rt.NewDGEMM(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	d.Mode = abft.NotifiedVerify
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}

	// Inject an uncorrectable (for SECDED) pattern into Cf and read it.
	rt.M.FlushCaches() // DRAM errors are only observed on a fetch
	tgt := d.Cf
	idx := 7*tgt.Stride + 11
	if err := rt.Injector.FlipBits(toTarget(tgt.Data, tgt.Reg), idx, []int{10, 20}); err != nil {
		t.Fatal(err)
	}
	// Drive a demand read through the machine to trigger detection.
	rt.M.Memory().Touch(tgt.Addr(7, 11), 8, false)
	if rt.M.OS.Panicked() {
		t.Fatal("panicked on ABFT data")
	}
	if len(rt.M.OS.PeekCorruptions()) != 1 {
		t.Fatalf("corruption not exposed")
	}
	// ABFT consumes the notification.
	if err := d.VerifyNotified(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckResult(); err != nil {
		t.Fatalf("after repair: %v", err)
	}
	if rt.M.Ctl.FaultyLines() != 0 {
		t.Error("fault residue not cleared after ABFT repair")
	}
	res := rt.Finish()
	if res.Interrupts != 1 || res.OS.ExposedToABFT != 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestSingleBitFixedByHardwareNotABFT(t *testing.T) {
	// Under SECDED, a single-bit error is repaired by the MC; ABFT never
	// hears about it and application data is restored.
	rt := NewRuntime(machine.ScaledConfig(32), WholeSECDED, 6)
	d, err := rt.NewDGEMM(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	rt.M.FlushCaches()
	want := d.Cf.At(3, 3)
	idx := 3*d.Cf.Stride + 3
	if err := rt.Injector.FlipBits(toTarget(d.Cf.Data, d.Cf.Reg), idx, []int{40}); err != nil {
		t.Fatal(err)
	}
	rt.M.Memory().Touch(d.Cf.Addr(3, 3), 8, false)
	if d.Cf.At(3, 3) != want {
		t.Error("hardware correction not written back to app data")
	}
	res := rt.Finish()
	if res.ECC.CorrectedErrors != 1 || res.Interrupts != 0 {
		t.Errorf("result = %+v", res)
	}
}

func TestPanicOnUnprotectedCorruption(t *testing.T) {
	rt := NewRuntime(machine.ScaledConfig(32), WholeSECDED, 8)
	a := rt.M.OS.Malloc("plain", 4096)
	tgt := toTarget(make([]float64, 512), a.Region)
	rt.Injector.Register(tgt)
	if err := rt.Injector.FlipBits(tgt, 0, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	rt.M.Memory().Touch(a.VBase(), 8, false)
	if !rt.M.OS.Panicked() {
		t.Error("unprotected uncorrectable error must panic")
	}
}

func TestExtensionKernelsEndToEnd(t *testing.T) {
	// FT-LU and FT-QR through the full coordination stack: relaxed SECDED,
	// an uncorrectable injection, interrupt, notified repair.
	rt := NewRuntime(machine.ScaledConfig(32), PartialChipkillSECDED, 11)
	lu := rt.NewLU(32, 5)
	lu.Mode = abft.NotifiedVerify
	if err := lu.Run(); err != nil {
		t.Fatal(err)
	}
	rt.M.FlushCaches()
	if err := rt.Injector.FlipBits(toTarget(lu.Af.Data, lu.Af.Reg), 5*lu.Af.Stride+7, []int{9, 33}); err != nil {
		t.Fatal(err)
	}
	rt.M.Memory().Touch(lu.Af.Addr(5, 7), 8, false)
	if len(rt.M.OS.PeekCorruptions()) != 1 {
		t.Fatal("LU corruption not exposed")
	}
	if err := lu.VerifyNotified(); err != nil {
		t.Fatal(err)
	}
	if rt.M.Ctl.FaultyLines() != 0 {
		t.Error("LU repair left fault residue")
	}

	rt2 := NewRuntime(machine.ScaledConfig(32), PartialChipkillSECDED, 13)
	qr := rt2.NewQR(24, 7)
	qr.Mode = abft.NotifiedVerify
	if err := qr.Run(); err != nil {
		t.Fatal(err)
	}
	rt2.M.FlushCaches()
	if err := rt2.Injector.FlipBits(toTarget(qr.Vf.Data, qr.Vf.Reg), 10*qr.Vf.Stride+3, []int{12, 40}); err != nil {
		t.Fatal(err)
	}
	rt2.M.Memory().Touch(qr.Vf.Addr(10, 3), 8, false)
	if len(rt2.M.OS.PeekCorruptions()) != 1 {
		t.Fatal("QR corruption not exposed")
	}
	if err := qr.VerifyNotified(); err != nil {
		t.Fatal(err)
	}
	if rt2.M.Ctl.FaultyLines() != 0 {
		t.Error("QR repair left fault residue")
	}
}

// runtimeScript is one coordinated DGEMM life on rt: run, a double-bit fault
// at a random element of C, flush, a demand read that delivers it, notified
// repair, oracle. It returns everything observable: the fault site the injector's
// stream chose, the notifications, the answer signature and the result.
func runtimeScript(t *testing.T, rt *Runtime) (site int, notified int, sig string, res machine.Result) {
	t.Helper()
	d, err := rt.NewDGEMM(32, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.Mode = abft.NotifiedVerify
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	tgt := toTarget(d.Cf.Data, d.Cf.Reg)
	site = rt.Injector.RandomElement(tgt)
	if err := rt.Injector.InjectKind(tgt, site, bifit.DoubleBitSameWord); err != nil {
		t.Fatal(err)
	}
	rt.M.FlushCaches()
	rt.M.Memory().Touch(d.Cf.Reg.Base+uint64(site)*8, 8, false)
	notified = len(rt.M.OS.PeekCorruptions())
	if err := d.VerifyNotified(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckResult(); err != nil {
		t.Fatalf("after repair: %v", err)
	}
	return site, notified, abft.BitDigest(d.Cf.Matrix), rt.Finish()
}

// TestRuntimeResetEqualsNew: Reset(strategy, seed) then a scripted use equals
// NewFunctionalRuntime(cfg, strategy, seed) then the same use, for a runtime
// recycled out of a life under another strategy that exhausted the ECC region
// registers, left a corruption pending in the OS's shared list and a
// residual pattern in the fault table, with the hierarchy armed, targets
// registered and an arena attached.
func TestRuntimeResetEqualsNew(t *testing.T) {
	cfg := machine.ScaledConfig(32)
	wantSite, wantNotified, wantSig, wantRes := runtimeScript(t, NewFunctionalRuntime(cfg, PartialChipkillSECDED, 9))
	if wantNotified != 1 || wantRes.Interrupts != 1 {
		t.Fatalf("the script does not reach notification: %d notified, %+v", wantNotified, wantRes)
	}

	used := NewFunctionalRuntime(cfg, WholeSECDED, 4)
	used.Arena = new(mat.Arena)
	runtimeScript(t, used)
	d, err := used.NewDGEMM(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	env := used.Env()
	for i := 0; i < 2*memctrl.NumRegions; i++ {
		// Alternating protection leaves gaps, so no two regions merge.
		env.Alloc("pad", 512, i%2 == 0)
	}
	if err := used.Injector.FlipBits(toTarget(d.Cf.Data, d.Cf.Reg), 5, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	used.M.FlushCaches()
	used.M.Memory().Touch(d.Cf.Reg.Base+5*8, 8, false)
	if len(used.M.Ctl.Regions()) != memctrl.NumRegions || len(used.M.OS.PeekCorruptions()) == 0 ||
		used.M.Ctl.FaultyLines() == 0 || used.M.Memory().Dormant() {
		t.Fatalf("the runtime to recycle was not left dirty: %d regions, %d pending, %d faulty lines, dormant %v",
			len(used.M.Ctl.Regions()), len(used.M.OS.PeekCorruptions()), used.M.Ctl.FaultyLines(), used.M.Memory().Dormant())
	}

	used.Reset(PartialChipkillSECDED, 9)
	if used.Arena != nil || used.Strategy != PartialChipkillSECDED || used.Injector.Injections != 0 {
		t.Fatalf("after Reset: arena %v, strategy %v, %d injections counted", used.Arena, used.Strategy, used.Injector.Injections)
	}
	site, notified, sig, res := runtimeScript(t, used)
	if site != wantSite || notified != wantNotified || sig != wantSig || !reflect.DeepEqual(res, wantRes) {
		t.Errorf("recycled runtime diverged from a new one:\n new      site %d, %d notified, %s, %+v\n recycled site %d, %d notified, %s, %+v",
			wantSite, wantNotified, wantSig, wantRes, site, notified, sig, res)
	}
}
