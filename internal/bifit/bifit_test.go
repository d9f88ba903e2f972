package bifit

import (
	"math"
	"reflect"
	"testing"

	"coopabft/internal/dram"
	"coopabft/internal/ecc"
	"coopabft/internal/memctrl"
	"coopabft/internal/osmodel"
	"coopabft/internal/trace"
)

func newRig(def ecc.Scheme) (*osmodel.OS, *Injector, Target) {
	os := osmodel.New(memctrl.New(dram.New(dram.DefaultConfig()), def))
	in := New(os, 42)
	alloc, err := os.MallocECC("data", 1024*8, def, true)
	if err != nil {
		panic(err)
	}
	t := Target{Data: make([]float64, 1024), Reg: alloc.Region}
	for i := range t.Data {
		t.Data[i] = float64(i) + 0.5
	}
	in.Register(t)
	in.InstallRepairHandler(os.Ctl)
	return os, in, t
}

func TestFlipBitsChangesValueAndIsInvolution(t *testing.T) {
	in := New(nil, 1)
	tgt := Target{Data: []float64{1.0, 2.0}}
	orig := tgt.Data[0]
	if err := in.FlipBits(tgt, 0, []int{52}); err != nil {
		t.Fatal(err)
	}
	if tgt.Data[0] == orig {
		t.Error("flip did not change the value")
	}
	if err := in.FlipBits(tgt, 0, []int{52}); err != nil {
		t.Fatal(err)
	}
	if tgt.Data[0] != orig {
		t.Error("double flip did not restore")
	}
	if in.Injections != 2 {
		t.Errorf("injections = %d", in.Injections)
	}
}

func TestFlipBitsValidation(t *testing.T) {
	in := New(nil, 1)
	tgt := Target{Data: []float64{1}}
	if err := in.FlipBits(tgt, 5, []int{0}); err == nil {
		t.Error("out-of-range element accepted")
	}
	if err := in.FlipBits(tgt, 0, []int{64}); err == nil {
		t.Error("out-of-range bit accepted")
	}
}

func TestSingleBitCorrectedByHardwareRestoresAppData(t *testing.T) {
	os, in, tgt := newRig(ecc.SECDED)
	orig := tgt.Data[10]
	if err := in.FlipBits(tgt, 10, []int{3}); err != nil {
		t.Fatal(err)
	}
	if tgt.Data[10] == orig {
		t.Fatal("injection had no effect")
	}
	// Demand-read the line: SECDED corrects, repair handler restores app data.
	vaddr := tgt.Reg.Base + 10*8
	paddr, _ := os.Translate(vaddr)
	os.Ctl.Access(0, paddr, false, true)
	if tgt.Data[10] != orig {
		t.Errorf("hardware correction not written back: %v vs %v", tgt.Data[10], orig)
	}
	if os.Ctl.FaultyLines() != 0 {
		t.Error("fault table not cleared")
	}
}

func TestDoubleBitSurvivesSECDEDGoesToABFT(t *testing.T) {
	os, in, tgt := newRig(ecc.SECDED)
	orig := tgt.Data[20]
	if err := in.InjectKind(tgt, 20, DoubleBitSameWord); err != nil {
		t.Fatal(err)
	}
	vaddr := tgt.Reg.Base + 20*8
	paddr, _ := os.Translate(vaddr)
	os.Ctl.Access(0, paddr, false, true)
	// Uncorrectable: app data stays corrupted, OS exposed it to ABFT.
	if tgt.Data[20] == orig {
		t.Error("double-bit error should not be hardware-corrected")
	}
	pend := os.PendingCorruptions()
	if len(pend) != 1 {
		t.Fatalf("pending = %d", len(pend))
	}
	if pend[0].VirtAddr != vaddr&^63 {
		t.Errorf("pending addr %#x, want line of %#x", pend[0].VirtAddr, vaddr)
	}
}

func TestChipFailureCorrectedByChipkill(t *testing.T) {
	os, in, tgt := newRig(ecc.Chipkill)
	orig := tgt.Data[33]
	if err := in.InjectKind(tgt, 33, ChipFailure); err != nil {
		t.Fatal(err)
	}
	vaddr := tgt.Reg.Base + 33*8
	paddr, _ := os.Translate(vaddr)
	os.Ctl.Access(0, paddr, false, true)
	if tgt.Data[33] != orig {
		t.Error("chipkill did not restore the chip-failure pattern")
	}
	if st := os.Ctl.Stats(); st.CorrectedErrors != 1 {
		t.Errorf("ecc stats = %+v", st)
	}
}

func TestScatteredBeatsChipkill(t *testing.T) {
	os, in, tgt := newRig(ecc.Chipkill)
	if err := in.InjectKind(tgt, 40, Scattered); err != nil {
		t.Fatal(err)
	}
	vaddr := tgt.Reg.Base + 40*8
	paddr, _ := os.Translate(vaddr)
	os.Ctl.Access(0, paddr, false, true)
	st := os.Ctl.Stats()
	if st.UncorrectableErrors == 0 && st.CorrectedErrors > 0 {
		// Two bits in one symbol are still a single-symbol error; the
		// injector spreads across elements when it can, so this should not
		// happen with idx 40 (40 and 41 share a half line).
		t.Error("scattered pattern was corrected by chipkill")
	}
	if len(os.PendingCorruptions()) == 0 && !os.Panicked() {
		t.Error("scattered error neither exposed nor panicked")
	}
}

func TestScheduleSortedWithinRange(t *testing.T) {
	in := New(nil, 7)
	s := in.Schedule(100, 10)
	if len(s) != 10 {
		t.Fatalf("len = %d", len(s))
	}
	for i, v := range s {
		if v < 0 || v >= 100 {
			t.Fatalf("schedule[%d] = %d out of range", i, v)
		}
		if i > 0 && v < s[i-1] {
			t.Fatal("schedule not sorted")
		}
	}
}

func TestExpectedErrors(t *testing.T) {
	// 1 GB footprint at 5000 FIT/Mbit for one hour:
	// 8e9 bits = 8000 Mbit → 5000·8000 failures per 10⁹ hours = 0.04/hour.
	got := ExpectedErrors(1e9, 5000, 3600)
	if math.Abs(got-0.04) > 1e-12 {
		t.Errorf("ExpectedErrors = %v, want 0.04", got)
	}
	if ExpectedErrors(1e9, 0.02, 3600) >= got {
		t.Error("chipkill FIT should give far fewer errors")
	}
}

func TestPoissonMeanRoughlyRight(t *testing.T) {
	in := New(nil, 11)
	const mean = 4.0
	sum := 0
	for i := 0; i < 2000; i++ {
		sum += in.Poisson(mean)
	}
	got := float64(sum) / 2000
	if got < 3.6 || got > 4.4 {
		t.Errorf("Poisson sample mean = %v", got)
	}
	if in.Poisson(0) != 0 {
		t.Error("Poisson(0) != 0")
	}
}

func TestInjectionThenABFTClearFault(t *testing.T) {
	// After ABFT overwrites corrupted data, ClearFaultAt removes residue so
	// later reads are clean.
	os, in, tgt := newRig(ecc.SECDED)
	if err := in.InjectKind(tgt, 50, DoubleBitSameWord); err != nil {
		t.Fatal(err)
	}
	vaddr := tgt.Reg.Base + 50*8
	if err := os.ClearFaultAt(vaddr); err != nil {
		t.Fatal(err)
	}
	paddr, _ := os.Translate(vaddr)
	os.Ctl.Access(0, paddr, false, true)
	if st := os.Ctl.Stats(); st.UncorrectableErrors != 0 {
		t.Errorf("stale fault fired: %+v", st)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		SingleBit:         "single-bit",
		DoubleBitSameWord: "double-bit",
		ChipFailure:       "chip-failure",
		Scattered:         "scattered",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind string wrong")
	}
}

func TestRandomElementInRange(t *testing.T) {
	in := New(nil, 5)
	tgt := Target{Data: make([]float64, 17)}
	for i := 0; i < 100; i++ {
		if e := in.RandomElement(tgt); e < 0 || e >= 17 {
			t.Fatalf("RandomElement = %d", e)
		}
	}
}

func TestInjectKindUnknown(t *testing.T) {
	in := New(nil, 5)
	if err := in.InjectKind(Target{Data: []float64{1}}, 0, Kind(42)); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestSoftwareOnlyInjectorKinds(t *testing.T) {
	// A nil-OS injector flips app data for every kind without MC calls.
	in := New(nil, 6)
	tgt := Target{Data: make([]float64, 16), Reg: trace.Region{Base: 4096, Size: 4096}}
	for _, k := range []Kind{SingleBit, DoubleBitSameWord, ChipFailure, Scattered} {
		for i := range tgt.Data {
			tgt.Data[i] = 1.0
		}
		if err := in.InjectKind(tgt, 4, k); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		changed := false
		for _, v := range tgt.Data {
			if v != 1.0 {
				changed = true
			}
		}
		if !changed {
			t.Errorf("%v did not change any value", k)
		}
	}
}

// injectorScript draws 1000 values of every kind the injector offers and
// injects every fault kind at random elements of a fresh target, and returns
// the draws, the corrupted data and the count.
func injectorScript(t *testing.T, in *Injector) (draws []int, data []float64, injections int) {
	t.Helper()
	tg := Target{Data: make([]float64, 256), Reg: trace.Region{Name: "d", Base: 4096, Size: 256 * 8}}
	for i := range tg.Data {
		tg.Data[i] = float64(i) + 0.25
	}
	in.Register(tg)
	for i := 0; i < 250; i++ {
		draws = append(draws, in.RandomElement(tg), in.Poisson(2.5))
		draws = append(draws, in.Schedule(100, 2)...)
	}
	for _, kind := range []Kind{SingleBit, DoubleBitSameWord, ChipFailure, Scattered} {
		for i := 0; i < 8; i++ {
			if err := in.InjectKind(tg, in.RandomElement(tg), kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	return draws, tg.Data, in.Injections
}

// TestResetEqualsNew: Reset(seed) then a scripted use equals New(os, seed)
// then the same use, draw for draw and bit for bit, whether the recycled
// injector's generator had been built by an earlier draw (re-seeded in
// place) or not (built lazily, as a new injector's is).
func TestResetEqualsNew(t *testing.T) {
	wantDraws, wantData, wantN := injectorScript(t, New(nil, 7))
	if again, _, _ := injectorScript(t, New(nil, 8)); reflect.DeepEqual(again, wantDraws) {
		t.Fatal("the draws do not depend on the seed: the comparison below proves nothing")
	}
	drawn := New(nil, 3)
	injectorScript(t, drawn)
	undrawn := New(nil, 3)
	undrawn.Register(Target{Data: make([]float64, 4)})
	for name, in := range map[string]*Injector{"after draws": drawn, "before any draw": undrawn} {
		in.Reset(7)
		if in.Injections != 0 || len(in.targets) != 0 {
			t.Fatalf("%s: after Reset %d injections counted, %d targets registered", name, in.Injections, len(in.targets))
		}
		draws, data, n := injectorScript(t, in)
		if !reflect.DeepEqual(draws, wantDraws) || n != wantN {
			t.Errorf("%s: recycled injector's stream diverged from a new one's (%d vs %d injections)", name, n, wantN)
		}
		for i := range data {
			if math.Float64bits(data[i]) != math.Float64bits(wantData[i]) {
				t.Errorf("%s: element %d corrupted to %x, a new injector makes it %x", name, i, math.Float64bits(data[i]), math.Float64bits(wantData[i]))
				break
			}
		}
	}
}
