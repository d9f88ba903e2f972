package core

// Golden platform numbers: the timed model's output for two small traced
// kernels, captured at the commit before the simulator hot loop was
// touched (flat cache sets, last-page translation cache). Every figure in
// paperfigs/abftsim is a function of these fields, so an "exact" simulator
// optimisation is one that leaves this test green.

import (
	"testing"

	"coopabft/internal/bifit"
	"coopabft/internal/machine"
)

type goldenResult struct {
	Cycles, Instructions      uint64
	LLCMissABFT, LLCMissOther uint64
	RowHitRate                float64
	ProcEnergyJ               float64
	MemDynamicJ, MemStandbyJ  float64
	Corrected, Uncorrectable  uint64
}

func goldenOf(r machine.Result) goldenResult {
	return goldenResult{
		Cycles: r.Cycles, Instructions: r.Instructions,
		LLCMissABFT: r.LLCMissABFT, LLCMissOther: r.LLCMissOther,
		RowHitRate:  r.RowHitRate,
		ProcEnergyJ: r.ProcEnergyJ,
		MemDynamicJ: r.MemDynamicJ, MemStandbyJ: r.MemStandbyJ,
		Corrected: r.ECC.CorrectedErrors, Uncorrectable: r.ECC.UncorrectableErrors,
	}
}

// goldenDGEMM runs a traced FT-DGEMM with a mid-run flush and a chip
// failure in C, so the flush, miss, writeback and ECC paths all contribute.
func goldenDGEMM(t *testing.T) machine.Result {
	t.Helper()
	rt := NewRuntime(machine.ScaledConfig(32), PartialChipkillSECDED, 11)
	d, err := rt.NewDGEMM(120, 5)
	if err != nil {
		t.Fatal(err)
	}
	d.Block = 24
	d.OnPanel = func(panel int) {
		if panel != 2 {
			return
		}
		if err := rt.Injector.InjectKind(bifit.Target{Data: d.Cf.Data, Reg: d.Cf.Reg}, 1234, bifit.ChipFailure); err != nil {
			t.Fatal(err)
		}
		rt.M.FlushCaches()
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	return rt.Finish()
}

// goldenCG runs a traced FT-CG under whole-node chipkill, fault-free.
func goldenCG(t *testing.T) machine.Result {
	t.Helper()
	rt := NewRuntime(machine.ScaledConfig(32), WholeChipkill, 12)
	c := rt.NewCG(72, 72, 6)
	c.MaxIter = 25
	c.RelTol = 0
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return rt.Finish()
}

func TestGoldenMachineResult(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T) machine.Result
		want goldenResult
	}{
		{"dgemm", goldenDGEMM, goldenResult{
			Cycles: 0x45de6b, Instructions: 0x3f9805, LLCMissABFT: 0x1c7c, LLCMissOther: 0x3e,
			RowHitRate: 0.9952256944444444, ProcEnergyJ: 0.006766871210937501,
			MemDynamicJ: 0.0002588300999999668, MemStandbyJ: 0.00032968245600000005,
			Corrected: 0, Uncorrectable: 1}},
		{"cg", goldenCG, goldenResult{
			Cycles: 0x9d4f7f, Instructions: 0x4ae925, LLCMissABFT: 0x1aa50, LLCMissOther: 0x2206e,
			RowHitRate: 0.9998772731317136, ProcEnergyJ: 0.0129636177734375,
			MemDynamicJ: 0.018022429799922614, MemStandbyJ: 0.000742284216,
			Corrected: 0, Uncorrectable: 0}},
	}
	for _, c := range cases {
		got := goldenOf(c.run(t))
		if got != c.want {
			t.Errorf("%s: platform numbers moved\n got %#v\nwant %#v", c.name, got, c.want)
		}
	}
}
