package experiments

import (
	"bytes"
	"strings"
	"testing"

	"coopabft/internal/core"
)

func TestKernelIDStrings(t *testing.T) {
	want := []string{"FT-DGEMM", "FT-Cholesky", "FT-CG", "FT-HPL"}
	for i, k := range AllKernels {
		if k.String() != want[i] {
			t.Errorf("kernel %d = %q", i, k)
		}
	}
	if KernelID(99).String() != "?" {
		t.Error("unknown kernel string")
	}
}

func TestBasicSweepCachedAndComplete(t *testing.T) {
	o := Small()
	r1 := mustBasic(t, o)
	r2 := mustBasic(t, o)
	if len(r1) != len(AllKernels) {
		t.Fatalf("kernels = %d", len(r1))
	}
	for _, k := range AllKernels {
		if len(r1[k]) != len(core.Strategies) {
			t.Fatalf("%v: strategies = %d", k, len(r1[k]))
		}
		for _, s := range core.Strategies {
			if r1[k][s].Seconds <= 0 || r1[k][s].SystemEnergyJ <= 0 {
				t.Errorf("%v/%v empty result", k, s)
			}
			// Cache must return identical results.
			if r1[k][s] != r2[k][s] {
				t.Errorf("%v/%v cache mismatch", k, s)
			}
		}
	}
}

// TestFig5Orderings checks the §5.1 energy ordering claims on every kernel:
// chipkill is the most expensive protection, partial schemes cost no more
// than their whole-ECC baselines, and nothing beats No_ECC.
func TestFig5Orderings(t *testing.T) {
	res := mustBasic(t, Small())
	for _, k := range AllKernels {
		r := res[k]
		dyn := func(s core.Strategy) float64 { return r[s].MemDynamicJ }
		if dyn(core.WholeChipkill) <= dyn(core.NoECC) {
			t.Errorf("%v: W_CK dynamic %g <= No_ECC %g", k, dyn(core.WholeChipkill), dyn(core.NoECC))
		}
		if dyn(core.WholeSECDED) <= dyn(core.NoECC) {
			t.Errorf("%v: W_SD dynamic not above No_ECC", k)
		}
		if dyn(core.WholeChipkill) <= dyn(core.WholeSECDED) {
			t.Errorf("%v: chipkill not above SECDED", k)
		}
		if dyn(core.PartialChipkillNoECC) > dyn(core.WholeChipkill) {
			t.Errorf("%v: partial chipkill above whole chipkill", k)
		}
		if dyn(core.PartialSECDEDNoECC) > dyn(core.WholeSECDED) {
			t.Errorf("%v: partial SECDED above whole SECDED", k)
		}
		if dyn(core.PartialChipkillSECDED) > dyn(core.WholeChipkill) {
			t.Errorf("%v: P_CK+P_SD above whole chipkill", k)
		}
		// P_CK+P_SD pays slightly more than P_CK+No_ECC (the second ECC).
		if dyn(core.PartialChipkillSECDED) < dyn(core.PartialChipkillNoECC) {
			t.Errorf("%v: P_CK+P_SD below P_CK+No_ECC", k)
		}
	}
}

// TestFig6CGMostSensitive: FT-CG, the memory-intensive kernel, shows the
// largest whole-chipkill system-energy increase.
func TestFig6CGMostSensitive(t *testing.T) {
	res := mustBasic(t, Small())
	inc := func(k KernelID) float64 {
		return res[k][core.WholeChipkill].SystemEnergyJ / res[k][core.NoECC].SystemEnergyJ
	}
	cg := inc(KCG)
	for _, k := range []KernelID{KDGEMM, KCholesky} {
		if inc(k) > cg {
			t.Errorf("%v system increase %v exceeds FT-CG %v", k, inc(k), cg)
		}
	}
}

// TestFig7PerformanceOrdering: No_ECC is fastest; whole chipkill slowest;
// partial schemes recover performance; perf variance is smaller than
// energy variance (§5.1).
func TestFig7PerformanceOrdering(t *testing.T) {
	res := mustBasic(t, Small())
	for _, k := range AllKernels {
		r := res[k]
		if r[core.WholeChipkill].IPC > r[core.NoECC].IPC {
			t.Errorf("%v: chipkill IPC above no-ECC", k)
		}
		if r[core.PartialChipkillNoECC].IPC < r[core.WholeChipkill].IPC {
			t.Errorf("%v: partial chipkill slower than whole", k)
		}
		// Performance variance < energy variance.
		perfVar := r[core.NoECC].IPC/r[core.WholeChipkill].IPC - 1
		energyVar := r[core.WholeChipkill].MemDynamicJ/r[core.NoECC].MemDynamicJ - 1
		if perfVar > energyVar {
			t.Errorf("%v: perf variance %v above energy variance %v", k, perfVar, energyVar)
		}
	}
}

// TestTable4Ordering: the ABFT-to-other reference ratio orders as the paper
// reports: DGEMM ≫ HPL > Cholesky > CG. This is a working-set-to-LLC
// property, so it runs at the Default (paper-ratio-preserving) scale.
func TestTable4Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale sweep skipped in -short mode")
	}
	rows := run[[]Table4Row](t, "table4")
	byK := map[KernelID]Table4Row{}
	for _, r := range rows {
		byK[r.Kernel] = r
		if r.RefsABFT == 0 {
			t.Errorf("%v: no ABFT refs", r.Kernel)
		}
		if r.RefsOther == 0 {
			t.Errorf("%v: no unprotected refs", r.Kernel)
		}
	}
	if !(byK[KDGEMM].Ratio > byK[KHPL].Ratio &&
		byK[KHPL].Ratio > byK[KCholesky].Ratio &&
		byK[KCholesky].Ratio > byK[KCG].Ratio) {
		t.Errorf("ratio ordering wrong: DGEMM %.1f, HPL %.1f, Chol %.1f, CG %.1f",
			byK[KDGEMM].Ratio, byK[KHPL].Ratio, byK[KCholesky].Ratio, byK[KCG].Ratio)
	}
}

// TestFig3VerificationDominates: Figure 3's observation.
func TestFig3VerificationDominates(t *testing.T) {
	rows := run[[]OverheadBreakdown](t, "fig3", WithSmall())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.VerifyFraction+r.ChecksumFraction < 0.999 || r.VerifyFraction+r.ChecksumFraction > 1.001 {
			t.Errorf("%v: fractions don't stack to 1: %v + %v", r.Kernel, r.ChecksumFraction, r.VerifyFraction)
		}
		if r.VerifyFraction <= 0.05 {
			t.Errorf("%v: verification share %v unexpectedly small", r.Kernel, r.VerifyFraction)
		}
	}
	// FT-CG has no checksums: verification is all of its overhead.
	for _, r := range rows {
		if r.Kernel == KCG && r.ChecksumFraction != 0 {
			t.Errorf("CG checksum fraction = %v", r.ChecksumFraction)
		}
	}
}

// TestTable1ImprovementPositive: notified verification is faster for all
// three fail-continue kernels.
func TestTable1ImprovementPositive(t *testing.T) {
	rows := run[[]Table1Row](t, "table1", WithSmall())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ImprovementPct <= 0 {
			t.Errorf("%v: improvement %.2f%%", r.Kernel, r.ImprovementPct)
		}
		if r.ImprovementPct > 50 {
			t.Errorf("%v: improvement %.2f%% implausibly large", r.Kernel, r.ImprovementPct)
		}
	}
}

// TestFig10Claims: DGMS behaves like whole chipkill on high-locality
// workloads while the cooperative approach relaxes ABFT data.
func TestFig10Claims(t *testing.T) {
	rows := run[[]Fig10Row](t, "fig10", WithSmall())
	get := func(k KernelID, mech string) Fig10Row {
		for _, r := range rows {
			if r.Kernel == k && r.Mechanism == mech {
				return r
			}
		}
		t.Fatalf("missing row %v/%s", k, mech)
		return Fig10Row{}
	}
	for _, k := range []KernelID{KDGEMM, KCG} {
		dg := get(k, "DGMS")
		ours := get(k, "ARE(P_CK+P_SD)")
		wck := get(k, "W_CK")
		if dg.CoarseFraction < 0.8 {
			t.Errorf("%v: DGMS coarse fraction %v — predictor missed the streaming pattern", k, dg.CoarseFraction)
		}
		// DGMS tracks whole-chipkill within a few percent.
		if diff := dg.MemNorm/wck.MemNorm - 1; diff > 0.05 || diff < -0.25 {
			t.Errorf("%v: DGMS mem %v far from W_CK %v", k, dg.MemNorm, wck.MemNorm)
		}
		if ours.MemNorm >= dg.MemNorm {
			t.Errorf("%v: cooperative mem %v not below DGMS %v", k, ours.MemNorm, dg.MemNorm)
		}
		if ours.TimeNorm > dg.TimeNorm*1.001 {
			t.Errorf("%v: cooperative time %v above DGMS %v", k, ours.TimeNorm, dg.TimeNorm)
		}
	}
}

func TestHeadlinesComputable(t *testing.T) {
	h := run[Headline](t, "headlines", WithSmall())
	if h.CGWholeChipkillMemIncrease <= 0 {
		t.Errorf("CG chipkill increase = %v", h.CGWholeChipkillMemIncrease)
	}
	for _, k := range AllKernels {
		if h.PartialVsWholeChipkillSaving[k] < 0 {
			t.Errorf("%v: negative partial-chipkill saving", k)
		}
	}
	if h.WholeSECDEDAvgMemIncrease <= 0 {
		t.Errorf("SECDED average increase = %v", h.WholeSECDEDAvgMemIncrease)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	o := Small()
	var b bytes.Buffer
	RenderFig3(&b, run[[]OverheadBreakdown](t, "fig3", WithSmall()))
	RenderTable1(&b, run[[]Table1Row](t, "table1", WithSmall()))
	RenderTable3(&b, o)
	RenderTable4(&b, run[[]Table4Row](t, "table4", WithSmall()))
	rows := run[[]StrategyMetrics](t, "fig5", WithSmall())
	RenderFig5(&b, rows)
	RenderFig6(&b, rows)
	RenderFig7(&b, rows)
	RenderTable5(&b)
	RenderFig10(&b, run[[]Fig10Row](t, "fig10", WithSmall()))
	out := b.String()
	for _, want := range []string{"Figure 3", "Table 1", "Table 3", "Table 4",
		"Figure 5", "Figure 6", "Figure 7", "Table 5", "Figure 10",
		"FT-DGEMM", "W_CK", "P_CK+No_ECC", "chipkill"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestFig8SmokeSmall(t *testing.T) {
	series := run[[]ScalingSeries](t, "fig8", WithSmall())
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(WeakScalingProcs) {
			t.Errorf("%v: points = %d", s.Strategy, len(s.Points))
		}
		last := s.Points[len(s.Points)-1]
		if last.EnergyBenefitJ <= last.RecoveryCostJ {
			t.Errorf("%v: benefit %g <= recovery %g at %d procs",
				s.Strategy, last.EnergyBenefitJ, last.RecoveryCostJ, last.Processes)
		}
	}
	var b bytes.Buffer
	RenderScaling(&b, "Figure 8", series)
	if !strings.Contains(b.String(), "819200") {
		t.Error("render missing the largest scale")
	}
}

func TestFig9SmokeSmall(t *testing.T) {
	series := run[[]ScalingSeries](t, "fig9", WithSmall())
	for _, s := range series {
		if len(s.Points) != len(StrongScalingProcs) {
			t.Fatalf("%v: points = %d", s.Strategy, len(s.Points))
		}
		// Recovery cost falls as per-process problems shrink.
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.RecoveryCostJ >= first.RecoveryCostJ {
			t.Errorf("%v: recovery did not fall: %g → %g",
				s.Strategy, first.RecoveryCostJ, last.RecoveryCostJ)
		}
	}
}

// TestFig9SweetPoint: at default scale the aggregate energy benefit rises
// to an interior maximum before declining — §5.2's "sweet point for energy
// benefit ... for strong scaling cases".
func TestFig9SweetPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale strong-scaling study skipped in -short mode")
	}
	series := run[[]ScalingSeries](t, "fig9")
	for _, s := range series {
		if s.Strategy.String() == "P_SD+No_ECC" {
			continue // the SECDED-relative benefit is small and flat
		}
		pts := s.Points
		peak, peakIdx := 0.0, 0
		for i, p := range pts {
			if p.EnergyBenefitJ > peak {
				peak, peakIdx = p.EnergyBenefitJ, i
			}
		}
		if peakIdx == 0 || peakIdx == len(pts)-1 {
			t.Errorf("%v: no interior sweet point (peak at index %d: %v)",
				s.Strategy, peakIdx, pts)
		}
	}
}

// TestThresholdStudy: the empirical counterpart of Equation 7 — with no
// errors relaxed ECC wins; ARE's cost grows with the error rate while ASE's
// stays flat.
func TestThresholdStudy(t *testing.T) {
	pts := mustThreshold(t, Small(), []int{0, 4, 16})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].AREEnergyJ >= pts[0].ASEEnergyJ {
		t.Errorf("error-free ARE %g not below ASE %g", pts[0].AREEnergyJ, pts[0].ASEEnergyJ)
	}
	if pts[0].ARERecoveries != 0 {
		t.Errorf("error-free run recovered %d times", pts[0].ARERecoveries)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].AREEnergyJ <= pts[i-1].AREEnergyJ {
			t.Errorf("ARE energy not increasing with errors: %+v", pts)
		}
		if pts[i].ARERecoveries <= pts[i-1].ARERecoveries {
			t.Errorf("recoveries not increasing: %+v", pts)
		}
	}
	// ASE stays essentially flat: hardware corrections are ~free.
	if pts[2].ASEEnergyJ > pts[0].ASEEnergyJ*1.05 {
		t.Errorf("ASE energy grew with errors: %g → %g", pts[0].ASEEnergyJ, pts[2].ASEEnergyJ)
	}
	var b bytes.Buffer
	RenderThreshold(&b, pts)
	if !strings.Contains(b.String(), "winner") {
		t.Error("render missing header")
	}
}
