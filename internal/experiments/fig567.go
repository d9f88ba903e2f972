package experiments

import (
	"context"
	"fmt"
	"io"

	"coopabft/internal/core"
)

// StrategyMetrics is one bar of Figures 5–7: a kernel under a strategy,
// normalized to the same kernel's No_ECC run.
type StrategyMetrics struct {
	Kernel   KernelID
	Strategy core.Strategy

	MemDynNorm     float64 // dynamic memory energy / No_ECC
	MemStandbyNorm float64
	MemTotalNorm   float64
	ProcNorm       float64
	SystemNorm     float64
	IPCNorm        float64
}

// fig567Run computes the §5.1 basic tests: every kernel under the six ECC
// strategies, normalized to No_ECC — the data behind Figures 5 (memory
// energy), 6 (system energy) and 7 (performance). The 24-cell sweep runs
// through the campaign engine (and is shared, via the sweep cache, with
// Table 4 and the headline comparisons).
func fig567Run(ctx context.Context, rc runConfig) ([]StrategyMetrics, error) {
	res, err := basicCached(ctx, rc)
	if err != nil {
		return nil, err
	}
	var out []StrategyMetrics
	for _, k := range AllKernels {
		baseline := res[k][core.NoECC]
		for _, s := range core.Strategies {
			r := res[k][s]
			m := StrategyMetrics{Kernel: k, Strategy: s}
			if baseline.MemDynamicJ > 0 {
				m.MemDynNorm = r.MemDynamicJ / baseline.MemDynamicJ
			}
			if baseline.MemStandbyJ > 0 {
				m.MemStandbyNorm = r.MemStandbyJ / baseline.MemStandbyJ
			}
			if t := baseline.MemEnergyJ(); t > 0 {
				m.MemTotalNorm = r.MemEnergyJ() / t
			}
			if baseline.ProcEnergyJ > 0 {
				m.ProcNorm = r.ProcEnergyJ / baseline.ProcEnergyJ
			}
			if baseline.SystemEnergyJ > 0 {
				m.SystemNorm = r.SystemEnergyJ / baseline.SystemEnergyJ
			}
			if baseline.IPC > 0 {
				m.IPCNorm = r.IPC / baseline.IPC
			}
			out = append(out, m)
		}
	}
	return out, nil
}

// RenderFig5 writes the memory-energy figure.
func RenderFig5(w io.Writer, rows []StrategyMetrics) {
	header(w, "Figure 5: memory energy normalized to No_ECC", []string{"strategy", "dynamic", "standby", "total"})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%14s%14.3f%14.3f%14.3f\n",
			r.Kernel, r.Strategy, r.MemDynNorm, r.MemStandbyNorm, r.MemTotalNorm)
	}
}

// RenderFig6 writes the system-energy figure.
func RenderFig6(w io.Writer, rows []StrategyMetrics) {
	header(w, "Figure 6: system energy normalized to No_ECC", []string{"strategy", "memory", "processor", "system"})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%14s%14.3f%14.3f%14.3f\n",
			r.Kernel, r.Strategy, r.MemTotalNorm, r.ProcNorm, r.SystemNorm)
	}
}

// RenderFig7 writes the performance figure.
func RenderFig7(w io.Writer, rows []StrategyMetrics) {
	header(w, "Figure 7: performance (IPC) normalized to No_ECC", []string{"strategy", "IPC ratio"})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%14s%14.3f\n", r.Kernel, r.Strategy, r.IPCNorm)
	}
}

// Headline extracts the comparisons the §5.1 text calls out, for
// EXPERIMENTS.md and regression checks.
type Headline struct {
	// CGWholeChipkillMemIncrease is "for FT-CG ... 68% increase in memory
	// energy" (W_CK vs No_ECC).
	CGWholeChipkillMemIncrease float64
	// PartialVsWholeChipkillSaving[k] is tests 3 vs 2 memory-energy saving.
	PartialVsWholeChipkillSaving map[KernelID]float64
	// SystemSavingPartialChipkill[k] is Figure 6's headline savings.
	SystemSavingPartialChipkill map[KernelID]float64
	// WholeSECDEDAvgMemIncrease is "about 12% more energy in average".
	WholeSECDEDAvgMemIncrease float64
}

// headlinesRun computes the quoted percentages from the sweep.
func headlinesRun(ctx context.Context, rc runConfig) (Headline, error) {
	res, err := basicCached(ctx, rc)
	if err != nil {
		return Headline{}, err
	}
	h := Headline{
		PartialVsWholeChipkillSaving: map[KernelID]float64{},
		SystemSavingPartialChipkill:  map[KernelID]float64{},
	}
	cg := res[KCG]
	h.CGWholeChipkillMemIncrease = cg[core.WholeChipkill].MemEnergyJ()/cg[core.NoECC].MemEnergyJ() - 1

	sdSum := 0.0
	for _, k := range AllKernels {
		wck := res[k][core.WholeChipkill]
		pck := res[k][core.PartialChipkillNoECC]
		h.PartialVsWholeChipkillSaving[k] = 1 - pck.MemEnergyJ()/wck.MemEnergyJ()
		h.SystemSavingPartialChipkill[k] = 1 - pck.SystemEnergyJ/wck.SystemEnergyJ
		sdSum += res[k][core.WholeSECDED].MemEnergyJ()/res[k][core.NoECC].MemEnergyJ() - 1
	}
	h.WholeSECDEDAvgMemIncrease = sdSum / float64(len(AllKernels))
	return h, nil
}

// RenderHeadlines writes the §5.1 headline comparisons.
func RenderHeadlines(w io.Writer, h Headline) {
	fmt.Fprintf(w, "\n-- §5.1 headline comparisons --\n")
	fmt.Fprintf(w, "FT-CG memory-energy increase under whole chipkill: %.0f%% (paper: 68%%)\n",
		100*h.CGWholeChipkillMemIncrease)
	fmt.Fprintf(w, "Whole-SECDED average memory-energy increase: %.0f%% (paper: ~12%%)\n",
		100*h.WholeSECDEDAvgMemIncrease)
	for _, k := range AllKernels {
		fmt.Fprintf(w, "%-12s partial-vs-whole chipkill: memory −%.0f%%, system −%.0f%%\n",
			k, 100*h.PartialVsWholeChipkillSaving[k], 100*h.SystemSavingPartialChipkill[k])
	}
}
