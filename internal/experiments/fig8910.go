package experiments

import (
	"context"
	"fmt"
	"io"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/dgms"
	"coopabft/internal/machine"
	"coopabft/internal/scaling"
)

// ScalingSeries is one strategy's curve in Figures 8/9.
type ScalingSeries struct {
	Strategy core.Strategy
	Points   []scaling.Point
}

// WeakScalingProcs are the Figure 8 x-axis values.
var WeakScalingProcs = []int{100, 3200, 12800, 51200, 204800, 819200}

// StrongScalingProcs are the Figure 9 x-axis values (base 100).
var StrongScalingProcs = []int{100, 200, 400, 800, 1600, 3200}

// fig8Run runs the weak-scaling study for the three partial strategies,
// one engine cell per strategy (the per-process measurement dominates; the
// per-scale extrapolation is arithmetic).
func fig8Run(ctx context.Context, rc runConfig) ([]ScalingSeries, error) {
	out, _, err := campaign.Map(ctx, rc.engine(), len(scaling.PartialStrategies),
		func(ctx context.Context, i int) (ScalingSeries, error) {
			if err := ctx.Err(); err != nil {
				return ScalingSeries{}, err
			}
			s := scaling.PartialStrategies[i]
			pts, err := scaling.WeakScaling(rc.o.ScalingCfg, s, WeakScalingProcs)
			if err != nil {
				return ScalingSeries{}, err
			}
			return ScalingSeries{Strategy: s, Points: pts}, nil
		})
	return out, err
}

// fig9Run runs the mixed strong-scaling study. The paper's base deployment
// is 100 weak-scaled processes at 12K² (4× the weak-scaling problem edge);
// correspondingly the base grid is twice the Fig-8 edge, so the
// per-process working set crosses the cache capacity mid-range — the
// "contradicting effects" that create the energy-benefit sweet point.
// Every (strategy, scale) sample is an independent engine cell.
func fig9Run(ctx context.Context, rc runConfig) ([]ScalingSeries, error) {
	cfg := rc.o.ScalingCfg
	cfg.GridX *= 2
	cfg.GridY *= 2
	nPts := len(StrongScalingProcs)
	pts, _, err := campaign.Map(ctx, rc.engine(), len(scaling.PartialStrategies)*nPts,
		func(ctx context.Context, i int) (scaling.Point, error) {
			if err := ctx.Err(); err != nil {
				return scaling.Point{}, err
			}
			s := scaling.PartialStrategies[i/nPts]
			return scaling.StrongPoint(cfg, s, 100, StrongScalingProcs[i%nPts])
		})
	if err != nil {
		return nil, err
	}
	out := make([]ScalingSeries, 0, len(scaling.PartialStrategies))
	for si, s := range scaling.PartialStrategies {
		out = append(out, ScalingSeries{Strategy: s, Points: pts[si*nPts : (si+1)*nPts]})
	}
	return out, nil
}

// RenderScaling writes a Figure 8/9-style table.
func RenderScaling(w io.Writer, title string, series []ScalingSeries) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for _, s := range series {
		fmt.Fprintf(w, "-- %s --\n%-12s%18s%18s%14s\n",
			s.Strategy, "processes", "energy benefit(J)", "recovery(J)", "errors")
		for _, p := range s.Points {
			fmt.Fprintf(w, "%-12d%18.4g%18.4g%14.4g\n",
				p.Processes, p.EnergyBenefitJ, p.RecoveryCostJ, p.ExpectedErrors)
		}
	}
}

// Fig10Row is one bar pair of Figure 10: a kernel under one mechanism,
// normalized to its No_ECC run.
type Fig10Row struct {
	Kernel    KernelID
	Mechanism string
	TimeNorm  float64
	MemNorm   float64
	// CoarseFraction is DGMS's predictor outcome (1.0 = everything
	// chipkill), reported for the §5.3 analysis.
	CoarseFraction float64
}

// fig10Run compares DGMS with the cooperative approach (both using
// chipkill for strong and SECDED for relaxed protection, §5.3) on
// FT-DGEMM (high spatial locality) and FT-Pred-CG (low spatial locality),
// error-free. The eight simulator runs (2 kernels × {No_ECC, W_CK, DGMS,
// cooperative}) fan out as independent cells.
func fig10Run(ctx context.Context, rc runConfig) ([]Fig10Row, error) {
	kernels := []KernelID{KDGEMM, KCG}
	type cellOut struct {
		res    machine.Result
		coarse float64
	}
	strategies := []core.Strategy{core.NoECC, core.WholeChipkill, core.PartialChipkillSECDED}
	perKernel := len(strategies) + 1 // + the DGMS run
	cells, _, err := campaign.Map(ctx, rc.engine(), len(kernels)*perKernel,
		func(ctx context.Context, i int) (cellOut, error) {
			k := kernels[i/perKernel]
			j := i % perKernel
			if j < len(strategies) {
				r, err := RunKernelCtx(ctx, rc.o, k, strategies[j], abft.FullVerify)
				return cellOut{res: r}, err
			}
			r, frac, err := runDGMS(ctx, rc.o, k)
			return cellOut{res: r, coarse: frac}, err
		})
	if err != nil {
		return nil, err
	}
	var out []Fig10Row
	for ki, k := range kernels {
		base := cells[ki*perKernel+0].res
		wck := cells[ki*perKernel+1].res
		ours := cells[ki*perKernel+2].res
		dg := cells[ki*perKernel+3]
		norm := func(name string, r machine.Result, coarse float64) Fig10Row {
			return Fig10Row{
				Kernel:         k,
				Mechanism:      name,
				TimeNorm:       r.Seconds / base.Seconds,
				MemNorm:        r.MemEnergyJ() / base.MemEnergyJ(),
				CoarseFraction: coarse,
			}
		}
		out = append(out,
			norm("W_CK", wck, 1),
			norm("DGMS", dg.res, dg.coarse),
			norm("ARE(P_CK+P_SD)", ours, 0),
		)
	}
	return out, nil
}

// runDGMS executes a kernel on a DGMS-equipped machine.
func runDGMS(ctx context.Context, o Options, k KernelID) (machine.Result, float64, error) {
	if err := ctx.Err(); err != nil {
		return machine.Result{}, 0, err
	}
	rt := core.NewRuntime(o.machineConfig(), core.NoECC, int64(o.Seed))
	pred := dgms.Attach(rt.M)
	switch k {
	case KDGEMM:
		d, err := rt.NewDGEMM(o.DGEMMN, o.Seed)
		if err != nil {
			return machine.Result{}, 0, err
		}
		if err := d.Run(); err != nil {
			return machine.Result{}, 0, err
		}
	case KCG:
		c := rt.NewCG(o.CGX, o.CGY, o.Seed)
		c.MaxIter = o.CGIters
		c.RelTol = 0
		c.CheckPeriod = 4
		if _, err := c.Run(); err != nil {
			return machine.Result{}, 0, err
		}
	default:
		return machine.Result{}, 0, fmt.Errorf("%w: fig10 does not sweep %v", ErrUnknownKernel, k)
	}
	return rt.Finish(), pred.CoarseFraction(), nil
}

// RenderFig10 writes the comparison as text.
func RenderFig10(w io.Writer, rows []Fig10Row) {
	header(w, "Figure 10: DGMS vs cooperative ABFT+ECC (normalized to No_ECC)", []string{"mechanism", "time", "mem energy", "coarse%"})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%14s%14.3f%14.3f%13.1f%%\n",
			r.Kernel, r.Mechanism, r.TimeNorm, r.MemNorm, 100*r.CoarseFraction)
	}
}
