package experiments

import (
	"context"
	"fmt"
	"io"

	"coopabft/internal/bifit"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/machine"
)

// ThresholdPoint is one sample of the empirical ARE-vs-ASE comparison: the
// same FT-CG run under both configurations with `Errors` Case-1 errors
// injected. Under ASE (whole chipkill) the hardware corrects each error at
// negligible cost; under ARE (chipkill relaxed to nothing on ABFT data)
// every error costs an ABFT recovery. Sweeping the error count measures the
// crossover that Equation (7) predicts analytically.
type ThresholdPoint struct {
	Errors        int
	AREEnergyJ    float64
	ASEEnergyJ    float64
	ARESeconds    float64
	ASESeconds    float64
	ARERecoveries int
}

// DefaultThresholdErrors is the swept error-count axis.
var DefaultThresholdErrors = []int{0, 4, 16, 64, 256, 1024}

// thresholdStudyRun runs the sweep. Errors are single-bit flips in FT-CG's
// residual vector — correctable by both chipkill and ABFT (§4 Case 1).
// Each (error count, configuration) pair is an independent engine cell:
// the injection-site stream is a pure function of (o.Seed, error index),
// so the sweep is bit-identical at any worker count.
func thresholdStudyRun(ctx context.Context, rc runConfig, errorCounts []int) ([]ThresholdPoint, error) {
	type half struct {
		res machine.Result
		rec int
	}
	halves, _, err := campaign.Map(ctx, rc.engine(), 2*len(errorCounts),
		func(ctx context.Context, i int) (half, error) {
			if err := ctx.Err(); err != nil {
				return half{}, err
			}
			n := errorCounts[i/2]
			s := core.PartialChipkillNoECC // ARE half
			if i%2 == 1 {
				s = core.WholeChipkill // ASE half
			}
			res, rec, err := thresholdRun(rc.o, s, n)
			return half{res, rec}, err
		})
	if err != nil {
		return nil, err
	}
	out := make([]ThresholdPoint, 0, len(errorCounts))
	for i, n := range errorCounts {
		are, ase := halves[2*i], halves[2*i+1]
		out = append(out, ThresholdPoint{
			Errors:        n,
			AREEnergyJ:    are.res.SystemEnergyJ,
			ASEEnergyJ:    ase.res.SystemEnergyJ,
			ARESeconds:    are.res.Seconds,
			ASESeconds:    ase.res.Seconds,
			ARERecoveries: are.rec,
		})
	}
	return out, nil
}

// thresholdRun executes FT-CG with n injected errors under a strategy.
func thresholdRun(o Options, s core.Strategy, n int) (res machine.Result, recoveries int, err error) {
	rt := core.NewRuntime(o.machineConfig(), s, int64(o.Seed))
	cg := rt.NewCG(o.CGX, o.CGY, o.Seed)
	cg.MaxIter = o.CGIters
	cg.RelTol = 0
	cg.CheckPeriod = 1 // examine every iteration: one recovery per error

	r, _ := cg.VecFor("r")
	tgt := bifit.Target{Data: r.Data, Reg: r.Reg}
	// Spread n injections evenly over the iterations (several per
	// iteration when n exceeds the iteration count). The site stream is a
	// pure function of (o.Seed, j): no shared RNG state.
	perIter := make([][]int, o.CGIters)
	for j := 0; j < n; j++ {
		it := j % o.CGIters
		elem := int(campaign.Splitmix64(uint64(j)*2654435761+o.Seed) % uint64(len(r.Data)))
		perIter[it] = append(perIter[it], elem)
	}
	hw := s == core.WholeChipkill
	var injectErr error
	cg.OnIteration = func(iter int) {
		if injectErr != nil {
			return
		}
		for _, elem := range perIter[iter] {
			// A single-bit flip in a high mantissa bit: Case 1 material.
			if err := rt.Injector.FlipBits(tgt, elem, []int{51}); err != nil {
				injectErr = err
				return
			}
			if hw {
				// Under strong ECC the error is corrected at the next fetch
				// from DRAM, before the algorithm consumes it; model that
				// fetch directly at the controller (a patrol/demand read).
				paddr, err := rt.M.OS.Translate(tgt.Reg.Base + uint64(elem)*8)
				if err != nil {
					injectErr = err
					return
				}
				rt.M.Ctl.Access(rt.M.Core.Now(), paddr, false, true)
			}
		}
	}
	if _, err := cg.Run(); err != nil {
		return machine.Result{}, 0, fmt.Errorf("threshold run: %w", err)
	}
	if injectErr != nil {
		return machine.Result{}, 0, fmt.Errorf("threshold run: inject: %w", injectErr)
	}
	return rt.Finish(), cg.Recoveries, nil
}

// RenderThreshold writes the sweep as a table and reports the crossover.
func RenderThreshold(w io.Writer, pts []ThresholdPoint) {
	header(w, "Empirical ARE-vs-ASE threshold (FT-CG, Case-1 errors; extension of Eq. 7)",
		[]string{"ARE (J)", "ASE (J)", "ARE recoveries", "winner"})
	cross := -1
	for i, p := range pts {
		winner := "ARE"
		if p.AREEnergyJ >= p.ASEEnergyJ {
			winner = "ASE"
			if cross < 0 {
				cross = i
			}
		}
		fmt.Fprintf(w, "%-14d%14.4g%14.4g%14d%14s\n",
			p.Errors, p.AREEnergyJ, p.ASEEnergyJ, p.ARERecoveries, winner)
	}
	if cross > 0 {
		fmt.Fprintf(w, "crossover between %d and %d errors per run: below it relax ECC, above it keep it strong\n",
			pts[cross-1].Errors, pts[cross].Errors)
	} else if cross < 0 {
		fmt.Fprintln(w, "no crossover in the swept range: ARE wins throughout")
	}
}
