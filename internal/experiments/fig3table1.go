package experiments

import (
	"context"
	"fmt"
	"io"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
)

// OverheadBreakdown is one Figure 3 bar: the split of ABFT overhead between
// checksum maintenance and verification for a fail-continue kernel.
type OverheadBreakdown struct {
	Kernel           KernelID
	ChecksumFraction float64 // of total overhead
	VerifyFraction   float64
	OverheadOfTotal  float64 // (checksum+verify)/total ops
}

// failContinueKernels are the kernels with a Figure 3 / Table 1 row.
var failContinueKernels = []KernelID{KDGEMM, KCholesky, KCG}

// fig3Run reproduces Figure 3 for the three fail-continue ABFT kernels,
// one engine cell per kernel. The paper's observation — verification is
// responsible for a large part of the overhead — is measured from the
// kernels' operation accounting.
func fig3Run(ctx context.Context, rc runConfig) ([]OverheadBreakdown, error) {
	out, _, err := campaign.Map(ctx, rc.engine(), len(failContinueKernels),
		func(ctx context.Context, i int) (OverheadBreakdown, error) {
			k := failContinueKernels[i]
			ops, err := kernelOps(ctx, rc.o, k)
			if err != nil {
				return OverheadBreakdown{}, err
			}
			ov := ops.Checksum + ops.Verify
			b := OverheadBreakdown{Kernel: k, OverheadOfTotal: ops.OverheadFraction()}
			if ov > 0 {
				b.ChecksumFraction = float64(ops.Checksum) / float64(ov)
				b.VerifyFraction = float64(ops.Verify) / float64(ov)
			}
			return b, nil
		})
	return out, err
}

// kernelOps runs a kernel standalone (no machine) and returns its buckets.
func kernelOps(ctx context.Context, o Options, k KernelID) (abft.OpCounters, error) {
	if err := ctx.Err(); err != nil {
		return abft.OpCounters{}, err
	}
	env := abft.Standalone()
	switch k {
	case KDGEMM:
		d, err := abft.NewDGEMM(env, o.DGEMMN, o.Seed)
		if err != nil {
			return abft.OpCounters{}, err
		}
		if err := d.Run(); err != nil {
			return abft.OpCounters{}, err
		}
		return d.Ops, nil
	case KCholesky:
		c := abft.NewCholesky(env, o.CholN, o.Seed)
		if err := c.Run(); err != nil {
			return abft.OpCounters{}, err
		}
		return c.Ops, nil
	case KCG:
		c := abft.NewCG(env, o.CGX, o.CGY, o.Seed)
		c.MaxIter = o.CGIters
		c.RelTol = 0
		c.CheckPeriod = 4
		if _, err := c.Run(); err != nil {
			return abft.OpCounters{}, err
		}
		return c.Ops, nil
	default:
		return abft.OpCounters{}, fmt.Errorf("%w: %v has no overhead breakdown", ErrUnknownKernel, k)
	}
}

// RenderFig3 writes the Figure 3 bars as text.
func RenderFig3(w io.Writer, rows []OverheadBreakdown) {
	header(w, "Figure 3: ABFT overhead breakdown (fraction of overhead)", []string{"checksum", "verification", "ovh/total"})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%13.1f%%%13.1f%%%13.1f%%\n", r.Kernel,
			100*r.ChecksumFraction, 100*r.VerifyFraction, 100*r.OverheadOfTotal)
	}
}

// Table1Row is one column of Table 1: the runtime improvement from
// replacing full verification with hardware-notified verification.
type Table1Row struct {
	Kernel         KernelID
	FullSeconds    float64
	NotifySeconds  float64
	ImprovementPct float64
}

// table1Run reproduces Table 1: each fail-continue kernel is run on the
// simulator twice — full verification vs simplified (notified)
// verification — without ECC relaxing (strategy W_CK), matching §3.2.2's
// methodology. The six runs fan out as independent cells.
func table1Run(ctx context.Context, rc runConfig) ([]Table1Row, error) {
	modes := []abft.VerifyMode{abft.FullVerify, abft.NotifiedVerify}
	res, _, err := campaign.Map(ctx, rc.engine(), len(failContinueKernels)*len(modes),
		func(ctx context.Context, i int) (float64, error) {
			k := failContinueKernels[i/len(modes)]
			r, err := RunKernelCtx(ctx, rc.o, k, core.WholeChipkill, modes[i%len(modes)])
			return r.Seconds, err
		})
	if err != nil {
		return nil, err
	}
	out := make([]Table1Row, 0, len(failContinueKernels))
	for i, k := range failContinueKernels {
		r := Table1Row{
			Kernel:        k,
			FullSeconds:   res[i*len(modes)],
			NotifySeconds: res[i*len(modes)+1],
		}
		if r.FullSeconds > 0 {
			r.ImprovementPct = 100 * (r.FullSeconds - r.NotifySeconds) / r.FullSeconds
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderTable1 writes Table 1 as text.
func RenderTable1(w io.Writer, rows []Table1Row) {
	header(w, "Table 1: ABFT performance improvement with simplified verification", []string{"full (s)", "notified (s)", "improvement"})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%14.3g%14.3g%13.1f%%\n",
			r.Kernel, r.FullSeconds, r.NotifySeconds, r.ImprovementPct)
	}
}
