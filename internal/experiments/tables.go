package experiments

import (
	"context"
	"fmt"
	"io"

	"coopabft/internal/core"
	"coopabft/internal/ecc"
)

// Table4Row is one row of Table 4: LLC misses classified by whether the
// target block is ABFT-protected.
type Table4Row struct {
	Kernel    KernelID
	RefsABFT  uint64
	RefsOther uint64
	Ratio     float64
}

// table4Run profiles LLC misses for each kernel (the classification is
// scheme-independent; W_CK is used as in the paper's default).
func table4Run(ctx context.Context, rc runConfig) ([]Table4Row, error) {
	res, err := basicCached(ctx, rc)
	if err != nil {
		return nil, err
	}
	out := make([]Table4Row, 0, len(AllKernels))
	for _, k := range AllKernels {
		r := res[k][core.WholeChipkill]
		row := Table4Row{Kernel: k, RefsABFT: r.LLCMissABFT, RefsOther: r.LLCMissOther}
		if row.RefsOther > 0 {
			row.Ratio = float64(row.RefsABFT) / float64(row.RefsOther)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderTable4 writes Table 4 as text.
func RenderTable4(w io.Writer, rows []Table4Row) {
	header(w, "Table 4: LLC misses by ABFT protection", []string{"w/ ABFT", "w/o ABFT", "ratio"})
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s%14d%14d%14.1f\n", r.Kernel, r.RefsABFT, r.RefsOther, r.Ratio)
	}
}

// RenderTable3 prints the simulated system parameters (Table 3).
func RenderTable3(w io.Writer, o Options) {
	cfg := o.machineConfig()
	fmt.Fprintf(w, "\n== Table 3: system parameters ==\n")
	fmt.Fprintf(w, "Processor        4 in-order cores, 4 threads/core (modeled as one stream)\n")
	fmt.Fprintf(w, "Clock rate       %.0f GHz\n", cfg.CPU.ClockHz/1e9)
	fmt.Fprintf(w, "L1 cache         %d KB, %d-way, 64B blocks\n", cfg.L1.SizeBytes>>10, cfg.L1.Ways)
	fmt.Fprintf(w, "L2 cache         %d KB, %d-way, 64B blocks (scaled 1/%d of 8MB)\n",
		cfg.L2.SizeBytes>>10, cfg.L2.Ways, o.L2Divisor)
	fmt.Fprintf(w, "Memory           %d channels, %d DIMMs/chan, %d ranks/DIMM, %d banks/rank, open page\n",
		cfg.DRAM.Channels, cfg.DRAM.DIMMsPerChan, cfg.DRAM.RanksPerDIMM, cfg.DRAM.BanksPerRank)
	fmt.Fprintf(w, "Chipkill         128b data+16b ECC, 2 lock-stepped channels (36 x4 chips)\n")
	fmt.Fprintf(w, "SECDED           64b data+8b ECC, 1 channel (18 x4 chips)\n")
	fmt.Fprintf(w, "Workloads        FT-DGEMM %d², FT-Cholesky %d², FT-CG %dx%d grid, FT-HPL %d² (scaled from 3000²/8192²)\n",
		o.DGEMMN, o.CholN, o.CGX, o.CGY, o.HPLN)
}

// RenderTable5 prints the FIT-rate inputs (Table 5).
func RenderTable5(w io.Writer) {
	header(w, "Table 5: error rate with ECC in place", []string{"FIT/Mbit"})
	for _, s := range []ecc.Scheme{ecc.None, ecc.SECDED, ecc.Chipkill} {
		fmt.Fprintf(w, "%-14s%14g\n", s, s.FITPerMbit())
	}
}
