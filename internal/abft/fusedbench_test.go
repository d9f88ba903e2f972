package abft

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"coopabft/internal/mat"
)

// The fused-vs-two-pass bench gate. Opt-in via FUSED_BENCH=1 (it is a
// wall-clock measurement, not a correctness test): it times unprotected
// GEMM, two-pass (FullVerify) DGEMM, and fused (FusedVerify) DGEMM — clean
// and with a seeded mid-run fault each — and fails if the fused faulted
// throughput regresses below the two-pass faulted throughput. The table
// of floors is logged (-v). FUSED_BENCH_N overrides the problem size
// (default 256 for the CI smoke; EXPERIMENTS.md quotes n=1024). n=256 is
// the smallest size where the contract structurally holds: below it the
// whole product is cache-resident and the two-pass sweep's memory-traffic
// penalty (the cost fused detection avoids) vanishes.

func TestFusedVsTwoPassGate(t *testing.T) {
	if os.Getenv("FUSED_BENCH") == "" {
		t.Skip("set FUSED_BENCH=1 to run the fused-vs-two-pass wall-clock gate")
	}
	n := 256
	if s := os.Getenv("FUSED_BENCH_N"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 64 {
			t.Fatalf("bad FUSED_BENCH_N %q", s)
		}
	}
	old := mat.SetParallelism(1) // serial: stable numbers on small CI hosts
	defer mat.SetParallelism(old)

	// Interval checking at rank-256 panels: the blocking the fused kernel
	// amortizes its fold over (and the granularity a production run would
	// use). Small CI sizes halve it so a mid-run panel still exists.
	block := 256
	if n < 2*block {
		block = n / 2
	}

	// Cells are sampled interleaved (round-robin, several rounds) and each
	// cell reports its minimum sample: on a shared 1-CPU host the noise is
	// one-sided (preemption only adds time), so min-of-N converges on the
	// true cost, and interleaving keeps a slow period from biasing one
	// cell the way a measure-each-cell-in-turn loop would.
	//
	// The gate at the end resolves 2% between two cells whose costs lie
	// within 1% of each other at the CI size (≈ 4.2 ms each). Comparing two
	// min-of-6 floors it failed two runs in three with no change in the
	// code, and sixty rounds did not cure it: this host slows a vCPU by
	// 5–15% for seconds at a time, longer than the whole measurement, and in
	// such a spell identical cells' minima sit up to 8% apart. What a spell
	// does not move is the ratio of two samples taken milliseconds apart, so
	// the gate compares fused to two-pass round by round and takes the
	// median of the ratios. The table still reports floors.
	const rounds = 60
	flops := 2 * float64(n) * float64(n) * float64(n)

	newDGEMM := func(mode VerifyMode, faulted bool) *DGEMM {
		d := mustDGEMM(t, Standalone(), n, 404)
		d.Mode = mode
		d.Block = block
		if faulted {
			mid := d.Panels() / 2
			d.OnPanel = func(panel int) {
				if panel == mid {
					d.Cf.Set(n/2, n/3, d.Cf.At(n/2, n/3)+13.5)
				}
			}
		}
		return d
	}
	runDGEMM := func(mode VerifyMode, faulted bool) func() {
		d := newDGEMM(mode, faulted)
		return func() {
			d.Corrections = d.Corrections[:0]
			d.Faults = d.Faults[:0]
			if err := d.Run(); err != nil {
				t.Fatalf("%v faulted=%v: %v", mode, faulted, err)
			}
			if faulted && len(d.Corrections) == 0 {
				t.Fatalf("%v: injected fault was not corrected", mode)
			}
		}
	}

	a := mat.Random(n, n, 404)
	b := mat.Random(n, n, 405)
	c := mat.New(n, n)
	runners := []struct {
		name string
		fn   func()
	}{
		{"unprotected", func() { mat.MulAddInto(c, a, b) }},
		{"two_pass_clean", runDGEMM(FullVerify, false)},
		{"two_pass_faulted", runDGEMM(FullVerify, true)},
		{"fused_clean", runDGEMM(FusedVerify, false)},
		{"fused_faulted", runDGEMM(FusedVerify, true)},
	}
	best := make([]time.Duration, len(runners))
	for i, r := range runners {
		r.fn() // warm pools and page in operands
		best[i] = 1<<63 - 1
	}
	const twoPassFaulted, fusedFaulted = 2, 4
	ratios := make([]float64, rounds) // fused_faulted over two_pass_faulted time, round by round
	took := make([]time.Duration, len(runners))
	for round := range ratios {
		for i, r := range runners {
			t0 := time.Now()
			r.fn()
			took[i] = time.Since(t0)
			if took[i] < best[i] {
				best[i] = took[i]
			}
		}
		ratios[round] = float64(took[fusedFaulted]) / float64(took[twoPassFaulted])
	}
	// One row per cell: its floor, and its slowdown against the
	// unprotected kernel's floor.
	gflops := make([]float64, len(runners))
	for i, r := range runners {
		ms := float64(best[i]) / float64(time.Millisecond)
		gflops[i] = flops / (ms * 1e6)
		t.Logf("%-18s %8.2f ms  %6.2f GFLOP/s  overhead %+6.2f%%  (n=%d block=%d parallelism=1)",
			r.name, ms, gflops[i], 100*float64(best[i]-best[0])/float64(best[0]), n, block)
	}

	// The gate: online fused detection must beat the two-pass sweep under
	// fault injection (2% allowance for shared-host timer noise), by the
	// median of the round-by-round time ratios.
	sort.Float64s(ratios)
	median := ratios[rounds/2]
	t.Logf("fused faulted / two-pass faulted time, median of %d paired rounds: %.4f (quartiles %.4f, %.4f)",
		rounds, median, ratios[rounds/4], ratios[3*rounds/4])
	if median > 1/0.98 {
		t.Errorf("fused faulted runs take %.4f× the two-pass faulted runs' time: throughput regressed below 0.98× two-pass (floors %.2f vs %.2f GFLOP/s)",
			median, gflops[fusedFaulted], gflops[twoPassFaulted])
	}
}

// BenchmarkDGEMMVerifyMode is the always-on (bench-smoke visible) version:
// one clean run per verify mode at n=192.
func BenchmarkDGEMMVerifyMode(b *testing.B) {
	n := 192
	flops := 2 * float64(n) * float64(n) * float64(n)
	for _, mode := range []VerifyMode{FullVerify, FusedVerify} {
		b.Run(mode.String(), func(b *testing.B) {
			d, err := NewDGEMM(Standalone(), n, 7)
			if err != nil {
				b.Fatal(err)
			}
			d.Mode = mode
			for i := 0; i < b.N; i++ {
				if err := d.Run(); err != nil {
					b.Fatal(err)
				}
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(flops*float64(b.N)/sec/1e9, "GFLOP/s")
			}
		})
	}
}
