package coopabft

// One benchmark per table and figure of the paper's evaluation (§5). Each
// iteration regenerates the experiment from scratch (the per-iteration seed
// defeats the harness cache) and reports the headline quantity the paper
// quotes as a custom metric, so `go test -bench=.` both times the
// reproduction pipeline and prints the reproduced numbers.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/core"
	"coopabft/internal/ecc"
	"coopabft/internal/experiments"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/resilience"
	"coopabft/internal/scaling"
	"coopabft/internal/serve"
)

// runExperiment runs the experiment registered as name through
// experiments.Lookup, the harness's one entry point, at test scale with a
// per-benchmark, per-iteration seed so the harness result cache cannot
// short-circuit the work being measured, and returns its typed rows.
func runExperiment[T any](b *testing.B, name string, base, i int, opts ...experiments.Option) T {
	b.Helper()
	e, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	opts = append([]experiments.Option{experiments.WithSmall(), experiments.WithSeed(uint64(base + i))}, opts...)
	res, err := e.Run(context.Background(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	rows, ok := res.Data.(T)
	if !ok {
		b.Fatalf("%s: data is %T", name, res.Data)
	}
	return rows
}

// BenchmarkFig3OverheadBreakdown regenerates the ABFT overhead split
// (checksum vs verification) for the three fail-continue kernels.
func BenchmarkFig3OverheadBreakdown(b *testing.B) {
	var last []experiments.OverheadBreakdown
	for i := 0; i < b.N; i++ {
		last = runExperiment[[]experiments.OverheadBreakdown](b, "fig3", 1000, i)
	}
	for _, r := range last {
		b.ReportMetric(100*r.VerifyFraction, r.Kernel.String()+"-verify-%ovh")
	}
}

// BenchmarkTable1SimplifiedVerification regenerates the notified-verification
// speedups (paper: 8.6% / 6.0% / 12.2%).
func BenchmarkTable1SimplifiedVerification(b *testing.B) {
	var last []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		last = runExperiment[[]experiments.Table1Row](b, "table1", 2000, i)
	}
	for _, r := range last {
		b.ReportMetric(r.ImprovementPct, r.Kernel.String()+"-improv-%")
	}
}

// BenchmarkTable4AccessClassification regenerates the LLC-miss
// classification ratios (paper: 654 / 14 / 3 / 20).
func BenchmarkTable4AccessClassification(b *testing.B) {
	var last []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		last = runExperiment[[]experiments.Table4Row](b, "table4", 3000, i)
	}
	for _, r := range last {
		b.ReportMetric(r.Ratio, r.Kernel.String()+"-ratio")
	}
}

// BenchmarkFig5MemoryEnergy regenerates the six-strategy memory-energy
// sweep; the reported metric is FT-CG's whole-chipkill increase (paper: 68%).
func BenchmarkFig5MemoryEnergy(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		h = runExperiment[experiments.Headline](b, "headlines", 4000, i)
	}
	b.ReportMetric(100*h.CGWholeChipkillMemIncrease, "CG-WCK-mem-increase-%")
	b.ReportMetric(100*h.PartialVsWholeChipkillSaving[experiments.KDGEMM], "DGEMM-partial-saving-%")
	b.ReportMetric(100*h.WholeSECDEDAvgMemIncrease, "WSD-avg-increase-%")
}

// BenchmarkFig6SystemEnergy reports the partial-chipkill system-energy
// savings (paper: up to 22/8/25/10% for DGEMM/Cholesky/CG/HPL).
func BenchmarkFig6SystemEnergy(b *testing.B) {
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		h = runExperiment[experiments.Headline](b, "headlines", 5000, i)
	}
	for _, k := range experiments.AllKernels {
		b.ReportMetric(100*h.SystemSavingPartialChipkill[k], k.String()+"-sys-saving-%")
	}
}

// BenchmarkFig7Performance reports IPC under whole chipkill relative to
// No_ECC for the memory-intensive kernel.
func BenchmarkFig7Performance(b *testing.B) {
	var rows []experiments.StrategyMetrics
	for i := 0; i < b.N; i++ {
		rows = runExperiment[[]experiments.StrategyMetrics](b, "fig5", 6000, i)
	}
	for _, r := range rows {
		if r.Kernel == experiments.KCG && r.Strategy == core.WholeChipkill {
			b.ReportMetric(r.IPCNorm, "CG-WCK-IPC-ratio")
		}
		if r.Kernel == experiments.KCG && r.Strategy == core.PartialChipkillNoECC {
			b.ReportMetric(r.IPCNorm, "CG-PCK-IPC-ratio")
		}
	}
}

// BenchmarkFig8WeakScaling regenerates the weak-scaling energy-benefit vs
// recovery-cost curves and reports the benefit:cost ratio at the largest
// scale (the paper's headline: benefit ≫ recovery cost).
func BenchmarkFig8WeakScaling(b *testing.B) {
	var series []experiments.ScalingSeries
	for i := 0; i < b.N; i++ {
		series = runExperiment[[]experiments.ScalingSeries](b, "fig8", 7000, i)
	}
	for _, s := range series {
		last := s.Points[len(s.Points)-1]
		if last.RecoveryCostJ > 0 {
			b.ReportMetric(last.EnergyBenefitJ/last.RecoveryCostJ, s.Strategy.String()+"-benefit:cost")
		}
	}
}

// BenchmarkFig9StrongScaling regenerates the mixed strong-scaling study and
// reports how much the recovery cost falls from the base to the largest
// scale (the paper: recovery becomes cheaper as per-process problems
// shrink).
func BenchmarkFig9StrongScaling(b *testing.B) {
	var series []experiments.ScalingSeries
	for i := 0; i < b.N; i++ {
		series = runExperiment[[]experiments.ScalingSeries](b, "fig9", 8000, i)
	}
	for _, s := range series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.RecoveryCostJ > 0 {
			b.ReportMetric(first.RecoveryCostJ/last.RecoveryCostJ, s.Strategy.String()+"-recovery-drop-x")
		}
	}
}

// BenchmarkFig10DGMS regenerates the DGMS comparison and reports the
// cooperative approach's memory-energy advantage (paper: 49% for FT-DGEMM,
// 24% for FT-CG).
func BenchmarkFig10DGMS(b *testing.B) {
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		rows = runExperiment[[]experiments.Fig10Row](b, "fig10", 9000, i)
	}
	get := func(k experiments.KernelID, mech string) experiments.Fig10Row {
		for _, r := range rows {
			if r.Kernel == k && r.Mechanism == mech {
				return r
			}
		}
		return experiments.Fig10Row{}
	}
	for _, k := range []experiments.KernelID{experiments.KDGEMM, experiments.KCG} {
		dg := get(k, "DGMS")
		ours := get(k, "ARE(P_CK+P_SD)")
		if dg.MemNorm > 0 {
			b.ReportMetric(100*(1-ours.MemNorm/dg.MemNorm), k.String()+"-vs-DGMS-mem-saving-%")
		}
	}
}

// --- Kernel microbenchmarks: the substrate costs behind the experiments ---

// BenchmarkKernelDGEMM times one uninstrumented FT-DGEMM run.
func BenchmarkKernelDGEMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := abft.NewDGEMM(abft.Standalone(), 96, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelCholesky times one uninstrumented FT-Cholesky run.
func BenchmarkKernelCholesky(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := abft.NewCholesky(abft.Standalone(), 96, uint64(i))
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelCG times one uninstrumented FT-CG solve.
func BenchmarkKernelCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := abft.NewCG(abft.Standalone(), 48, 48, uint64(i))
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelHPL times one uninstrumented FT-HPL factorization.
func BenchmarkKernelHPL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := abft.NewHPL(abft.Standalone(), 64, 4, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatedNodeCG times the full machine simulation of one FT-CG
// run — the cost of the McSim/DRAMSim2 substitute itself.
func BenchmarkSimulatedNodeCG(b *testing.B) {
	cfg := scaling.DefaultConfig()
	cfg.GridX, cfg.GridY = 32, 32
	cfg.Iterations = 8
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := scaling.MeasureCG(cfg, core.PartialChipkillSECDED, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Campaign engine: serial vs parallel fan-out of the same sweep ---

// benchSweep runs the 24-cell kernel×strategy sweep behind fig5/6/7 with
// the given worker count. The seed base must differ per benchmark: the
// harness cache deliberately ignores Workers (equal seeds give equal
// results at any width), so reusing a base would time cache hits.
func benchSweep(b *testing.B, base, workers int) {
	for i := 0; i < b.N; i++ {
		runExperiment[[]experiments.StrategyMetrics](b, "fig5", base, i, experiments.WithWorkers(workers))
	}
}

// BenchmarkBasicSweepSerial pins the campaign engine to one worker.
func BenchmarkBasicSweepSerial(b *testing.B) { benchSweep(b, 10000, 1) }

// BenchmarkBasicSweepParallel lets the campaign engine use every core; on
// a multi-core host the ratio to the serial benchmark is the engine's
// speedup (the per-cell seeding keeps the results bit-identical either
// way).
func BenchmarkBasicSweepParallel(b *testing.B) { benchSweep(b, 11000, 0) }

// BenchmarkResilienceCampaignParallel times the Monte-Carlo codec campaign
// through the engine at full width.
func BenchmarkResilienceCampaignParallel(b *testing.B) {
	eng := campaign.New()
	for i := 0; i < b.N; i++ {
		if _, err := resilience.RunCampaignCtx(context.Background(),
			ecc.Chipkill, resilience.Burst64, 2000, int64(i), eng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving subsystem: request path through the recovery ladder ---

// benchServe drives b.N requests through an in-process service at the
// given client width, reporting end-to-end request latency (queue +
// ladder execution). Seeds vary per request so the problem data is
// regenerated every iteration.
func benchServe(b *testing.B, cfg serve.Config, clients int, req serve.Request) {
	b.Helper()
	svc := serve.New(cfg)
	defer svc.Close()
	var seed atomic.Uint64
	seed.Store(uint64(b.N) << 20)
	b.ResetTimer()
	b.SetParallelism(clients)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r := req
			r.Seed = seed.Add(1)
			resp, err := svc.Do(context.Background(), r)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Outcome == "" {
				b.Fatal("unclassified response")
			}
		}
	})
}

// BenchmarkServeGEMM measures the quiet-path serving rate: concurrent
// fault-free small GEMMs, no batching.
func BenchmarkServeGEMM(b *testing.B) {
	benchServe(b, serve.Config{MaxConcurrency: 4, QueueDepth: 256, QueueTimeout: time.Minute},
		4, serve.Request{Kernel: "gemm", N: 48})
}

// BenchmarkServeGEMMBareFused is the yardstick for BenchmarkServeGEMM: the
// same n=48 product through the bare fused-ABFT kernel (abft.Standalone: no
// runtime, ladder, checkpoints, oracle or operand generation) at the same
// client width. Request ns/op over this ns/op is the whole-request overhead
// ROADMAP item 1 tracks.
func BenchmarkServeGEMMBareFused(b *testing.B) {
	b.SetParallelism(4)
	b.RunParallel(func(pb *testing.PB) {
		d, err := abft.NewDGEMM(abft.Standalone(), 48, 1)
		if err != nil {
			b.Error(err)
			return
		}
		d.Mode = abft.FusedVerify
		for pb.Next() {
			if err := d.Run(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServeGEMM32 is cmd/abftbench's kernel_f32_n192 request in
// process: one n=192 f32 product through serve.Service.Do, serial, seeds
// varying so the operands are regenerated every time. Its ns/op over
// BenchmarkServeGEMM32Bare's is the request-over-kernel ratio ROADMAP item 3
// tracks for f32, and B/op the warm request's heap.
func BenchmarkServeGEMM32(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1)) // as the benchmark's workers run
	svc := serve.New(serve.Config{QueueTimeout: time.Minute})
	defer svc.Close()
	req := serve.Request{Kernel: "gemm", N: 192, Dtype: "f32", Seed: uint64(b.N) << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed++
		resp, err := svc.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Outcome != "corrected" {
			b.Fatalf("outcome %q (%s), want corrected", resp.Outcome, resp.Error)
		}
	}
}

// BenchmarkServeGEMM32Bare is the yardstick for BenchmarkServeGEMM32: the
// same 192×192 f32 product through the unprotected packed kernel, on
// operands built once.
func BenchmarkServeGEMM32Bare(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	x, y, c := mat.Random32(192, 192, 1), mat.Random32(192, 192, 2), mat.New32(192, 192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.MulAddInto32(c, x, y)
	}
}

// BenchmarkServeCG is ladder_f64_mix's CG request in process: one 24×24
// FT-CG solve through serve.Service.Do, serial, seeds varying so the
// right-hand side is regenerated every time. Its ns/op over
// BenchmarkServeCGBare's is the request-over-kernel ratio of the mix's CG
// request, and B/op the warm request's heap.
func BenchmarkServeCG(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	svc := serve.New(serve.Config{QueueTimeout: time.Minute})
	defer svc.Close()
	req := serve.Request{Kernel: "cg", NX: 24, NY: 24, Seed: uint64(b.N) << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seed++
		resp, err := svc.Do(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Outcome != "corrected" {
			b.Fatalf("outcome %q (%s), want corrected", resp.Outcome, resp.Error)
		}
	}
}

// BenchmarkServeCGBare is the yardstick for BenchmarkServeCG and the
// denominator cmd/abftbench uses for a CG request: unpreconditioned CG over
// the same 24×24 mat.Poisson2D operator, unprotected, to a relative
// residual of 1e-9, on a right-hand side built once.
func BenchmarkServeCGBare(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	a := mat.Poisson2D(24, 24)
	rhs := make([]float64, a.N)
	a.MulVecInto(rhs, mat.RandomVec(a.N, 1))
	x, r, p, q := make([]float64, a.N), make([]float64, a.N), make([]float64, a.N), make([]float64, a.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(x)
		copy(r, rhs)
		copy(p, rhs)
		rho := mat.Dot(r, r)
		for stop, it := 1e-18*rho, 0; it < 20*a.N && rho > stop; it++ {
			a.MulVecInto(q, p)
			alpha := rho / mat.Dot(p, q)
			mat.Axpy(alpha, p, x)
			mat.Axpy(-alpha, q, r)
			next := mat.Dot(r, r)
			mat.Scale(next/rho, p)
			mat.Axpy(1, r, p)
			rho = next
		}
	}
}

// BenchmarkServeGEMMBatched holds a small batching window open; the
// delta against BenchmarkServeGEMM prices the coalescing stage.
func BenchmarkServeGEMMBatched(b *testing.B) {
	benchServe(b, serve.Config{MaxConcurrency: 4, QueueDepth: 256, QueueTimeout: time.Minute,
		BatchWindow: time.Millisecond, MaxBatch: 8},
		4, serve.Request{Kernel: "gemm", N: 48})
}

// BenchmarkServeGEMMFaulted measures the ladder-exercising path: every
// request injects a chip failure that ABFT or ECC must absorb.
func BenchmarkServeGEMMFaulted(b *testing.B) {
	benchServe(b, serve.Config{MaxConcurrency: 4, QueueDepth: 256, QueueTimeout: time.Minute},
		4, serve.Request{Kernel: "gemm", N: 48, Strategy: "P_CK+P_SD",
			Faults: 1, FaultKind: "chip-failure"})
}

// BenchmarkServeLadderMix is cmd/abftbench's ladder_f64_mix in process: one
// iteration serves the mix's six-request cycle (two fused and one notified
// n=128 GEMM, two n=128 Cholesky, one 24×24 CG) back to back through
// serve.Service.Do, serial as the benchmark's workers run it, so ns/op and
// B/op are per cycle — a sixth of each is the per-request figure to hold
// against the contract run's cpu_ms_per_req and alloc_kb_per_req.
func BenchmarkServeLadderMix(b *testing.B) {
	benchServeCycle(b, []serve.Request{
		{Kernel: "gemm", N: 128, VerifyMode: "fused"},
		{Kernel: "cholesky", N: 128},
		{Kernel: "gemm", N: 128, VerifyMode: "notified"},
		{Kernel: "gemm", N: 128, VerifyMode: "fused"},
		{Kernel: "cholesky", N: 128},
		{Kernel: "cg", NX: 24, NY: 24},
	})
}

// BenchmarkServeChaosMix is the worker half of cmd/abftbench's
// chaos_vote_mix in process: one iteration serves the mix's eleven-request
// cycle (two clean and one chip-failure notified n=64 GEMM, two clean and
// one double-bit n=64 Cholesky, two clean and one faulted n=64 f32 GEMM, one
// vote replica and one verify-vote primary) back to back through
// serve.Service.Do, serial as the benchmark's workers run it. The vote
// replica and the verify-vote primary are the requests a worker serves for
// an election; the primary's packed answer goes back to the answer list as
// the worker's handler hands it back once written. What the gateway adds
// (the other ballots, the verify tasks, the decode of the answer) is not in
// it, so B/op over eleven sits below the contract run's alloc_kb_per_req.
func BenchmarkServeChaosMix(b *testing.B) {
	benchServeCycle(b, []serve.Request{
		{Kernel: "gemm", N: 64, VerifyMode: "notified"},
		{Kernel: "cholesky", N: 64},
		{Kernel: "gemm", N: 64, Dtype: "f32"},
		{Kernel: "gemm", N: 64, VerifyMode: "fused", Integrity: "vote"},
		{Kernel: "gemm", N: 64, VerifyMode: "notified", Faults: 1, FaultKind: "chip-failure"},
		{Kernel: "cholesky", N: 64, Faults: 1, FaultKind: "double-bit"},
		{Kernel: "gemm", N: 64, Dtype: "f32", Faults: 1},
		{Kernel: "gemm", N: 64, VerifyMode: "notified"},
		{Kernel: "cholesky", N: 64},
		{Kernel: "gemm", N: 64, Dtype: "f32"},
		{Kernel: "gemm", N: 64, VerifyMode: "fused", Integrity: "verify-vote"},
	})
}

// benchServeCycle serves cycle back to back through one serve.Service.Do
// per iteration at mat parallelism 1, seeds varying, and fails on any
// outcome but corrected (or restarted, for a request that injects faults).
// A packed answer is released, as the worker's handler releases it once
// written.
func benchServeCycle(b *testing.B, cycle []serve.Request) {
	defer mat.SetParallelism(mat.SetParallelism(1)) // as the benchmark's workers run
	svc := serve.New(serve.Config{QueueTimeout: time.Minute})
	defer svc.Close()
	seed := uint64(b.N) << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range cycle {
			seed++
			req.Seed = seed
			resp, err := svc.Do(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Outcome != "corrected" && (req.Faults == 0 || resp.Outcome != "restarted") {
				b.Fatalf("%+v: outcome %q (%s)", req, resp.Outcome, resp.Error)
			}
			resp.Answer.Release()
		}
	}
}

// BenchmarkFunctionalNode is what an f64 request pays for its machine model
// before any kernel runs: a functional node configured for the request's
// strategy, with the three encoded operands of an n=128 FT-DGEMM mapped in
// (page tables and ECC region registers; no float storage). fresh builds the
// node, as every request did before serve pooled them; recycled resets one
// node over and over, as a warm service does. B/op is bytes per node.
func BenchmarkFunctionalNode(b *testing.B) {
	const n = 128
	mapOperands := func(rt *core.Runtime) {
		env := rt.Env()
		env.Alloc("A", (n+1)*n, true)
		env.Alloc("B", n*(n+1), true)
		env.Alloc("C", (n+1)*(n+1), true)
	}
	cfg := machine.ScaledConfig(32)
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapOperands(core.NewFunctionalRuntime(cfg, core.Strategies[i%len(core.Strategies)], int64(i)))
		}
	})
	b.Run("recycled", func(b *testing.B) {
		rt := core.NewFunctionalRuntime(cfg, core.NoECC, 0)
		mapOperands(rt) // grow the page maps once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Reset(core.Strategies[i%len(core.Strategies)], int64(i))
			mapOperands(rt)
		}
	})
}

// BenchmarkServeVerify is one warm verify-vote verification task, n=64,
// through serve.Service.DoVerify: regenerate the operands, check the two
// projections the gateway took of the product. B/op is bytes per task; the
// task's 2n values are the caller's (on the wire they are the decoder's,
// once per task).
func BenchmarkServeVerify(b *testing.B) {
	const n, seed, probeSeed = 64, 11, 12
	svc := serve.New(serve.Config{QueueTimeout: time.Minute})
	defer svc.Close()
	c := mat.Mul(mat.Random(n, n, seed), mat.Random(n, n, seed+1))
	task := serve.VerifyTask{Kernel: "gemm", N: n, Seed: seed, ProbeSeed: probeSeed,
		Ce: mat.MulVec(c, mat.Ones(n)), Cr: mat.MulVec(c, mat.RandomVec(n, probeSeed))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.DoVerify(context.Background(), task)
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("verifier refuted the true product: %s", res.Reason)
		}
	}
}

// BenchmarkServeBlockTask is one sharded-job data block through
// serve.Service.DoBlock at the sizes block tasks take past the interactive
// MaxN: the n×n operands regenerated on the task's arena and the top-left
// block of a 2×2 grid multiplied, serial, as a worker runs it. With
// interactive, every task is followed by one n=128 fused GEMM request, so
// the large classes a task leaves idle and the interactive ones take turns
// in the buffer budget. ns/op and B/op are per task (with its request).
func BenchmarkServeBlockTask(b *testing.B) {
	defer mat.SetParallelism(mat.SetParallelism(1))
	for _, bc := range []struct {
		n           int
		interactive bool
	}{{512, false}, {1024, false}, {1024, true}} {
		name := fmt.Sprintf("n=%d", bc.n)
		if bc.interactive {
			name += "/interactive"
		}
		b.Run(name, func(b *testing.B) {
			svc := serve.New(serve.Config{QueueTimeout: time.Minute})
			defer svc.Close()
			splits := []int{0, bc.n / 2, bc.n}
			task := serve.BlockTask{Kernel: "gemm", N: bc.n, Seed: 5, Role: serve.BlockData,
				RowSplits: splits, ColSplits: splits}
			req := serve.Request{Kernel: "gemm", N: 128, VerifyMode: "fused"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.DoBlock(context.Background(), task); err != nil {
					b.Fatal(err)
				}
				if !bc.interactive {
					continue
				}
				req.Seed = uint64(i)
				if resp, err := svc.Do(context.Background(), req); err != nil || resp.Outcome != "corrected" {
					b.Fatalf("outcome %q, err %v", resp.Outcome, err)
				}
			}
		})
	}
}
