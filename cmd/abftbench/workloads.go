package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"coopabft/internal/campaign"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// kind is one request shape of a workload's mix. req is the wire template;
// only Seed varies between requests of one kind.
type kind struct {
	name   string
	weight int
	req    serve.Request
}

func (k kind) f32() bool     { return k.req.Dtype == "f32" }
func (k kind) faulted() bool { return k.req.Faults > 0 }

// workload is one traffic mix. The mix proportions are a fixed cycle, not a
// per-request lottery: with a few hundred requests per round a lottery would
// move the mean request cost by a few percent between seeds, which is the
// size of the regressions the bounds are meant to catch. The seed decides
// operand data and fault positions only.
type workload struct {
	name  string
	why   string
	kinds []kind
	cycle []int // indices into kinds, one full period of the mix
	// warmup is the discarded request count charged to setup_s; traceLimit
	// caps the traced pass's replay length.
	warmup     int
	traceLimit int
}

func gemm(n int, dtype, mode, integrity string, faults int, faultKind string) serve.Request {
	return serve.Request{Kernel: "gemm", N: n, Dtype: dtype, VerifyMode: mode,
		Integrity: integrity, Faults: faults, FaultKind: faultKind}
}

func cholesky(n, faults int, faultKind string) serve.Request {
	return serve.Request{Kernel: "cholesky", N: n, Faults: faults, FaultKind: faultKind}
}

// workloads lists the four mixes in the order rounds interleave them. The
// names are final: later issues refer to them.
var workloads = buildWorkloads()

func buildWorkloads() []*workload {
	ws := []*workload{
		{
			name: "wire_f32_n16",
			why:  "3 us of f32 compute per 0.1 ms round trip: JSON/HTTP, ParseRequest, qos admission, dispatch and the gateway hop do the work; serve/cluster changes show here only",
			kinds: []kind{
				{"gemm_f32_n16", 1, gemm(16, "f32", "", "", 0, "")},
			},
			warmup: 400, traceLimit: 200,
		},
		{
			name: "ladder_f64_mix",
			why:  "f64 requests through the recovery ladder: per-request core.NewRuntime, the trace.Memory.Touch cache simulator and per-step checkpoints dominate; ROADMAP item 1 shows here",
			kinds: []kind{
				{"gemm_f64_n128_fused", 2, gemm(128, "", "fused", "", 0, "")},
				{"gemm_f64_n128_notified", 1, gemm(128, "", "notified", "", 0, "")},
				{"cholesky_f64_n128", 2, cholesky(128, 0, "")},
				{"cg_f64_24x24", 1, serve.Request{Kernel: "cg", NX: 24, NY: 24}},
			},
			warmup: 12, traceLimit: 50,
		},
		{
			name: "kernel_f32_n192",
			why:  "f32 bypasses the simulator, so the packed mat kernel plus abft.GEMM32 encode/fold/verify are most of the request; kernel work (SIMD, generic kernel) shows here",
			kinds: []kind{
				{"gemm_f32_n192", 1, gemm(192, "f32", "", "", 0, "")},
			},
			warmup: 40, traceLimit: 200,
		},
		{
			name: "chaos_vote_mix",
			why:  "same layers used differently: the ladder's repair/rollback rungs under injected faults and the gateway's R=3 vote fan-out and /v1/verify; a clean-path gain paid for here shows",
			kinds: []kind{
				{"gemm_f64_n64_notified", 2, gemm(64, "", "notified", "", 0, "")},
				{"gemm_f64_n64_notified_chip", 1, gemm(64, "", "notified", "", 1, "chip-failure")},
				{"cholesky_f64_n64", 2, cholesky(64, 0, "")},
				// Double-bit, not chip-failure: about one chip-failure in 4000
				// lands where every checkpoint already holds it and the
				// request ends aborted, and a benchmark run must not fail.
				{"cholesky_f64_n64_double_bit", 1, cholesky(64, 1, "double-bit")},
				{"gemm_f32_n64", 2, gemm(64, "f32", "", "", 0, "")},
				{"gemm_f32_n64_fault", 1, gemm(64, "f32", "", "", 1, "")},
				{"gemm_f64_n64_vote", 1, gemm(64, "", "fused", "vote", 0, "")},
				{"gemm_f64_n64_verify_vote", 1, gemm(64, "", "fused", "verify-vote", 0, "")},
			},
			warmup: 44, traceLimit: 200,
		},
	}
	for _, w := range ws {
		w.cycle = smoothCycle(w.kinds)
	}
	return ws
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smoothCycle expands the kinds' weights into one period that spreads each
// kind evenly (smooth weighted round-robin), so any window of a round sees
// the mix in proportion.
func smoothCycle(kinds []kind) []int {
	total := 0
	for _, k := range kinds {
		total += k.weight
	}
	cur := make([]int, len(kinds))
	cycle := make([]int, 0, total)
	for len(cycle) < total {
		best := 0
		for i, k := range kinds {
			cur[i] += k.weight
			if cur[i] > cur[best] {
				best = i
			}
		}
		cur[best] -= total
		cycle = append(cycle, best)
	}
	return cycle
}

// weight returns kind k's share of the mix.
func (w *workload) weight(k int) float64 {
	return float64(w.kinds[k].weight) / float64(len(w.cycle))
}

// nameHash folds a workload name into the seed stream.
func nameHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// request returns request i of client c: a pure function of (seed,
// workload, c, i), so a run replays a prefix of a fixed sequence. Clients
// start at evenly spaced phases of the cycle so they do not run the mix's
// expensive kind in lockstep.
func (w *workload) request(seed uint64, c, i, clients int) (int, serve.Request) {
	phase := c * len(w.cycle) / clients
	k := w.cycle[(i+phase)%len(w.cycle)]
	s := campaign.Splitmix64(seed ^ nameHash(w.name))
	s = campaign.Splitmix64(s + uint64(c)*0x9e3779b97f4a7c15)
	s = campaign.Splitmix64(s + uint64(i))
	req := w.kinds[k].req
	req.Seed = s
	return k, req
}

// bareCost is the unprotected kernel of one request, timed from outside.
type bareCost struct {
	start time.Time // of the fastest run
	d     time.Duration
	flops float64 // computed, exact for the algorithm run
	bytes float64 // computed compulsory traffic: operands read once, result written once
}

// bare runs the request's unprotected kernel reps times on operands
// regenerated from the request seed and returns the fastest run. Operand
// generation is not timed.
func bare(req serve.Request, reps int) bareCost {
	var run func() (time.Time, time.Duration)
	var cost bareCost
	n := float64(req.N)
	switch {
	case req.Kernel == "gemm" && req.Dtype == "f32":
		a, b := mat.Random32(req.N, req.N, req.Seed), mat.Random32(req.N, req.N, req.Seed+1)
		c := mat.New32(req.N, req.N)
		cost.flops, cost.bytes = 2*n*n*n, 3*n*n*4
		run = func() (time.Time, time.Duration) {
			c.Zero()
			return timed(func() { mat.MulAddInto32(c, a, b) })
		}
	case req.Kernel == "gemm":
		a, b := mat.Random(req.N, req.N, req.Seed), mat.Random(req.N, req.N, req.Seed+1)
		c := mat.New(req.N, req.N)
		cost.flops, cost.bytes = 2*n*n*n, 3*n*n*8
		run = func() (time.Time, time.Duration) {
			return timed(func() { mat.MulInto(c, a, b) })
		}
	case req.Kernel == "cholesky":
		spd := mat.SymmetricPositiveDefinite(req.N, req.Seed)
		a := mat.New(req.N, req.N)
		cost.flops, cost.bytes = n*n*n/3, 2*n*n*8
		run = func() (time.Time, time.Duration) {
			a.CopyFrom(spd)
			return timed(func() {
				if err := mat.CholeskyBlocked(a, 32, nil); err != nil {
					panic(fmt.Sprintf("abftbench: bare cholesky on an SPD matrix failed: %v", err))
				}
			})
		}
	default: // cg
		a := mat.Poisson2D(req.NX, req.NY)
		rhs := make([]float64, a.N)
		a.MulVecInto(rhs, mat.RandomVec(a.N, req.Seed))
		run = func() (time.Time, time.Duration) {
			var iters int
			t, d := timed(func() { iters = plainCG(a, rhs, 1e-9) })
			nn, nnz := float64(a.N), float64(a.NNZ())
			// Per iteration: one SpMV (2·nnz flops; values, column indices
			// and x read, q written), two dots and three axpys.
			cost.flops = float64(iters) * (2*nnz + 10*nn)
			cost.bytes = float64(iters) * (16*nnz + 12*8*nn)
			return t, d
		}
	}
	for r := 0; r < reps; r++ {
		if t, d := run(); r == 0 || d < cost.d {
			cost.start, cost.d = t, d
		}
	}
	return cost
}

// plainCG is the unprotected baseline FT-CG is measured against: textbook
// conjugate gradients on the CSR operator to a relative residual of tol. It
// returns the iteration count.
func plainCG(a *mat.CSR, b []float64, tol float64) int {
	n := a.N
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	q := make([]float64, n)
	rho := mat.Dot(r, r)
	stop := tol * tol * rho
	iters := 0
	for ; iters < 20*n && rho > stop; iters++ {
		a.MulVecInto(q, p)
		alpha := rho / mat.Dot(p, q)
		mat.Axpy(alpha, p, x)
		mat.Axpy(-alpha, q, r)
		next := mat.Dot(r, r)
		mat.Scale(next/rho, p)
		mat.Axpy(1, r, p)
		rho = next
	}
	return iters
}
