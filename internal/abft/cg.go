package abft

import (
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// CG is the fault-tolerant preconditioned conjugate gradient of [8] (§2.1,
// Figure 1), with Jacobi preconditioner M = diag(A) and a sparse 5-point
// Poisson operator — CG is the paper's memory-intensive workload. Unlike
// the checksum kernels it detects errors through the algorithm's invariants
// (Equations 1): the orthogonality pᵀ·r⁽ⁱ⁺¹⁾ = 0 and the residual relation
// r + A·x − b = 0, examined every few iterations. Recovery recomputes
// r = b − A·x and restarts the search direction, which restores convergence
// from any fail-continue corruption of r, p, q, x or b; with hardware
// notification, individual elements are rebuilt in O(row) instead.
type CG struct {
	A     *mat.CSR
	aVal  Vec // CSR values, not ABFT-protected (the operator is read-only input)
	aCol  Vec // column indices (metered as part of A's traffic)
	r     Vec // ABFT-protected vectors (relaxed-ECC candidates, §2.1)
	p     Vec
	q     Vec
	x     Vec
	b     Vec
	z     Vec // preconditioner state: errors detectable via the invariants
	mdiag Vec

	CheckPeriod int
	Mode        VerifyMode
	// InvTol is the relative invariant tolerance used for error detection.
	InvTol float64
	// RelTol/MaxIter are the solver's convergence controls.
	RelTol  float64
	MaxIter int

	// OnIteration, if set, runs at the top of every iteration — the hook
	// fault-injection campaigns use.
	OnIteration func(iter int)

	Ops         OpCounters
	Corrections []Correction
	Recoveries  int // invariant-triggered direction restarts

	env   Env
	rho   float64
	bnorm float64
	iter  int
}

// CGOutcome reports a finished solve.
type CGOutcome struct {
	Converged  bool
	Iterations int
	Residual   float64
}

// NewCG builds a Poisson problem on an nx×ny grid with a known solution.
func NewCG(env Env, nx, ny int, seed uint64) *CG {
	aVal := env.NewVec("cg.A.val", mat.Poisson2DNNZ(nx, ny), false)
	// Metered storage is the live storage, and the indices come from the
	// arena like every other buffer of the run.
	a := mat.Poisson2DInto(aVal.Data, env.Arena.Int32s(nx*ny+1), env.Arena.Int32s(len(aVal.Data)), nx, ny)
	n := a.N
	c := &CG{
		A:           a,
		aVal:        aVal,
		CheckPeriod: 8,
		InvTol:      1e-6,
		RelTol:      1e-10,
		MaxIter:     20 * (nx + ny),
		env:         env,
	}
	c.aCol = env.NewVec("cg.A.col", (a.NNZ()+1)/2, false)
	c.r = env.NewVec("cg.r", n, true)
	c.p = env.NewVec("cg.p", n, true)
	c.q = env.NewVec("cg.q", n, true)
	c.x = env.NewVec("cg.x", n, true)
	c.b = env.NewVec("cg.b", n, true)
	c.z = env.NewVec("cg.z", n, true)
	c.mdiag = env.NewVec("cg.M", n, true)

	xTrue := env.Arena.New(1, n)
	mat.FillRandom(xTrue, seed)
	a.MulVecInto(c.b.Data, xTrue.Data)
	for i := range c.mdiag.Data {
		c.mdiag.Data[i] = diagOf(a, i)
	}
	return c
}

// N returns the unknown count.
func (c *CG) N() int { return c.A.N }

// X returns the current solution estimate.
func (c *CG) X() []float64 { return c.x.Data }

// R returns the current residual vector (exposed for fault injection).
func (c *CG) R() []float64 { return c.r.Data }

// P returns the current search direction (exposed for fault injection).
func (c *CG) P() []float64 { return c.p.Data }

// VecFor returns the instrumented vector wrapper by name ("r", "p", "q",
// "x", "b") for address computations in injection campaigns.
func (c *CG) VecFor(name string) (Vec, bool) {
	switch name {
	case "r":
		return c.r, true
	case "p":
		return c.p, true
	case "q":
		return c.q, true
	case "x":
		return c.x, true
	case "b":
		return c.b, true
	case "z":
		return c.z, true
	default:
		return Vec{}, false
	}
}

func (c *CG) ops(bucket *uint64, n int) {
	*bucket += uint64(n)
	c.env.Mem.Ops(n)
}

// matvec computes dst = A·src with instrumentation. With nobody listening
// the product runs as the plain kernel (same ascending sum per row, so the
// same bits); that is decided once per call, because only the OnIteration
// hook, which never runs inside matvec, can arm a probe. An armed walk keeps
// its row-by-row interleaving: a touch can have the ECC write a corrected
// value back into data a later row reads.
func (c *CG) matvec(dst Vec, src Vec, bucket *uint64) {
	a := c.A
	if c.env.Mem.Dormant() {
		a.MulVecInto(dst.Data, src.Data)
		c.ops(bucket, 2*a.NNZ())
		return
	}
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		s := 0.0
		for k := lo; k < hi; k++ {
			s += a.Val[k] * src.Data[a.Col[k]]
		}
		dst.Data[i] = s
		c.aVal.Touch(int(lo), int(hi-lo), false)
		c.aCol.Touch(int(lo)/2, int(hi-lo+1)/2, false)
		for k := lo; k < hi; k++ {
			src.Touch(int(a.Col[k]), 1, false)
		}
		dst.Touch(i, 1, true)
	}
	c.ops(bucket, 2*a.NNZ())
}

// dot computes xᵀ·y with instrumentation.
func (c *CG) dot(xv, yv Vec, bucket *uint64) float64 {
	s := 0.0
	for i, v := range xv.Data {
		s += v * yv.Data[i]
	}
	xv.Touch(0, len(xv.Data), false)
	yv.Touch(0, len(yv.Data), false)
	c.ops(bucket, 2*len(xv.Data))
	return s
}

// Run executes the solver to convergence or MaxIter.
func (c *CG) Run() (CGOutcome, error) { return c.RunFrom(0) }

// RunFrom resumes the solve at global iteration step, rebuilding the
// derived iteration state (r, z, p, ρ) from the current x and b — which on
// a fresh start are x⁰ = 0 and the assembled right-hand side, and after a
// checkpoint restore (possibly on a different node) are the restored
// iterate. The rebuild is the same algebra as Recover: CG converges to the
// true solution from any x, so only x and b need to survive a migration.
func (c *CG) RunFrom(step int) (CGOutcome, error) {
	if step < 0 || step > c.MaxIter {
		return CGOutcome{}, fmt.Errorf("abft: CG resume step %d outside [0, %d]", step, c.MaxIter)
	}
	n := c.N()
	// r = b − A·x, z = M⁻¹r, p = z.
	c.matvec(c.q, c.x, &c.Ops.Compute)
	for i := 0; i < n; i++ {
		c.r.Data[i] = c.b.Data[i] - c.q.Data[i]
	}
	c.b.Touch(0, n, false)
	c.q.Touch(0, n, false)
	c.r.Touch(0, n, true)
	c.ops(&c.Ops.Compute, n)
	c.applyPrecond()
	copy(c.p.Data, c.z.Data)
	c.p.Touch(0, n, true)
	c.rho = c.dot(c.r, c.z, &c.Ops.Compute)
	c.bnorm = math.Sqrt(c.dot(c.b, c.b, &c.Ops.Compute))
	if c.bnorm == 0 {
		c.bnorm = 1
	}

	for c.iter = step; c.iter < c.MaxIter; c.iter++ {
		if c.OnIteration != nil {
			c.OnIteration(c.iter)
		}
		c.matvec(c.q, c.p, &c.Ops.Compute)
		pq := c.dot(c.p, c.q, &c.Ops.Compute)
		if pq == 0 {
			return CGOutcome{}, fmt.Errorf("abft: CG breakdown (pᵀAp = 0) at iteration %d", c.iter)
		}
		alpha := c.rho / pq
		for i := 0; i < n; i++ {
			c.x.Data[i] += alpha * c.p.Data[i]
			c.r.Data[i] -= alpha * c.q.Data[i]
		}
		c.x.Touch(0, n, true)
		c.p.Touch(0, n, false)
		c.r.Touch(0, n, true)
		c.q.Touch(0, n, false)
		c.ops(&c.Ops.Compute, 4*n)

		if c.CheckPeriod > 0 && (c.iter+1)%c.CheckPeriod == 0 {
			recovered, err := c.verify()
			if err != nil {
				return CGOutcome{}, err
			}
			if recovered {
				// The state was rebuilt from x (p = z, ρ = rᵀz): re-enter
				// the loop exactly as a restarted CG would.
				continue
			}
		}

		rnorm := math.Sqrt(c.dot(c.r, c.r, &c.Ops.Compute))
		if rnorm <= c.RelTol*c.bnorm {
			return CGOutcome{Converged: true, Iterations: c.iter + 1, Residual: rnorm}, nil
		}

		c.applyPrecond()
		rhoNext := c.dot(c.r, c.z, &c.Ops.Compute)
		beta := rhoNext / c.rho
		c.rho = rhoNext
		for i := 0; i < n; i++ {
			c.p.Data[i] = c.z.Data[i] + beta*c.p.Data[i]
		}
		c.z.Touch(0, n, false)
		c.p.Touch(0, n, true)
		c.ops(&c.Ops.Compute, 2*n)
	}
	return CGOutcome{Converged: false, Iterations: c.MaxIter,
		Residual: math.Sqrt(c.dot(c.r, c.r, &c.Ops.Compute))}, nil
}

func (c *CG) applyPrecond() {
	n := c.N()
	for i := 0; i < n; i++ {
		c.z.Data[i] = c.r.Data[i] / c.mdiag.Data[i]
	}
	c.r.Touch(0, n, false)
	c.mdiag.Touch(0, n, false)
	c.z.Touch(0, n, true)
	c.ops(&c.Ops.Compute, n)
}

// verify runs the Mode's error detection; it reports whether a recovery
// rebuilt the iteration state.
func (c *CG) verify() (recovered bool, err error) {
	if c.Mode == NotifiedVerify {
		return c.verifyNotified()
	}
	return c.VerifyInvariants()
}

// VerifyInvariants examines Equations (1): residual consistency and
// direction/residual orthogonality. A violation triggers Recover.
func (c *CG) VerifyInvariants() (bool, error) {
	n := c.N()
	// Orthogonality: pᵀ·r must vanish right after the r update.
	ortho := c.dot(c.p, c.r, &c.Ops.Verify)
	pn := math.Sqrt(c.dot(c.p, c.p, &c.Ops.Verify))
	rn := math.Sqrt(c.dot(c.r, c.r, &c.Ops.Verify))
	scale := pn * rn
	if scale == 0 {
		scale = 1
	}
	orthoBad := !(math.Abs(ortho) <= c.InvTol*scale)

	// Residual relation: r = b − A·x.
	c.matvec(c.z, c.x, &c.Ops.Verify) // z used as scratch; rebuilt below
	worst := 0.0
	for i := 0; i < n; i++ {
		d := math.Abs(c.b.Data[i] - c.z.Data[i] - c.r.Data[i])
		if d > worst || math.IsNaN(d) { // a NaN deviation stays the worst
			worst = d
		}
	}
	c.b.Touch(0, n, false)
	c.r.Touch(0, n, false)
	c.ops(&c.Ops.Verify, 2*n)
	residBad := !(worst <= c.InvTol*c.bnorm)

	if orthoBad || residBad {
		c.Recover()
		return true, nil
	}
	// z was clobbered as scratch; the loop tail recomputes it before use.
	return false, nil
}

// Recover rebuilds the iteration state from x: r = b − A·x, z = M⁻¹r,
// p = z, ρ = rᵀz. CG converges to the true solution from any x, so this
// heals corruption in any of the protected vectors without checkpointing.
func (c *CG) Recover() {
	n := c.N()
	c.matvec(c.q, c.x, &c.Ops.Verify)
	for i := 0; i < n; i++ {
		c.r.Data[i] = c.b.Data[i] - c.q.Data[i]
	}
	c.b.Touch(0, n, false)
	c.q.Touch(0, n, false)
	c.r.Touch(0, n, true)
	c.ops(&c.Ops.Verify, n)
	c.applyPrecond()
	copy(c.p.Data, c.z.Data)
	c.p.Touch(0, n, true)
	c.rho = c.dot(c.r, c.z, &c.Ops.Verify)
	c.Recoveries++
}

// VerifyNotified consumes pending OS corruption reports and repairs the
// affected elements; it reports whether a direction restart was needed.
func (c *CG) VerifyNotified() (bool, error) { return c.verifyNotified() }

// verifyNotified repairs exactly the elements the OS reported, each at
// O(row) cost — "much smaller than the worst case ABFT overhead" (§3.2.2).
func (c *CG) verifyNotified() (bool, error) {
	if c.env.Notify == nil {
		return false, nil
	}
	restartDirection := false
	for _, note := range c.env.Notify() {
		var xLine []int // x elements couple through A; repair them jointly
		for off := uint64(0); off < 64; off += 8 {
			addr := note.VirtAddr + off
			if k, ok := c.r.ElemAt(addr); ok {
				c.fixElem(c.r, "cg.r", k, c.b.Data[k]-c.rowDot(k, c.x))
			} else if k, ok := c.q.ElemAt(addr); ok {
				c.fixElem(c.q, "cg.q", k, c.rowDot(k, c.p))
			} else if k, ok := c.b.ElemAt(addr); ok {
				c.fixElem(c.b, "cg.b", k, c.r.Data[k]+c.rowDot(k, c.x))
			} else if k, ok := c.x.ElemAt(addr); ok {
				xLine = append(xLine, k)
			} else if k, ok := c.z.ElemAt(addr); ok {
				c.fixElem(c.z, "cg.z", k, c.r.Data[k]/c.mdiag.Data[k])
			} else if k, ok := c.mdiag.ElemAt(addr); ok {
				c.fixElem(c.mdiag, "cg.M", k, diagOf(c.A, k))
			} else if _, ok := c.p.ElemAt(addr); ok {
				restartDirection = true
			}
		}
		if len(xLine) > 0 {
			if err := c.fixXJoint(xLine); err != nil {
				return false, err
			}
		}
	}
	if restartDirection {
		// p carries history that cannot be rebuilt element-wise; restart
		// the direction from the (intact) residual.
		c.Recover()
		return true, nil
	}
	return false, nil
}

// rowDot is an instrumented A-row inner product.
func (c *CG) rowDot(i int, v Vec) float64 {
	a := c.A
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	s := 0.0
	for k := lo; k < hi; k++ {
		s += a.Val[k] * v.Data[a.Col[k]]
		v.Touch(int(a.Col[k]), 1, false)
	}
	c.aVal.Touch(int(lo), int(hi-lo), false)
	c.ops(&c.Ops.Verify, 2*int(hi-lo))
	return s
}

// fixXJoint rebuilds the x elements of one corrupted line from the residual
// relation r = b − A·x. Because the operator couples neighboring unknowns,
// the elements are solved for jointly: using the rows k ∈ K,
// Σ_{j∈K} A[k][j]·x[j] = b[k] − r[k] − Σ_{j∉K} A[k][j]·x[j].
func (c *CG) fixXJoint(ks []int) error {
	a := c.A
	m := len(ks)
	pos := make(map[int]int, m)
	for i, k := range ks {
		pos[k] = i
	}
	sys := c.env.Arena.New(m, m)
	rhs := c.env.Arena.Floats(m)
	for i, k := range ks {
		lo, hi := a.RowPtr[k], a.RowPtr[k+1]
		rhs[i] = c.b.Data[k] - c.r.Data[k]
		for t := lo; t < hi; t++ {
			j := int(a.Col[t])
			if jp, in := pos[j]; in {
				sys.Set(i, jp, a.Val[t])
			} else {
				rhs[i] -= a.Val[t] * c.x.Data[j]
				c.x.Touch(j, 1, false)
			}
		}
		c.aVal.Touch(int(lo), int(hi-lo), false)
		c.ops(&c.Ops.Verify, 2*int(hi-lo))
	}
	piv, err := mat.LU(sys, nil)
	if err != nil {
		return fmt.Errorf("%w: corrupted x line yields a singular repair system", ErrUncorrectable)
	}
	sol := mat.SolveLU(sys, piv, rhs)
	c.ops(&c.Ops.Verify, 2*m*m*m/3)
	for i, k := range ks {
		c.fixElem(c.x, "cg.x", k, sol[i])
	}
	return nil
}

func (c *CG) fixElem(v Vec, name string, k int, want float64) {
	old := v.Data[k]
	v.Data[k] = want
	v.Touch(k, 1, true)
	c.Corrections = append(c.Corrections, Correction{Structure: name, I: k, Delta: want - old})
	c.env.corrected(v.Addr(k))
}

func diagOf(a *mat.CSR, k int) float64 {
	for t := a.RowPtr[k]; t < a.RowPtr[k+1]; t++ {
		if int(a.Col[t]) == k {
			return a.Val[t]
		}
	}
	return 0
}

// TrueResidual computes ‖b − A·x‖₂ directly (test helper).
func (c *CG) TrueResidual() float64 { return c.ResidualAgainst(c.b.Data) }

// ResidualAgainst computes ‖b − A·x‖₂ for a caller-held right-hand side —
// an oracle passes the copy it took at construction, which corruption of
// the live b cannot reach.
func (c *CG) ResidualAgainst(b []float64) float64 {
	tmp := c.env.Arena.Floats(c.N())
	c.A.MulVecInto(tmp, c.x.Data)
	for i := range tmp {
		tmp[i] = b[i] - tmp[i]
	}
	return mat.Norm2(tmp)
}
