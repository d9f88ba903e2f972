package recovery

import (
	"fmt"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/core"
	"coopabft/internal/mat"
	"coopabft/internal/trace"
)

// State is one named piece of application state in the checkpoint set.
type State struct {
	Name string
	Data []float64
	Reg  trace.Region
}

// InjectTarget is one data structure faults may land in. ABFT marks whether
// the region is under algorithmic protection — faults in non-ABFT targets
// are the ladder's Case-4 feed.
type InjectTarget struct {
	Name string
	T    bifit.Target
	ABFT bool
}

// Workload adapts one ABFT kernel to the coordinator: a steppable,
// restartable run with a hook at every step boundary, plus the verification
// entry points the ladder escalates through. Check is the final oracle — it
// compares against reference state captured at construction, so a wrong
// answer can never be classified as success.
type Workload interface {
	Name() string
	// Steps is the nominal hook-tick horizon of one uninterrupted run
	// (injection schedules draw from [0, Steps)).
	Steps() int
	SetHook(fn func(step int))
	// RunFrom executes from the given step boundary; 0 on a fresh start,
	// the checkpoint's resume step after a restore.
	RunFrom(step int) error
	CheckpointSet() []State
	InjectTargets() []InjectTarget
	// DrainNotified consumes pending OS corruption reports (Case 2 tail).
	DrainNotified() error
	// FullVerify runs the expensive full sweep (the degradation path).
	FullVerify() error
	// Check is the end-of-run oracle against pristine reference state.
	Check() error
	Corrections() int
}

// Answerer is the optional interface workloads implement to expose their
// user-visible answer for canonical fingerprinting (replica voting at the
// cluster gateway). It is deliberately not part of Workload: fingerprinting
// is a serving concern, and the coordinator never needs it.
type Answerer interface {
	// AppendAnswer appends the answer's float64 chunks to dst in canonical
	// order — the exact bits abft.AnswerSig hashes — and returns the
	// extended slice. The chunks are views of the workload's own storage,
	// valid while it is. All honest replicas of the same request produce
	// bit-identical chunks under the determinism contract (same seed → same
	// data, same faults, same repairs).
	AppendAnswer(dst [][]float64) [][]float64
}

// ---- FT-DGEMM ----

type dgemmWork struct {
	d      *abft.DGEMM
	states [1]State // CheckpointSet's, built once
}

// NewDGEMMWorkload builds an FT-DGEMM workload in the given verify mode
// (notified for the cooperative path, fused for kernel-resident online
// checks, full for the software-only baseline). Block is lowered to 16 so a
// run has several panel boundaries for mid-run injection while each rank-16
// update stays above the parallel threshold for n ≥ 80.
func NewDGEMMWorkload(rt *core.Runtime, n int, seed uint64, mode abft.VerifyMode) (Workload, error) {
	d, err := rt.NewDGEMM(n, seed)
	if err != nil {
		return nil, err
	}
	d.Mode = mode
	d.Block = 16
	// Cf is the only mutated state; Ac/Br are read-only inputs and stay
	// pristine because injections target the result encoding.
	return &dgemmWork{d: d, states: [1]State{{Name: "dgemm.Cf", Data: d.Cf.Data, Reg: d.Cf.Reg}}}, nil
}

func (w *dgemmWork) Name() string              { return "dgemm" }
func (w *dgemmWork) Steps() int                { return w.d.Panels() }
func (w *dgemmWork) SetHook(fn func(step int)) { w.d.OnPanel = fn }
func (w *dgemmWork) RunFrom(step int) error    { return w.d.RunFrom(step) }
func (w *dgemmWork) Corrections() int          { return len(w.d.Corrections) }

func (w *dgemmWork) CheckpointSet() []State { return w.states[:] }

func (w *dgemmWork) InjectTargets() []InjectTarget {
	return []InjectTarget{
		{Name: "Cf", T: bifit.Target{Data: w.d.Cf.Data, Reg: w.d.Cf.Reg}, ABFT: true},
	}
}

func (w *dgemmWork) DrainNotified() error { return w.d.VerifyNotified() }
func (w *dgemmWork) FullVerify() error    { return w.d.VerifyFull() }
func (w *dgemmWork) Check() error         { return w.d.CheckResult() }

// AppendAnswer appends the n×n result view's rows — the user-visible
// product, excluding the checksum row/column (an encoding detail, not the
// answer).
func (w *dgemmWork) AppendAnswer(dst [][]float64) [][]float64 {
	c := w.d.C()
	for i := 0; i < c.Rows; i++ {
		dst = append(dst, c.Row(i))
	}
	return dst
}

// ---- FT-Cholesky ----

type cholWork struct {
	c      *abft.Cholesky
	orig   mat.Matrix
	states [5]State // CheckpointSet's, built once
}

// NewCholeskyWorkload builds an FT-Cholesky workload in notified mode. Its
// unprotected panel workspace W is an inject target, so this kernel feeds
// the ladder's Case 4 (faults outside ABFT data). Use n ≥ 96 to keep the
// first trailing updates above the parallel threshold.
func NewCholeskyWorkload(rt *core.Runtime, n int, seed uint64) (Workload, error) {
	c := rt.NewCholesky(n, seed)
	c.Mode = abft.NotifiedVerify
	// Make the workspace hardware-repairable like the registered ABFT
	// structures, so chipkill corrections write back into it too.
	rt.RegisterTarget(c.W.Data, c.W.Reg)
	cs, cs2, lcs, lcs2 := c.Checksums()
	for _, v := range []abft.Vec{cs, cs2, lcs, lcs2} {
		rt.RegisterTarget(v.Data, v.Reg)
	}
	w := &cholWork{c: c, states: [5]State{
		{Name: "chol.A", Data: c.A.Data, Reg: c.A.Reg},
		{Name: "chol.cs", Data: cs.Data, Reg: cs.Reg},
		{Name: "chol.cs2", Data: cs2.Data, Reg: cs2.Reg},
		{Name: "chol.lcs", Data: lcs.Data, Reg: lcs.Reg},
		{Name: "chol.lcs2", Data: lcs2.Data, Reg: lcs2.Reg},
	}}
	mat.InitIn(rt.Arena, &w.orig, n, n).CopyFrom(c.A.Matrix)
	return w, nil
}

func (w *cholWork) Name() string              { return "cholesky" }
func (w *cholWork) Steps() int                { return w.c.Steps() }
func (w *cholWork) SetHook(fn func(step int)) { w.c.OnPanel = fn }
func (w *cholWork) RunFrom(step int) error    { return w.c.RunFrom(step) }
func (w *cholWork) Corrections() int          { return len(w.c.Corrections) }

func (w *cholWork) CheckpointSet() []State { return w.states[:] }

func (w *cholWork) InjectTargets() []InjectTarget {
	cs, cs2, _, _ := w.c.Checksums()
	return []InjectTarget{
		{Name: "A", T: bifit.Target{Data: w.c.A.Data, Reg: w.c.A.Reg}, ABFT: true},
		{Name: "cs", T: bifit.Target{Data: cs.Data, Reg: cs.Reg}, ABFT: true},
		{Name: "cs2", T: bifit.Target{Data: cs2.Data, Reg: cs2.Reg}, ABFT: true},
		{Name: "W", T: bifit.Target{Data: w.c.W.Data, Reg: w.c.W.Reg}, ABFT: false},
	}
}

func (w *cholWork) DrainNotified() error { return w.c.VerifyNotified() }
func (w *cholWork) FullVerify() error    { return w.c.VerifyL(w.c.N) }
func (w *cholWork) Check() error         { return w.c.CheckResult(&w.orig) }

// AppendAnswer appends the factor L's rows — the user-visible answer of a
// Cholesky request.
func (w *cholWork) AppendAnswer(dst [][]float64) [][]float64 {
	l := w.c.L()
	for i := 0; i < l.Rows; i++ {
		dst = append(dst, l.Row(i))
	}
	return dst
}

// ---- FT-CG ----

type cgWork struct {
	c      *abft.CG
	b0     []float64
	last   abft.CGOutcome
	states [2]State // CheckpointSet's, built once
}

// NewCGWorkload builds an FT-CG workload in notified mode. CG's restart is
// algorithmic: restoring x (and b) rebuilds the remaining iteration state
// (r, z, p, ρ), and RunFrom resumes the iteration count at the restored
// step, so replayed work is exactly the steps since the last checkpoint.
func NewCGWorkload(rt *core.Runtime, nx, ny int, seed uint64) (Workload, error) {
	c := rt.NewCG(nx, ny, seed)
	c.Mode = abft.NotifiedVerify
	c.RelTol = 1e-9
	b, _ := c.VecFor("b")
	b0 := rt.Arena.Floats(len(b.Data))
	copy(b0, b.Data)
	x, _ := c.VecFor("x")
	return &cgWork{c: c, b0: b0, states: [2]State{
		{Name: "cg.x", Data: x.Data, Reg: x.Reg},
		{Name: "cg.b", Data: b.Data, Reg: b.Reg},
	}}, nil
}

func (w *cgWork) Name() string              { return "cg" }
func (w *cgWork) Steps() int                { return 32 }
func (w *cgWork) SetHook(fn func(step int)) { w.c.OnIteration = fn }
func (w *cgWork) Corrections() int          { return len(w.c.Corrections) }

func (w *cgWork) RunFrom(step int) error {
	out, err := w.c.RunFrom(step)
	w.last = out
	if err != nil {
		return err
	}
	if !out.Converged {
		return fmt.Errorf("%w: CG stalled (residual %g after %d iterations)",
			abft.ErrUncorrectable, out.Residual, out.Iterations)
	}
	return nil
}

// Solve reports the last RunFrom leg's solver outcome (iterations,
// residual) — the long-job serving layer surfaces it in job status.
func (w *cgWork) Solve() abft.CGOutcome { return w.last }

// AppendAnswer appends the solution vector x as a single chunk.
func (w *cgWork) AppendAnswer(dst [][]float64) [][]float64 { return append(dst, w.c.X()) }

func (w *cgWork) CheckpointSet() []State { return w.states[:] }

func (w *cgWork) InjectTargets() []InjectTarget {
	out := make([]InjectTarget, 0, 6)
	for _, name := range []string{"r", "p", "q", "x", "b", "z"} {
		v, _ := w.c.VecFor(name)
		out = append(out, InjectTarget{Name: name,
			T: bifit.Target{Data: v.Data, Reg: v.Reg}, ABFT: true})
	}
	return out
}

func (w *cgWork) DrainNotified() error {
	_, err := w.c.VerifyNotified()
	return err
}

func (w *cgWork) FullVerify() error {
	_, err := w.c.VerifyInvariants()
	return err
}

// Check verifies the solution against the right-hand side captured at
// construction — corruption of the live b cannot fool the oracle.
func (w *cgWork) Check() error {
	res := w.c.ResidualAgainst(w.b0)
	bn := mat.Norm2(w.b0)
	if bn == 0 {
		bn = 1
	}
	if !(res <= 1e-6*bn) {
		return fmt.Errorf("recovery: CG residual %g exceeds tolerance", res/bn)
	}
	return nil
}
