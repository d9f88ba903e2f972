// Package core is the paper's contribution: the cooperative software-
// hardware runtime that coordinates ABFT with main-memory ECC (ARE — ABFT
// plus Relaxed ECC). It binds the ABFT kernels of package abft to the
// simulated platform of package machine:
//
//   - ABFT-protected data structures are allocated with the OS's malloc_ecc
//     under the strategy's relaxed scheme, programming the memory
//     controller's ECC region registers (adjacent structures share
//     registers);
//   - everything else stays under the node's strong default scheme;
//   - ECC-uncorrectable-error interrupts flow through the OS into the
//     kernels' notified verification, which repairs exactly the corrupted
//     elements instead of recomputing checksums (§3.2.2);
//   - hardware corrections are written back into application storage and
//     residual fault state is cleared when ABFT overwrites corrupted data.
//
// NewRuntime binds the kernels to the timed platform and is what anything
// that reports cycles or joules uses (experiments, scaling, abftsim,
// paperfigs, the examples). NewFunctionalRuntime binds them to
// machine.NewFunctional: same allocation, injection, ECC and notification
// behaviour and therefore the same recovery outcomes, but no clock — its
// Finish reports ECC/OS counters and zero time and energy. Serving and the
// soak harness use that one.
package core

import (
	"errors"
	"fmt"
	"strings"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/ecc"
	"coopabft/internal/machine"
	"coopabft/internal/mat"
	"coopabft/internal/trace"
)

// Strategy is one of the six ECC configurations evaluated in §5.1.
type Strategy int

const (
	// NoECC runs everything unprotected (test 1, the baseline).
	NoECC Strategy = iota
	// WholeChipkill (W_CK) applies chipkill to all data (test 2).
	WholeChipkill
	// PartialChipkillNoECC (P_CK+No_ECC) removes ECC from ABFT-protected
	// data and keeps chipkill elsewhere (test 3).
	PartialChipkillNoECC
	// WholeSECDED (W_SD) applies SECDED to all data (test 4).
	WholeSECDED
	// PartialSECDEDNoECC (P_SD+No_ECC) removes ECC from ABFT-protected data
	// and keeps SECDED elsewhere (test 5).
	PartialSECDEDNoECC
	// PartialChipkillSECDED (P_CK+P_SD) keeps chipkill on unprotected data
	// and drops ABFT-protected data to SECDED (test 6).
	PartialChipkillSECDED
)

// Strategies lists all six in the paper's order.
var Strategies = []Strategy{
	NoECC, WholeChipkill, PartialChipkillNoECC,
	WholeSECDED, PartialSECDEDNoECC, PartialChipkillSECDED,
}

// String returns the paper's label.
func (s Strategy) String() string {
	switch s {
	case NoECC:
		return "No_ECC"
	case WholeChipkill:
		return "W_CK"
	case PartialChipkillNoECC:
		return "P_CK+No_ECC"
	case WholeSECDED:
		return "W_SD"
	case PartialSECDEDNoECC:
		return "P_SD+No_ECC"
	case PartialChipkillSECDED:
		return "P_CK+P_SD"
	default:
		return "Strategy(?)"
	}
}

// ErrUnknownStrategy reports a strategy label ParseStrategy cannot map.
var ErrUnknownStrategy = errors.New("core: unknown ECC strategy")

// ParseStrategy maps a paper label (case-insensitively) back to its
// Strategy — the inverse of String. Command-line flags and per-request
// strategy selection in the serving path both go through here.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownStrategy, name, Strategies)
}

// DefaultScheme returns the protection for data outside ABFT coverage.
func (s Strategy) DefaultScheme() ecc.Scheme {
	switch s {
	case NoECC:
		return ecc.None
	case WholeChipkill, PartialChipkillNoECC, PartialChipkillSECDED:
		return ecc.Chipkill
	default:
		return ecc.SECDED
	}
}

// ABFTScheme returns the protection for ABFT-protected data.
func (s Strategy) ABFTScheme() ecc.Scheme {
	switch s {
	case NoECC, PartialChipkillNoECC, PartialSECDEDNoECC:
		return ecc.None
	case WholeChipkill:
		return ecc.Chipkill
	case PartialChipkillSECDED, WholeSECDED:
		return ecc.SECDED
	default:
		return ecc.None
	}
}

// Partial reports whether the strategy relaxes ECC on ABFT data relative to
// the rest of the node.
func (s Strategy) Partial() bool {
	return s == PartialChipkillNoECC || s == PartialSECDEDNoECC || s == PartialChipkillSECDED
}

// Runtime couples one simulated node with the coordination machinery.
type Runtime struct {
	Strategy Strategy
	M        *machine.Machine
	Injector *bifit.Injector
	// Arena, when set before the first kernel is built, backs every float64
	// buffer the kernels, the checkpointer and the oracles need (see
	// abft.Env.Arena); whoever set it releases it once nothing reads the
	// run's data any more. Nil allocates from the heap.
	Arena *mat.Arena

	// env is Env's closures, built once per node.
	env abft.Env
	// kept holds the node's kernel objects across Resets: the first kernel
	// of each served kind (FT-DGEMM, FT-Cholesky, FT-CG) built in a life is
	// the kept one, re-initialised in place by its Reset; a second one in
	// the same life is built fresh and not kept. taken marks the kinds this
	// life has handed out.
	kept struct {
		dgemm *abft.DGEMM
		chol  *abft.Cholesky
		cg    *abft.CG
		taken [3]bool
	}
}

// Indices of the kept kernel kinds in Runtime.kept.taken.
const (
	keptDGEMM = iota
	keptCholesky
	keptCG
)

// keep returns the object of kind k this life's kernel is built over: the
// kept one (made on the node's first) for the life's first of its kind, a
// fresh one after that.
func keep[T any](rt *Runtime, slot **T, k int) *T {
	if rt.kept.taken[k] {
		return new(T)
	}
	rt.kept.taken[k] = true
	if *slot == nil {
		*slot = new(T)
	}
	return *slot
}

// NewRuntime builds a timed node configured for the strategy.
func NewRuntime(cfg machine.Config, s Strategy, seed int64) *Runtime {
	cfg.DefaultScheme = s.DefaultScheme()
	return newRuntime(machine.New(cfg), s, seed)
}

// NewFunctionalRuntime builds a node on machine.NewFunctional: every
// outcome NewRuntime would produce, no timing or energy. Faults must be
// followed by M.FlushCaches() to become visible to hardware, which is what
// recovery.Coordinator does after every injection.
func NewFunctionalRuntime(cfg machine.Config, s Strategy, seed int64) *Runtime {
	cfg.DefaultScheme = s.DefaultScheme()
	return newRuntime(machine.NewFunctional(cfg), s, seed)
}

func newRuntime(m *machine.Machine, s Strategy, seed int64) *Runtime {
	rt := &Runtime{M: m, Injector: bifit.New(m.OS, seed)}
	rt.Injector.InstallRepairHandler(m.Ctl)
	rt.env = abft.Env{
		Mem:   m.Memory(),
		Alloc: rt.alloc,
		Notify: func() []abft.Notification {
			pend := rt.M.OS.PendingCorruptions()
			out := make([]abft.Notification, len(pend))
			for i, p := range pend {
				out[i] = abft.Notification{VirtAddr: p.VirtAddr}
			}
			return out
		},
		OnCorrected: func(addr uint64) {
			// ABFT rewrote the data: drop the line's residual pattern.
			_ = rt.M.OS.ClearFaultAt(addr)
		},
	}
	rt.init(s)
	return rt
}

// init is the one body behind the constructors and Reset: the node, its
// injector, its Env closures and its kept kernel objects carried over (each
// kind free to be handed out again), everything else (the arena too) at its
// initial value.
func (rt *Runtime) init(s Strategy) {
	*rt = Runtime{Strategy: s, M: rt.M, Injector: rt.Injector, env: rt.env, kept: rt.kept}
	rt.kept.taken = [3]bool{}
}

// Reset returns a functional runtime to the state NewFunctionalRuntime(cfg,
// s, seed) built it in, for the cfg it was built with, over the storage its
// node has grown: machine.Machine.Reset and bifit.Injector.Reset composed.
// Nothing from before the call may still be in use: kernels, workloads and
// coordinators built on the runtime are dead (the next life rebuilds its
// kernels over the same objects), and the arena is forgotten, not released.
func (rt *Runtime) Reset(s Strategy, seed int64) {
	rt.M.Reset(s.DefaultScheme())
	rt.Injector.Reset(seed)
	rt.init(s)
}

// Env returns the kernel environment implementing the §3.2 coordination:
// ABFT allocations go through malloc_ecc with the relaxed scheme, the
// notifier drains the OS's shared corruption list, and ABFT repairs clear
// residual fault state. Its closures are built once per node; Arena is the
// runtime's at the time of the call.
func (rt *Runtime) Env() abft.Env {
	env := rt.env
	env.Arena = rt.Arena
	return env
}

func (rt *Runtime) alloc(name string, n int, abftProtected bool) trace.Region {
	size := uint64(n) * 8
	if abftProtected {
		a, err := rt.M.OS.MallocECC(name, size, rt.Strategy.ABFTScheme(), true)
		if err == nil {
			return a.Region
		}
		// Out of ECC registers: fall back to default protection (the data
		// stays ABFT-protected algorithmically, just not relaxed).
	}
	return rt.M.OS.Malloc(name, size).Region
}

// RegisterTarget makes a kernel data structure injectable and repairable.
func (rt *Runtime) RegisterTarget(data []float64, reg trace.Region) {
	rt.Injector.Register(bifit.Target{Data: data, Reg: reg})
}

// NewDGEMM builds an FT-DGEMM wired to this runtime (targets registered).
func (rt *Runtime) NewDGEMM(n int, seed uint64) (*abft.DGEMM, error) {
	d := keep(rt, &rt.kept.dgemm, keptDGEMM)
	if err := d.Reset(rt.Env(), n, seed); err != nil {
		return nil, err
	}
	rt.RegisterTarget(d.Ac.Data, d.Ac.Reg)
	rt.RegisterTarget(d.Br.Data, d.Br.Reg)
	rt.RegisterTarget(d.Cf.Data, d.Cf.Reg)
	return d, nil
}

// NewCholesky builds an FT-Cholesky wired to this runtime.
func (rt *Runtime) NewCholesky(n int, seed uint64) *abft.Cholesky {
	c := keep(rt, &rt.kept.chol, keptCholesky)
	c.Reset(rt.Env(), n, seed)
	rt.RegisterTarget(c.A.Data, c.A.Reg)
	return c
}

// NewCG builds an FT-CG wired to this runtime.
func (rt *Runtime) NewCG(nx, ny int, seed uint64) *abft.CG {
	c := keep(rt, &rt.kept.cg, keptCG)
	c.Reset(rt.Env(), nx, ny, seed)
	for _, name := range []string{"r", "p", "q", "x", "b", "z"} {
		if v, ok := c.VecFor(name); ok {
			rt.RegisterTarget(v.Data, v.Reg)
		}
	}
	return c
}

// NewLU builds a fail-continue FT-LU wired to this runtime.
func (rt *Runtime) NewLU(n int, seed uint64) *abft.LU {
	l := abft.NewLU(rt.Env(), n, seed)
	rt.RegisterTarget(l.Af.Data, l.Af.Reg)
	return l
}

// NewQR builds a fail-continue FT-QR wired to this runtime.
func (rt *Runtime) NewQR(n int, seed uint64) *abft.QR {
	q := abft.NewQR(rt.Env(), n, seed)
	rt.RegisterTarget(q.Af.Data, q.Af.Reg)
	rt.RegisterTarget(q.Vf.Data, q.Vf.Reg)
	return q
}

// NewHPL builds an FT-HPL wired to this runtime.
func (rt *Runtime) NewHPL(n, nb int, seed uint64) (*abft.HPL, error) {
	h, err := abft.NewHPL(rt.Env(), n, nb, seed)
	if err != nil {
		return nil, err
	}
	rt.RegisterTarget(h.A.Data, h.A.Reg)
	rt.RegisterTarget(h.T.Data, h.T.Reg)
	return h, nil
}

// Finish closes out the run and returns platform metrics.
func (rt *Runtime) Finish() machine.Result { return rt.M.Finish() }
