// Package abft implements the four algorithm-based fault tolerance kernels
// the paper evaluates (§2.1): FT-DGEMM and FT-Cholesky (checksum-encoded,
// fail-continue), FT-CG (invariant-checked, fail-continue), and FT-HPL
// (checksum-encoded across processes, fail-stop).
//
// Every kernel supports two verification modes: Full recomputes checksums or
// invariants periodically, and Notified replaces that sweep with a read of
// the error list the OS exposes after an ECC-error interrupt (§3.2.2) — the
// optimization behind Table 1. Kernels account their arithmetic in three
// buckets (base computation, checksum maintenance, verification) to
// reproduce the Figure 3 overhead breakdown, and report every element access
// through a trace.Memory so the machine simulator can time and meter them.
package abft

import (
	"errors"
	"fmt"

	"coopabft/internal/mat"
	"coopabft/internal/trace"
)

// ErrUncorrectable is returned when a kernel detects corruption its
// redundancy cannot repair (Case 3 of §4 from the algorithm's side).
var ErrUncorrectable = errors.New("abft: detected errors exceed ABFT correction capability")

// ErrBadSize is returned by kernel constructors when the problem dimensions
// cannot carry the checksum encoding (wrap it with the specifics).
var ErrBadSize = errors.New("abft: invalid problem size")

// VerifyMode selects how a kernel detects errors.
type VerifyMode int

const (
	// FullVerify recomputes checksums/invariants at every check period.
	FullVerify VerifyMode = iota
	// NotifiedVerify reads hardware-located corruption reports from the OS
	// instead (the cooperative optimization of §3.2.2). It only sees errors
	// the ECC hardware detected; the kernels fall back to a full check when
	// the caller requests it.
	NotifiedVerify
	// FusedVerify folds checksum derivation into the packed GEMM itself
	// (FT-BLAS-style online ABFT): operand checksums ride the panel
	// packing pass and output checksums the micro-kernel's register
	// writeback, so every panel boundary compares O(n) values without the
	// O(n²) re-read of C that FullVerify pays. Detection is online —
	// faults surface as typed PanelFault reports at the boundary after
	// the corrupting panel instead of at the end of a sweep. DGEMM-only;
	// kernels without a fused path treat it as FullVerify.
	FusedVerify
)

// String implements fmt.Stringer.
func (v VerifyMode) String() string {
	switch v {
	case NotifiedVerify:
		return "notified"
	case FusedVerify:
		return "fused"
	}
	return "full"
}

// ErrUnknownVerifyMode is returned by ParseVerifyMode for mode names that
// are not full/notified/fused.
var ErrUnknownVerifyMode = errors.New("abft: unknown verify mode")

// ParseVerifyMode maps a wire/CLI name to its VerifyMode.
func ParseVerifyMode(s string) (VerifyMode, error) {
	for _, v := range []VerifyMode{FullVerify, NotifiedVerify, FusedVerify} {
		if s == v.String() {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownVerifyMode, s)
}

// Notification is one corrupted location reported by the OS (a drained
// osmodel.Corrupted, reduced to what kernels need).
type Notification struct {
	VirtAddr uint64 // line-aligned virtual address of the corruption
}

// Notifier drains pending corruption reports; wired to
// osmodel.OS.PendingCorruptions by package core. May be nil in standalone
// runs.
type Notifier func() []Notification

// OpCounters buckets a kernel's arithmetic for the Figure 3 breakdown.
type OpCounters struct {
	Compute  uint64 // the numerical algorithm itself
	Checksum uint64 // maintaining checksum rows/columns
	Verify   uint64 // periodic verification sweeps
}

// Total returns the sum of all buckets.
func (o OpCounters) Total() uint64 { return o.Compute + o.Checksum + o.Verify }

// OverheadFraction returns (checksum+verify)/total.
func (o OpCounters) OverheadFraction() float64 {
	t := o.Total()
	if t == 0 {
		return 0
	}
	return float64(o.Checksum+o.Verify) / float64(t)
}

// VerifyShareOfOverhead returns verify/(checksum+verify), Figure 3's split.
func (o OpCounters) VerifyShareOfOverhead() float64 {
	ov := o.Checksum + o.Verify
	if ov == 0 {
		return 0
	}
	return float64(o.Verify) / float64(ov)
}

// Correction records one repaired element.
type Correction struct {
	Structure string
	I, J      int
	Delta     float64 // the adjustment applied (new − corrupted)
}

// Env binds kernels to a platform: an instrumentation endpoint and an
// allocator that yields tagged virtual regions. Package core builds Envs
// over a machine; Standalone builds a pure-math Env.
type Env struct {
	Mem *trace.Memory
	// Alloc reserves n float64s. abft marks data protected by the
	// algorithm (candidates for relaxed ECC).
	Alloc func(name string, n int, abft bool) trace.Region
	// Notify drains OS corruption reports (nil when not on a machine).
	Notify Notifier
	// OnCorrected is called after ABFT repairs data so the platform can
	// clear residual fault state (nil-safe).
	OnCorrected func(virtAddr uint64)
	// Arena supplies the storage behind NewMat/NewVec and the kernels'
	// oracle temporaries. Nil (the default everywhere but the serving path)
	// allocates from the heap; with an arena, everything a kernel hands out
	// — its operands, L(), the answer views — is valid only until the
	// arena's owner releases it.
	Arena *mat.Arena
}

// Standalone returns an Env with no simulator attached: allocations come
// from a private address space and accesses are not metered.
func Standalone() Env {
	sp := trace.NewSpace()
	return Env{
		Mem:   &trace.Memory{},
		Alloc: func(name string, n int, abft bool) trace.Region { return sp.AllocFloats(name, n, abft) },
	}
}

// corrected reports a repaired address (nil-safe).
func (e *Env) corrected(addr uint64) {
	if e.OnCorrected != nil {
		e.OnCorrected(addr)
	}
}

// Mat is a matrix bound to a tagged virtual region.
type Mat struct {
	*mat.Matrix
	Reg trace.Region
	mem *trace.Memory
}

// NewMat allocates an r×c matrix in the environment.
func (e *Env) NewMat(name string, r, c int, abft bool) Mat {
	return e.matIn(new(mat.Matrix), name, r, c, abft)
}

// matIn is NewMat over the header m, for a kernel that keeps its headers
// across Resets.
func (e *Env) matIn(m *mat.Matrix, name string, r, c int, abft bool) Mat {
	return Mat{
		Matrix: mat.InitIn(e.Arena, m, r, c),
		Reg:    e.Alloc(name, r*c, abft),
		mem:    e.Mem,
	}
}

// Addr returns the virtual address of element (i, j).
func (m Mat) Addr(i, j int) uint64 { return m.Reg.Base + uint64(i*m.Stride+j)*8 }

// ElemAt inverts Addr: which element contains the virtual address?
func (m Mat) ElemAt(addr uint64) (i, j int, ok bool) {
	if !m.Reg.Contains(addr) {
		return 0, 0, false
	}
	idx := int((addr - m.Reg.Base) / 8)
	i, j = idx/m.Stride, idx%m.Stride
	if i >= m.Rows || j >= m.Cols {
		return 0, 0, false
	}
	return i, j, true
}

// TouchRow reports an access to elements (i, j0..j0+n).
func (m Mat) TouchRow(i, j0, n int, write bool) {
	m.mem.TouchFloats(m.Reg, i*m.Stride+j0, n, write)
}

// TouchCol reports a column walk over elements (i0..i0+n, j).
func (m Mat) TouchCol(j, i0, n int, write bool) {
	m.mem.TouchStrided(m.Reg, i0*m.Stride+j, n, m.Stride, write)
}

// TouchElem reports a single-element access.
func (m Mat) TouchElem(i, j int, write bool) {
	m.mem.TouchFloats(m.Reg, i*m.Stride+j, 1, write)
}

// Vec is a vector bound to a tagged virtual region.
type Vec struct {
	Data []float64
	Reg  trace.Region
	mem  *trace.Memory
}

// NewVec allocates a length-n vector in the environment.
func (e *Env) NewVec(name string, n int, abft bool) Vec {
	return Vec{Data: e.Arena.Floats(n), Reg: e.Alloc(name, n, abft), mem: e.Mem}
}

// Addr returns the virtual address of element i.
func (v Vec) Addr(i int) uint64 { return v.Reg.Base + uint64(i)*8 }

// ElemAt inverts Addr.
func (v Vec) ElemAt(addr uint64) (int, bool) {
	if !v.Reg.Contains(addr) {
		return 0, false
	}
	i := int((addr - v.Reg.Base) / 8)
	if i >= len(v.Data) {
		return 0, false
	}
	return i, true
}

// Touch reports an access to elements [i0, i0+n).
func (v Vec) Touch(i0, n int, write bool) { v.mem.TouchFloats(v.Reg, i0, n, write) }

// String describes the counters.
func (o OpCounters) String() string {
	return fmt.Sprintf("ops{compute %d, checksum %d, verify %d, overhead %.1f%%}",
		o.Compute, o.Checksum, o.Verify, 100*o.OverheadFraction())
}
