package abft

import (
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// HPL is the fault-tolerant High Performance Linpack of [10] (§2.1),
// targeting fail-stop errors. The matrix is block-cyclically distributed
// over a 2×2 process grid; an extra checksum "process row" holds, for every
// pair of sibling rows (the rows two process rows store at the same local
// position), their element-wise sum. The encoding is maintained through the
// whole factorization: checksum rows are eliminated with the summed
// multiplier m_T = m₁ + m₂, so A = P·L·U progresses with the invariant
// T[u] = A[i₁] + A[i₂] intact. When a process fail-stops mid-run, every
// lost element is rebuilt as T[u][j] − A[sibling][j] and the factorization
// continues — no checkpoint, no restart.
type HPL struct {
	N  int
	NB int // distribution block size
	// Grid is fixed at 2×2 compute processes (the paper's smallest FT-HPL
	// deployment) plus a checksum process row.
	A Mat // n×n, ABFT-protected, factored in place
	T Mat // (n/2)×n checksum rows, ABFT-protected
	b Vec // right-hand side (unprotected input)
	// W is the broadcast-buffer arena the elimination reads: step k uses
	// row k, modeling the fresh receive buffer each panel broadcast of a
	// distributed HPL fills; not ABFT-protected (Table 4's unprotected
	// references).
	W Mat

	piv []int

	// FailAt, when ≥ 0, kills process (FailPr, FailPc) before elimination
	// step FailAt — the fail-stop injection.
	FailAt         int
	FailPr, FailPc int

	Ops         OpCounters
	Recovered   int // elements rebuilt after fail-stop
	Corrections []Correction

	env Env
}

// NewHPL builds a random diagonally dominant system of size n; n must be a
// multiple of 2·nb so every row has a sibling.
func NewHPL(env Env, n, nb int, seed uint64) (*HPL, error) {
	if nb < 1 || n < 2*nb || n%(2*nb) != 0 {
		return nil, fmt.Errorf("%w: HPL size %d must be a positive multiple of 2·nb = %d",
			ErrBadSize, n, 2*nb)
	}
	h := &HPL{N: n, NB: nb, FailAt: -1, env: env}
	h.A = env.NewMat("hpl.A", n, n, true)
	h.T = env.NewMat("hpl.T", n/2, n, true)
	h.b = env.NewVec("hpl.b", n, false)
	h.W = env.NewMat("hpl.W", n, n, false)

	src := mat.DiagonallyDominant(n, seed)
	h.A.Matrix.CopyFrom(src)
	xTrue := mat.RandomVec(n, seed+7)
	copy(h.b.Data, mat.MulVec(src, xTrue))
	h.encode()
	return h, nil
}

// sibling returns the partner row sharing i's checksum slot, and the slot.
func (h *HPL) sibling(i int) (partner, slot int) {
	blk := i / h.NB
	t := blk / 2
	off := i % h.NB
	slot = t*h.NB + off
	if blk%2 == 0 {
		partner = (2*t+1)*h.NB + off
	} else {
		partner = (2*t)*h.NB + off
	}
	return partner, slot
}

// ownerPr returns the process row owning global row i.
func (h *HPL) ownerPr(i int) int { return (i / h.NB) % 2 }

// ownerPc returns the process column owning global column j.
func (h *HPL) ownerPc(j int) int { return (j / h.NB) % 2 }

// encode builds T from scratch.
func (h *HPL) encode() {
	n := h.N
	for u := 0; u < n/2; u++ {
		i1 := (2*(u/h.NB))*h.NB + u%h.NB
		i2 := i1 + h.NB
		r1, r2, tr := h.A.Row(i1), h.A.Row(i2), h.T.Row(u)
		for j := 0; j < n; j++ {
			tr[j] = r1[j] + r2[j]
		}
		h.A.TouchRow(i1, 0, n, false)
		h.A.TouchRow(i2, 0, n, false)
		h.T.TouchRow(u, 0, n, true)
		h.ops(&h.Ops.Checksum, n)
	}
}

func (h *HPL) ops(bucket *uint64, n int) {
	*bucket += uint64(n)
	h.env.Mem.Ops(n)
}

// Run factors A = P·L·U, surviving a fail-stop injection when configured.
func (h *HPL) Run() error {
	n := h.N
	h.piv = make([]int, n)
	for k := 0; k < n; k++ {
		if h.FailAt == k {
			h.KillProcess(h.FailPr, h.FailPc)
			if err := h.RecoverFailStop(h.FailPr, h.FailPc); err != nil {
				return err
			}
			h.FailAt = -1
		}

		// Partial pivot.
		p, maxv := k, math.Abs(h.A.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(h.A.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		h.A.TouchCol(k, k, n-k, false)
		h.ops(&h.Ops.Compute, n-k)
		if maxv == 0 {
			return mat.ErrSingular
		}
		h.piv[k] = p
		if p != k {
			mat.SwapRows(h.A.Matrix, k, p)
			h.A.TouchRow(k, 0, n, true)
			h.A.TouchRow(p, 0, n, true)
			h.fixChecksumsAfterSwap(k, p)
		}

		pivot := h.A.At(k, k)
		// Broadcast the pivot row into the unprotected workspace; the
		// elimination reads the workspace copy, as a distributed HPL reads
		// its receive buffer.
		copy(h.W.Row(k)[k:], h.A.Row(k)[k:])
		h.A.TouchRow(k, k, n-k, false)
		h.W.TouchRow(k, k, n-k, true)
		rowK := h.W.Row(k)

		// Checksum-row elimination first (reads pre-elimination A values).
		h.eliminateChecksums(k, pivot, rowK)

		// Data-row elimination.
		for i := k + 1; i < n; i++ {
			ri := h.A.Row(i)
			m := ri[k] / pivot
			ri[k] = m
			if m != 0 {
				for j := k + 1; j < n; j++ {
					ri[j] -= m * rowK[j]
				}
			}
			h.A.TouchRow(i, k, n-k, true)
			h.W.TouchRow(k, k, n-k, false)
			h.ops(&h.Ops.Compute, 2*(n-k))
		}
	}
	return nil
}

// eliminateChecksums advances every checksum slot through step k.
func (h *HPL) eliminateChecksums(k int, pivot float64, rowK []float64) {
	n := h.N
	for u := 0; u < n/2; u++ {
		i1 := (2*(u/h.NB))*h.NB + u%h.NB
		i2 := i1 + h.NB
		tr := h.T.Row(u)
		a1, a2 := i1 > k, i2 > k
		switch {
		case a1 && a2:
			// Both siblings eliminated this step: m_T = T[u][k]/pivot.
			mT := tr[k] / pivot
			tr[k] = mT
			if mT != 0 {
				for j := k + 1; j < n; j++ {
					tr[j] -= mT * rowK[j]
				}
			}
			h.T.TouchRow(u, k, n-k, true)
			h.W.TouchRow(k, k, n-k, false)
			h.ops(&h.Ops.Checksum, 2*(n-k))
		case a1 || a2:
			// One sibling active: apply its multiplier explicitly.
			act := i1
			if a2 {
				act = i2
			}
			m := h.A.At(act, k) / pivot
			// After data elimination, storage act row holds m at column k;
			// the other sibling's column-k entry is already final.
			tr[k] += m - h.A.At(act, k)
			if m != 0 {
				for j := k + 1; j < n; j++ {
					tr[j] -= m * rowK[j]
				}
			}
			h.A.TouchElem(act, k, false)
			h.T.TouchRow(u, k, n-k, true)
			h.W.TouchRow(k, k, n-k, false)
			h.ops(&h.Ops.Checksum, 2*(n-k))
		}
	}
}

// fixChecksumsAfterSwap re-derives the (at most two) checksum slots whose
// sibling pairs changed content in a pivot swap.
func (h *HPL) fixChecksumsAfterSwap(r, s int) {
	_, ur := h.sibling(r)
	_, us := h.sibling(s)
	h.recomputeSlot(ur)
	if us != ur {
		h.recomputeSlot(us)
	}
}

func (h *HPL) recomputeSlot(u int) {
	n := h.N
	i1 := (2*(u/h.NB))*h.NB + u%h.NB
	i2 := i1 + h.NB
	r1, r2, tr := h.A.Row(i1), h.A.Row(i2), h.T.Row(u)
	for j := 0; j < n; j++ {
		tr[j] = r1[j] + r2[j]
	}
	h.A.TouchRow(i1, 0, n, false)
	h.A.TouchRow(i2, 0, n, false)
	h.T.TouchRow(u, 0, n, true)
	h.ops(&h.Ops.Checksum, n)
}

// KillProcess zeroes every element owned by process (pr, pc) — the
// fail-stop event.
func (h *HPL) KillProcess(pr, pc int) {
	n := h.N
	for i := 0; i < n; i++ {
		if h.ownerPr(i) != pr {
			continue
		}
		row := h.A.Row(i)
		for j := 0; j < n; j++ {
			if h.ownerPc(j) == pc {
				row[j] = 0
			}
		}
	}
}

// RecoverFailStop rebuilds every element owned by the dead process from the
// checksum relationship: A[i][j] = T[u][j] − A[sibling][j].
func (h *HPL) RecoverFailStop(pr, pc int) error {
	n := h.N
	for i := 0; i < n; i++ {
		if h.ownerPr(i) != pr {
			continue
		}
		sib, u := h.sibling(i)
		row, sibRow, tr := h.A.Row(i), h.A.Row(sib), h.T.Row(u)
		for j := 0; j < n; j++ {
			if h.ownerPc(j) != pc {
				continue
			}
			row[j] = tr[j] - sibRow[j]
			h.Recovered++
		}
		h.A.TouchRow(i, 0, n, true)
		h.A.TouchRow(sib, 0, n, false)
		h.T.TouchRow(u, 0, n, false)
		h.ops(&h.Ops.Verify, n/2)
	}
	return nil
}

// VerifyEncoding confirms T matches the sibling sums (test/diagnostic
// sweep); it returns the worst absolute deviation.
func (h *HPL) VerifyEncoding() float64 {
	n := h.N
	worst := 0.0
	for u := 0; u < n/2; u++ {
		i1 := (2*(u/h.NB))*h.NB + u%h.NB
		i2 := i1 + h.NB
		r1, r2, tr := h.A.Row(i1), h.A.Row(i2), h.T.Row(u)
		for j := 0; j < n; j++ {
			if d := math.Abs(tr[j] - (r1[j] + r2[j])); d > worst {
				worst = d
			}
		}
		h.ops(&h.Ops.Verify, 2*n)
	}
	return worst
}

// Solve returns the solution of A·x = b using the in-place factors.
func (h *HPL) Solve() []float64 {
	x := mat.SolveLU(h.A.Matrix, h.piv, h.b.Data)
	h.ops(&h.Ops.Compute, 2*h.N*h.N)
	return x
}

// CheckResult factors a clean copy and compares solutions (test helper).
func (h *HPL) CheckResult(orig *mat.Matrix) error {
	lu := orig.Clone()
	piv, err := mat.LU(lu, nil)
	if err != nil {
		return err
	}
	want := mat.SolveLU(lu, piv, h.b.Data)
	got := h.Solve()
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= 1e-6) {
			return fmt.Errorf("abft: HPL solution diverges at %d: %g vs %g", i, got[i], want[i])
		}
	}
	return nil
}
