package abft

import (
	"math"

	"coopabft/internal/mat"
)

// LU is a fault-tolerant LU factorization with partial pivoting targeting
// fail-continue errors, after Davies & Chen's online soft-error correction
// for LU (the paper's reference [9]) — the natural fifth kernel alongside
// §2.1's four. The matrix is extended with two checksum columns, the plain
// row sums A·e and the weighted row sums A·w (w_j = j+1):
//
//	Af = [ A | A·e | A·w ]
//
// Row operations — pivoting swaps and eliminations — act on whole extended
// rows, so both relations survive every step once the in-place multiplier
// storage is accounted for. At each step the trailing rows are examined:
// a mismatch (δ, δ₂) in row i locates the corrupted column as δ₂/δ − 1 and
// the element is repaired in place, before the panel consumes it.
type LU struct {
	rowCoded

	// Af is the n×(n+2) extended matrix, ABFT-protected; columns n and n+1
	// hold the plain and weighted row checksums.
	Af Mat
	// W is the unprotected pivot-row broadcast buffer (one fresh row per
	// step, as in FT-HPL).
	W Mat
	b Vec

	piv []int
}

// NewLU builds a random diagonally dominant system of size n.
func NewLU(env Env, n int, seed uint64) *LU {
	l := &LU{rowCoded: newRowCoded(env, n)}
	l.Af = env.NewMat("lu.Af", n, n+2, true)
	l.W = env.NewMat("lu.W", n, n+2, false)
	l.b = env.NewVec("lu.b", n, false)
	l.coded = []codedMat{{m: l.Af, name: "lu.Af", cs: "lu.cs", cs2: "lu.cs2"}}

	src := mat.DiagonallyDominant(n, seed)
	for i := 0; i < n; i++ {
		copy(l.Af.Row(i)[:n], src.Row(i))
	}
	xTrue := mat.RandomVec(n, seed+3)
	copy(l.b.Data, mat.MulVec(src, xTrue))
	l.encode(l.Af)
	return l
}

// Run factors the matrix in place with per-step verification.
func (l *LU) Run() error {
	n := l.N
	l.piv = make([]int, n)
	for k := 0; k < n; k++ {
		if err := l.verifyStep(k); err != nil {
			return err
		}

		// Partial pivot on column k.
		p, maxv := k, math.Abs(l.Af.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(l.Af.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		l.Af.TouchCol(k, k, n-k, false)
		l.ops(&l.Ops.Compute, n-k)
		if maxv == 0 {
			return mat.ErrSingular
		}
		l.piv[k] = p
		if p != k {
			// Swapping full extended rows preserves both checksums.
			mat.SwapRows(l.Af.Matrix, k, p)
			l.Af.TouchRow(k, 0, n+2, true)
			l.Af.TouchRow(p, 0, n+2, true)
		}

		pivot := l.Af.At(k, k)
		// Broadcast the pivot row into the unprotected workspace.
		copy(l.W.Row(k)[k:], l.Af.Row(k)[k:])
		l.Af.TouchRow(k, k, n+2-k, false)
		l.W.TouchRow(k, k, n+2-k, true)
		rowK := l.W.Row(k)

		// Active-column sums of the pivot row, for the exact checksum
		// update: the elimination touches only columns > k, so the stored
		// checksum (a full-row sum including row k's own L part) cannot be
		// used directly.
		sumA, sumW := 0.0, 0.0
		for j := k + 1; j < n; j++ {
			sumA += rowK[j]
			sumW += float64(j+1) * rowK[j]
		}
		l.ops(&l.Ops.Checksum, 3*(n-k))

		for i := k + 1; i < n; i++ {
			ri := l.Af.Row(i)
			v := ri[k]
			m := v / pivot
			ri[k] = m
			if m != 0 {
				for j := k + 1; j < n; j++ {
					ri[j] -= m * rowK[j]
				}
			}
			// Exact checksum maintenance: the storage row changed by
			// (m − v) at column k and by −m·rowK[j] at each active column.
			ri[n] += m - v - m*sumA
			ri[n+1] += float64(k+1)*(m-v) - m*sumW
			l.Af.TouchRow(i, k, n+2-k, true)
			l.W.TouchRow(k, k, n-k, false)
			l.ops(&l.Ops.Compute, 2*(n-k))
			l.ops(&l.Ops.Checksum, 8)
		}
	}
	return l.finish()
}

// VerifyRows re-checks rows [lo, n) of Af: the checksum columns are
// maintained to equal the exact storage-row sums, so a plain re-sum must
// match, and mismatches locate corrupted elements (column = δ₂/δ − 1).
func (l *LU) VerifyRows(lo int) error { return l.sweep(&l.coded[0], lo, l.N) }

// Solve returns x with A·x = b using the in-place factors.
func (l *LU) Solve() []float64 {
	lu := l.Af.View(0, 0, l.N, l.N)
	x := mat.SolveLU(lu, l.piv, l.b.Data)
	l.ops(&l.Ops.Compute, 2*l.N*l.N)
	return x
}

// CheckResult compares against a direct factorization of the original
// matrix (test helper).
func (l *LU) CheckResult(orig *mat.Matrix) error {
	return l.checkSolve("LU", orig, l.b.Data, l.Solve)
}
