package abft

import (
	"fmt"
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
	N int

	// Af is the n×(n+2) extended matrix, ABFT-protected; columns n and n+1
	// hold the plain and weighted row checksums.
	Af Mat
	// W is the unprotected pivot-row broadcast buffer (one fresh row per
	// step, as in FT-HPL).
	W Mat
	b Vec

	piv []int

	CheckPeriod int
	Mode        VerifyMode
	Tol         float64

	Ops         OpCounters
	Corrections []Correction

	env Env
	k   int // current elimination step
}

// NewLU builds a random diagonally dominant system of size n.
func NewLU(env Env, n int, seed uint64) *LU {
	l := &LU{
		N:           n,
		CheckPeriod: 1,
		Tol:         1e-7 * float64(n) * float64(n),
		env:         env,
	}
	l.Af = env.NewMat("lu.Af", n, n+2, true)
	l.W = env.NewMat("lu.W", n, n+2, false)
	l.b = env.NewVec("lu.b", n, false)

	src := mat.DiagonallyDominant(n, seed)
	for i := 0; i < n; i++ {
		copy(l.Af.Row(i)[:n], src.Row(i))
	}
	xTrue := mat.RandomVec(n, seed+3)
	copy(l.b.Data, mat.MulVec(src, xTrue))
	l.encode()
	return l
}

// encode establishes both checksum columns.
func (l *LU) encode() {
	n := l.N
	for i := 0; i < n; i++ {
		row := l.Af.Row(i)
		s, s2 := 0.0, 0.0
		for j := 0; j < n; j++ {
			s += row[j]
			s2 += float64(j+1) * row[j]
		}
		row[n] = s
		row[n+1] = s2
		l.Af.TouchRow(i, 0, n+2, true)
		l.ops(&l.Ops.Checksum, 3*n)
	}
}

func (l *LU) ops(bucket *uint64, n int) {
	*bucket += uint64(n)
	l.env.Mem.Ops(n)
}

// Run factors the matrix in place with per-step verification.
func (l *LU) Run() error {
	n := l.N
	l.piv = make([]int, n)
	for k := 0; k < n; k++ {
		l.k = k
		if l.CheckPeriod > 0 && k%l.CheckPeriod == 0 {
			if err := l.verifyStep(k); err != nil {
				return err
			}
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
	l.k = n
	if l.CheckPeriod > 0 && l.Mode == FullVerify {
		return l.VerifyRows(0)
	} else if l.Mode == NotifiedVerify {
		if err := l.verifyNotified(); err != nil {
			return err
		}
	}
	return nil
}

func (l *LU) verifyStep(k int) error {
	if l.Mode == NotifiedVerify {
		return l.verifyNotified()
	}
	return l.VerifyRows(k)
}

// VerifyRows recomputes both checksum relations for rows [lo, n). The
// checksum columns are maintained to equal the exact storage-row sums, so a
// plain re-sum must match; mismatches locate corrupted elements
// (column = δ₂/δ − 1).
func (l *LU) VerifyRows(lo int) error {
	n := l.N
	for i := lo; i < n; i++ {
		row := l.Af.Row(i)
		s, s2 := 0.0, 0.0
		for j := 0; j < n; j++ {
			s += row[j]
			s2 += float64(j+1) * row[j]
		}
		l.Af.TouchRow(i, 0, n+2, false)
		l.ops(&l.Ops.Verify, 3*n)
		if err := l.repairRow(i, row[n]-s, row[n+1]-s2); err != nil {
			return err
		}
	}
	return nil
}

// repairRow interprets a (δ, δ₂) mismatch on row i.
func (l *LU) repairRow(i int, delta, delta2 float64) error {
	n := l.N
	tol := l.Tol
	if math.Abs(delta) <= tol && math.Abs(delta2) <= tol {
		return nil
	}
	if math.Abs(delta) <= tol {
		// Only the weighted checksum is off: it is itself corrupted.
		l.Af.Add(i, n+1, -delta2)
		l.Af.TouchElem(i, n+1, true)
		l.Corrections = append(l.Corrections, Correction{Structure: "lu.cs2", I: i, Delta: -delta2})
		l.env.corrected(l.Af.Addr(i, n+1))
		return nil
	}
	col := delta2/delta - 1
	cj := int(math.Round(col))
	if !(math.Abs(col-float64(cj)) <= 0.25) || cj < 0 || cj >= n {
		if math.Abs(delta2) <= tol {
			// The plain checksum element itself is corrupted.
			l.Af.Add(i, n, -delta)
			l.Af.TouchElem(i, n, true)
			l.Corrections = append(l.Corrections, Correction{Structure: "lu.cs", I: i, Delta: -delta})
			l.env.corrected(l.Af.Addr(i, n))
			return nil
		}
		return fmt.Errorf("%w: row %d deltas (%g, %g) locate no element",
			ErrUncorrectable, i, delta, delta2)
	}
	l.Af.Add(i, cj, delta)
	l.Af.TouchElem(i, cj, true)
	l.ops(&l.Ops.Verify, 2)
	// Post-repair re-verification: several errors in one row can alias to a
	// plausible single-element explanation (δ₂/δ is a weighted average of
	// the corrupted columns' weights); a genuine single-error fix leaves the
	// row consistent, an aliased one does not.
	row := l.Af.Row(i)
	s, s2 := 0.0, 0.0
	for j := 0; j < n; j++ {
		s += row[j]
		s2 += float64(j+1) * row[j]
	}
	l.ops(&l.Ops.Verify, 3*n)
	if !(math.Abs(row[n]-s) <= tol && math.Abs(row[n+1]-s2) <= tol) {
		l.Af.Add(i, cj, -delta) // revert the misguided fix
		return fmt.Errorf("%w: row %d has multiple corrupted elements", ErrUncorrectable, i)
	}
	l.Corrections = append(l.Corrections, Correction{Structure: "lu.Af", I: i, J: cj, Delta: delta})
	l.env.corrected(l.Af.Addr(i, cj))
	return nil
}

// verifyNotified repairs exactly the rows the OS reported corrupted — one
// O(n) row re-sum per corrupted line instead of the O(n²) sweep.
func (l *LU) verifyNotified() error {
	if l.env.Notify == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, note := range l.env.Notify() {
		for off := uint64(0); off < 64; off += 8 {
			if i, _, ok := l.Af.ElemAt(note.VirtAddr + off); ok && !seen[i] {
				seen[i] = true
				if err := l.verifyOneRow(i); err != nil {
					return err
				}
			}
		}
		// The row has been examined: anything above the numerical
		// tolerance was repaired, anything below is roundoff-level, so the
		// hardware fault state for this line is resolved either way.
		l.env.corrected(note.VirtAddr)
	}
	return nil
}

func (l *LU) verifyOneRow(i int) error {
	n := l.N
	row := l.Af.Row(i)
	s, s2 := 0.0, 0.0
	for j := 0; j < n; j++ {
		s += row[j]
		s2 += float64(j+1) * row[j]
	}
	l.Af.TouchRow(i, 0, n+2, false)
	l.ops(&l.Ops.Verify, 3*n)
	return l.repairRow(i, row[n]-s, row[n+1]-s2)
}

// VerifyNotified consumes pending OS corruption reports (public entry for
// post-run coordination).
func (l *LU) VerifyNotified() error { return l.verifyNotified() }

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
	ref := orig.Clone()
	piv, err := mat.LU(ref, nil)
	if err != nil {
		return err
	}
	want := mat.SolveLU(ref, piv, l.b.Data)
	got := l.Solve()
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= 1e-6) {
			return fmt.Errorf("abft: LU solution diverges at %d: %g vs %g", i, got[i], want[i])
		}
	}
	return nil
}
