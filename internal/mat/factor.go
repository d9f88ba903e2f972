package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when a non-positive pivot
// is encountered.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// ErrSingular is returned by LU when no usable pivot exists in a column.
var ErrSingular = errors.New("mat: matrix is singular")

// Cholesky factors the SPD matrix a in place into its lower-triangular
// Cholesky factor L (a = L·Lᵀ). The strictly upper triangle is zeroed.
// It is the unblocked reference used by the blocked right-looking variant.
func Cholesky(a *Matrix) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := a.At(j, k)
			d -= v * v
		}
		if d <= 0 {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

// CholeskyBlocked factors the SPD matrix a in place with the right-looking
// blocked algorithm of §2.1 of the paper: for each diagonal block A11,
// (1) factor A11 = L11·L11ᵀ, (2) solve L21 from A21 = L21·L11ᵀ,
// (3) update the trailing matrix A22 -= L21·L21ᵀ, (4) recurse on A22.
// stepHook, if non-nil, runs after each iteration with the trailing offset;
// the ABFT layer uses it to verify checksums per step.
func CholeskyBlocked(a *Matrix, block int, stepHook func(done int) error) error {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: CholeskyBlocked of non-square %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	if block <= 0 {
		block = 32
	}
	for j := 0; j < n; j += block {
		b := min(block, n-j)
		a11 := a.View(j, j, b, b)
		if err := Cholesky(a11); err != nil {
			return err
		}
		if j+b < n {
			rest := n - j - b
			a21 := a.View(j+b, j, rest, b)
			// Solve L21·L11ᵀ = A21  (forward substitution on rows of A21).
			SolveXLT(a21, a11)
			// Trailing update A22 -= L21·L21ᵀ (lower triangle only; the
			// upper triangle is dead storage until zeroed at the end).
			a22 := a.View(j+b, j+b, rest, rest)
			SyrkLowerSub(a22, a21)
		}
		if stepHook != nil {
			if err := stepHook(j + b); err != nil {
				return err
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.Set(i, j, 0)
		}
	}
	return nil
}

// luPanelBlock is the panel width of the blocked right-looking LU, and
// luBlockMin the matrix size from which the blocked path pays off.
const (
	luPanelBlock = 48
	luBlockMin   = 96
)

// LU factors a in place into P·a = L·U with partial pivoting. The unit lower
// triangle of L is stored below the diagonal, U on and above. It returns the
// pivot permutation (piv[k] = row swapped into position k at step k).
// stepHook, if non-nil, runs after each elimination column; the ABFT layer
// uses it for per-step checksum verification.
//
// Large hook-free factorizations take the blocked right-looking path (the
// HPL schema: panel factorization, pivot swaps across the full rows, a
// small triangular solve for U12, and a rank-k trailing update through the
// packed GEMM kernel). With a stepHook the column-at-a-time reference runs
// instead, preserving the exact per-column intermediate states hooks
// observe.
func LU(a *Matrix, stepHook func(col int) error) (piv []int, err error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: LU of non-square %dx%d", a.Rows, a.Cols))
	}
	if stepHook == nil && a.Rows >= luBlockMin {
		return luBlocked(a)
	}
	return luUnblocked(a, stepHook)
}

// luBlocked is the right-looking blocked LU behind hook-free calls.
func luBlocked(a *Matrix) ([]int, error) {
	n := a.Rows
	piv := make([]int, n)
	for k0 := 0; k0 < n; k0 += luPanelBlock {
		bw := min(luPanelBlock, n-k0)
		// Panel factorization over columns [k0, k0+bw): pivot search on the
		// fully updated panel columns, swaps applied to the whole rows.
		for j := k0; j < k0+bw; j++ {
			p, maxv := j, math.Abs(a.At(j, j))
			for i := j + 1; i < n; i++ {
				if v := math.Abs(a.At(i, j)); v > maxv {
					p, maxv = i, v
				}
			}
			if maxv == 0 {
				return piv, ErrSingular
			}
			piv[j] = p
			if p != j {
				SwapRows(a, j, p)
			}
			d := a.At(j, j)
			for i := j + 1; i < n; i++ {
				m := a.At(i, j) / d
				a.Set(i, j, m)
				urow := a.Data[j*a.Stride+j+1 : j*a.Stride+k0+bw]
				irow := a.Data[i*a.Stride+j+1 : i*a.Stride+k0+bw]
				for q, uv := range urow {
					irow[q] -= m * uv
				}
			}
		}
		if k0+bw < n {
			rest := n - k0 - bw
			// U12 = L11⁻¹·A12: forward substitution with the unit lower
			// panel triangle, row by row.
			for r := 1; r < bw; r++ {
				lrow := a.Data[(k0+r)*a.Stride+k0 : (k0+r)*a.Stride+k0+r]
				rrow := a.Data[(k0+r)*a.Stride+k0+bw : (k0+r)*a.Stride+n]
				for p, lv := range lrow {
					prow := a.Data[(k0+p)*a.Stride+k0+bw : (k0+p)*a.Stride+n]
					for q, pv := range prow {
						rrow[q] -= lv * pv
					}
				}
			}
			// Trailing rank-bw update A22 -= L21·U12 through the packed
			// parallel kernel — the dominant cost of the factorization.
			a21 := a.View(k0+bw, k0, rest, bw)
			u12 := a.View(k0, k0+bw, bw, rest)
			a22 := a.View(k0+bw, k0+bw, rest, rest)
			mulAdd(a22, a21, u12, -1, false)
		}
	}
	return piv, nil
}

// luUnblocked is the column-at-a-time reference elimination.
func luUnblocked(a *Matrix, stepHook func(col int) error) (piv []int, err error) {
	n := a.Rows
	piv = make([]int, n)
	for k := 0; k < n; k++ {
		// Partial pivot: largest |a[i][k]| for i >= k.
		p, maxv := k, math.Abs(a.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv == 0 {
			return piv, ErrSingular
		}
		piv[k] = p
		if p != k {
			SwapRows(a, k, p)
		}
		d := a.At(k, k)
		for i := k + 1; i < n; i++ {
			m := a.At(i, k) / d
			a.Set(i, k, m)
			if m == 0 {
				continue
			}
			urow := a.Data[k*a.Stride+k+1 : k*a.Stride+n]
			irow := a.Data[i*a.Stride+k+1 : i*a.Stride+n]
			for j, uv := range urow {
				irow[j] -= m * uv
			}
		}
		if stepHook != nil {
			if err := stepHook(k); err != nil {
				return piv, err
			}
		}
	}
	return piv, nil
}

// SwapRows exchanges rows i and j of a, covering all columns.
func SwapRows(a *Matrix, i, j int) {
	ri, rj := a.Row(i), a.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SolveLU solves a·x = b given the in-place LU factorization lu and pivots
// from LU. b is not modified.
func SolveLU(lu *Matrix, piv []int, b []float64) []float64 {
	n := lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveLU rhs length %d, want %d", len(b), n))
	}
	x := make([]float64, n)
	copy(x, b)
	for k := 0; k < n; k++ {
		if piv[k] != k {
			x[k], x[piv[k]] = x[piv[k]], x[k]
		}
	}
	// Forward: L·y = Pb (unit diagonal).
	for i := 1; i < n; i++ {
		row := lu.Data[i*lu.Stride : i*lu.Stride+i]
		s := x[i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Backward: U·x = y.
	for i := n - 1; i >= 0; i-- {
		row := lu.Data[i*lu.Stride+i+1 : i*lu.Stride+n]
		s := x[i]
		for j, v := range row {
			s -= v * x[i+1+j]
		}
		x[i] = s / lu.At(i, i)
	}
	return x
}
