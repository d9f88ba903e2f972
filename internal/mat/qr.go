package mat

import "math"

// QR holds a Householder QR factorization: R in the upper triangle of a
// dense matrix and the Householder vectors (columns of V) with their β
// coefficients, from which Q is applied implicitly.
type QR struct {
	R    *Matrix
	V    *Matrix // V[i][k] = v_k[i] for i ≥ k (unit-free storage)
	Beta []float64
}

// QRFactor computes the Householder QR of a (square) matrix, leaving the
// input untouched. stepHook, if non-nil, runs after each reflection.
func QRFactor(a *Matrix, stepHook func(k int) error) (*QR, error) {
	n := a.Rows
	r := a.Clone()
	v := New(n, n)
	beta := make([]float64, n)
	for k := 0; k < n; k++ {
		b, err := HouseholderStep(r, v, beta, k)
		if err != nil {
			return nil, err
		}
		_ = b
		if stepHook != nil {
			if err := stepHook(k); err != nil {
				return nil, err
			}
		}
	}
	return &QR{R: r, V: v, Beta: beta}, nil
}

// HouseholderStep performs reflection k on r (any column count ≥ n rows
// domain): it builds v from column k of rows [k, n), stores it in v's
// column k, records β, and applies H = I − β·v·vᵀ to columns [k, r.Cols).
// Exposed so the ABFT QR can interleave checksum bookkeeping.
func HouseholderStep(r, v *Matrix, beta []float64, k int) (float64, error) {
	n := r.Rows
	// Build the reflector from x = r[k:, k].
	normx := 0.0
	for i := k; i < n; i++ {
		normx += r.At(i, k) * r.At(i, k)
	}
	normx = math.Sqrt(normx)
	if normx == 0 {
		return 0, ErrSingular
	}
	alpha := -normx
	if r.At(k, k) < 0 {
		alpha = normx
	}
	v.Set(k, k, r.At(k, k)-alpha)
	for i := k + 1; i < n; i++ {
		v.Set(i, k, r.At(i, k))
	}
	vtv := 0.0
	for i := k; i < n; i++ {
		vtv += v.At(i, k) * v.At(i, k)
	}
	if vtv == 0 {
		return 0, ErrSingular
	}
	b := 2 / vtv
	beta[k] = b

	// Apply H to every remaining column (including any appended checksum
	// columns): r[k:, j] -= b·(vᵀ·r[k:, j])·v.
	for j := k; j < r.Cols; j++ {
		s := 0.0
		for i := k; i < n; i++ {
			s += v.At(i, k) * r.At(i, j)
		}
		s *= b
		for i := k; i < n; i++ {
			r.Add(i, j, -s*v.At(i, k))
		}
	}
	// Clean the numerically-zero subdiagonal of column k.
	r.Set(k, k, alpha)
	for i := k + 1; i < n; i++ {
		r.Set(i, k, 0)
	}
	return b, nil
}

// ApplyQ computes y = Q·x (reflectors in reverse order).
func (q *QR) ApplyQ(x []float64) []float64 {
	n := q.R.Rows
	y := make([]float64, n)
	copy(y, x)
	for k := n - 1; k >= 0; k-- {
		s := 0.0
		for i := k; i < n; i++ {
			s += q.V.At(i, k) * y[i]
		}
		s *= q.Beta[k]
		for i := k; i < n; i++ {
			y[i] -= s * q.V.At(i, k)
		}
	}
	return y
}

// QMatrix materializes Q explicitly (test helper, O(n³)).
func (q *QR) QMatrix() *Matrix {
	n := q.R.Rows
	out := New(n, n)
	for j := 0; j < n; j++ {
		e := make([]float64, n)
		e[j] = 1
		col := q.ApplyQ(e)
		for i := 0; i < n; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}
