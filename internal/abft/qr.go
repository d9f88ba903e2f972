package abft

import (
	"math"

	"coopabft/internal/mat"
)

// QR is a fault-tolerant Householder QR factorization targeting
// fail-continue errors, after the ABFT dense-factorization framework of Du
// et al. (the paper's reference [14]). The working matrix carries two
// appended checksum columns (plain and weighted row sums); Householder
// reflections are applied from the left, and left-multiplications commute
// with right-appended columns — H·[A | A·e | A·w] = [HA | (HA)·e | (HA)·w]
// — so the encoding is maintained by the factorization itself, with no
// extra bookkeeping for the R part. The reflector store V gets incremental
// dual row checksums as its columns are written. Verification re-sums rows
// and locates a corrupted column as δ₂/δ − 1, exactly as in FT-LU.
type QR struct {
	rowCoded

	// Af is n×(n+2): the matrix transforming into R, plus checksum columns.
	Af Mat
	// Vf is n×(n+2): the Householder vectors (column k = reflector k) plus
	// incremental dual row checksums.
	Vf Mat
	// beta holds the reflector coefficients; they are derived data,
	// recomputable from V, and are left unprotected.
	beta Vec
	b    Vec
}

// NewQR builds a random well-conditioned system of size n.
func NewQR(env Env, n int, seed uint64) *QR {
	q := &QR{rowCoded: newRowCoded(env, n)}
	q.Af = env.NewMat("qr.Af", n, n+2, true)
	q.Vf = env.NewMat("qr.Vf", n, n+2, true)
	q.beta = env.NewVec("qr.beta", n, false)
	q.b = env.NewVec("qr.b", n, false)
	q.coded = []codedMat{
		{m: q.Af, name: "qr.Af", cs: "qr.Af.cs", cs2: "qr.Af.cs2"},
		{m: q.Vf, name: "qr.Vf", cs: "qr.Vf.cs", cs2: "qr.Vf.cs2"},
	}

	src := mat.DiagonallyDominant(n, seed)
	for i := 0; i < n; i++ {
		copy(q.Af.Row(i)[:n], src.Row(i))
	}
	q.encode(q.Af)
	xTrue := mat.RandomVec(n, seed+9)
	copy(q.b.Data, mat.MulVec(src, xTrue))
	return q
}

// Run factors the matrix with per-step verification.
func (q *QR) Run() error {
	n := q.N
	for k := 0; k < n; k++ {
		if err := q.verifyStep(k); err != nil {
			return err
		}
		if err := q.householder(k); err != nil {
			return err
		}
	}
	return q.finish()
}

// householder performs reflection k over the extended matrix, mirroring
// mat.HouseholderStep with instrumentation and V-checksum maintenance.
func (q *QR) householder(k int) error {
	n := q.N
	normx := 0.0
	for i := k; i < n; i++ {
		v := q.Af.At(i, k)
		normx += v * v
	}
	q.Af.TouchCol(k, k, n-k, false)
	q.ops(&q.Ops.Compute, 2*(n-k))
	normx = math.Sqrt(normx)
	if normx == 0 {
		return mat.ErrSingular
	}
	alpha := -normx
	if q.Af.At(k, k) < 0 {
		alpha = normx
	}

	// Build reflector column k of Vf and fold it into V's row checksums.
	vtv := 0.0
	for i := k; i < n; i++ {
		var vi float64
		if i == k {
			vi = q.Af.At(k, k) - alpha
		} else {
			vi = q.Af.At(i, k)
		}
		q.Vf.Set(i, k, vi)
		row := q.Vf.Row(i)
		row[n] += vi
		row[n+1] += float64(k+1) * vi
		vtv += vi * vi
		q.Vf.TouchRow(i, k, 1, true)
		q.Vf.TouchRow(i, n, 2, true)
	}
	q.ops(&q.Ops.Compute, 2*(n-k))
	q.ops(&q.Ops.Checksum, 3*(n-k))
	if vtv == 0 {
		return mat.ErrSingular
	}
	q.beta.Data[k] = 2 / vtv
	q.beta.Touch(k, 1, true)

	// Apply H to columns [k, n+2): the checksum columns ride along, which
	// is exactly what keeps the encoding valid.
	for j := k; j < n+2; j++ {
		s := 0.0
		for i := k; i < n; i++ {
			s += q.Vf.At(i, k) * q.Af.At(i, j)
		}
		s *= q.beta.Data[k]
		for i := k; i < n; i++ {
			q.Af.Add(i, j, -s*q.Vf.At(i, k))
		}
		q.Af.TouchCol(j, k, n-k, true)
		q.Vf.TouchCol(k, k, n-k, false)
		q.ops(&q.Ops.Compute, 4*(n-k))
	}
	// Exact zeros below the diagonal of column k; the checksum columns
	// already reflect the transformed values, so adjust them for the
	// numerical cleanup delta.
	for i := k + 1; i < n; i++ {
		resid := q.Af.At(i, k)
		if resid != 0 {
			row := q.Af.Row(i)
			row[n] -= resid
			row[n+1] -= float64(k+1) * resid
			q.Af.Set(i, k, 0)
			q.Af.TouchRow(i, n, 2, true)
			q.ops(&q.Ops.Checksum, 4)
		}
	}
	// Replace the transformed (k,k) value with the exact alpha (they agree
	// up to roundoff) and fold the residual into the checksums so they
	// keep tracking storage bit-exactly.
	old := q.Af.At(k, k)
	q.Af.Set(k, k, alpha)
	rowK := q.Af.Row(k)
	rowK[n] += alpha - old
	rowK[n+1] += float64(k+1) * (alpha - old)
	q.Af.TouchRow(k, n, 2, true)
	q.ops(&q.Ops.Checksum, 4)
	return nil
}

// VerifyR re-checks every row of the (partially or fully) factored matrix.
func (q *QR) VerifyR() error { return q.sweep(&q.coded[0], 0, q.N) }

// VerifyV re-checks the reflector store's incremental checksums for rows
// [0, upto).
func (q *QR) VerifyV(upto int) error { return q.sweep(&q.coded[1], 0, upto) }

// Solve returns x with A·x = b via R·x = Qᵀ·b.
func (q *QR) Solve() []float64 {
	n := q.N
	y := make([]float64, n)
	copy(y, q.b.Data)
	for k := 0; k < n; k++ {
		s := 0.0
		for i := k; i < n; i++ {
			s += q.Vf.At(i, k) * y[i]
		}
		s *= q.beta.Data[k]
		for i := k; i < n; i++ {
			y[i] -= s * q.Vf.At(i, k)
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= q.Af.At(i, j) * x[j]
		}
		x[i] = s / q.Af.At(i, i)
	}
	q.ops(&q.Ops.Compute, 3*n*n)
	return x
}

// CheckResult compares the solve against a reference LU of the original.
func (q *QR) CheckResult(orig *mat.Matrix) error {
	return q.checkSolve("QR", orig, q.b.Data, q.Solve)
}
