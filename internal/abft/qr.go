package abft

import (
	"fmt"
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
	N int

	// Af is n×(n+2): the matrix transforming into R, plus checksum columns.
	Af Mat
	// Vf is n×(n+2): the Householder vectors (column k = reflector k) plus
	// incremental dual row checksums.
	Vf Mat
	// beta holds the reflector coefficients; they are derived data,
	// recomputable from V, and are left unprotected.
	beta Vec
	b    Vec

	CheckPeriod int
	Mode        VerifyMode
	Tol         float64

	Ops         OpCounters
	Corrections []Correction

	env Env
	k   int
}

// NewQR builds a random well-conditioned system of size n.
func NewQR(env Env, n int, seed uint64) *QR {
	q := &QR{
		N:           n,
		CheckPeriod: 1,
		Tol:         1e-7 * float64(n) * float64(n),
		env:         env,
	}
	q.Af = env.NewMat("qr.Af", n, n+2, true)
	q.Vf = env.NewMat("qr.Vf", n, n+2, true)
	q.beta = env.NewVec("qr.beta", n, false)
	q.b = env.NewVec("qr.b", n, false)

	src := mat.DiagonallyDominant(n, seed)
	for i := 0; i < n; i++ {
		row := q.Af.Row(i)
		copy(row[:n], src.Row(i))
		s, s2 := 0.0, 0.0
		for j := 0; j < n; j++ {
			s += row[j]
			s2 += float64(j+1) * row[j]
		}
		row[n] = s
		row[n+1] = s2
		q.Af.TouchRow(i, 0, n+2, true)
		q.ops(&q.Ops.Checksum, 3*n)
	}
	xTrue := mat.RandomVec(n, seed+9)
	copy(q.b.Data, mat.MulVec(src, xTrue))
	return q
}

func (q *QR) ops(bucket *uint64, n int) {
	*bucket += uint64(n)
	q.env.Mem.Ops(n)
}

// Run factors the matrix with per-step verification.
func (q *QR) Run() error {
	n := q.N
	for k := 0; k < n; k++ {
		q.k = k
		if q.CheckPeriod > 0 && k%q.CheckPeriod == 0 {
			if err := q.verifyStep(k); err != nil {
				return err
			}
		}
		if err := q.householder(k); err != nil {
			return err
		}
	}
	q.k = n
	if q.CheckPeriod > 0 && q.Mode == FullVerify {
		if err := q.VerifyR(); err != nil {
			return err
		}
		return q.VerifyV(n)
	} else if q.Mode == NotifiedVerify {
		return q.verifyNotified()
	}
	return nil
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

func (q *QR) verifyStep(k int) error {
	if q.Mode == NotifiedVerify {
		return q.verifyNotified()
	}
	return q.verifyRows(q.Af, "qr.Af", k)
}

// VerifyR re-checks every row of the (partially or fully) factored matrix.
func (q *QR) VerifyR() error { return q.verifyRows(q.Af, "qr.Af", 0) }

// VerifyV re-checks the reflector store's incremental checksums for rows
// [0, upto).
func (q *QR) VerifyV(upto int) error {
	n := q.N
	for i := 0; i < upto; i++ {
		row := q.Vf.Row(i)
		s, s2 := 0.0, 0.0
		for j := 0; j < n; j++ {
			s += row[j]
			s2 += float64(j+1) * row[j]
		}
		q.Vf.TouchRow(i, 0, n+2, false)
		q.ops(&q.Ops.Verify, 3*n)
		if err := q.repairRow(q.Vf, "qr.Vf", i, row[n]-s, row[n+1]-s2); err != nil {
			return err
		}
	}
	return nil
}

// verifyRows re-sums rows [lo, n) of an extended matrix.
func (q *QR) verifyRows(m Mat, name string, lo int) error {
	n := q.N
	for i := lo; i < n; i++ {
		row := m.Row(i)
		s, s2 := 0.0, 0.0
		for j := 0; j < n; j++ {
			s += row[j]
			s2 += float64(j+1) * row[j]
		}
		m.TouchRow(i, 0, n+2, false)
		q.ops(&q.Ops.Verify, 3*n)
		if err := q.repairRow(m, name, i, row[n]-s, row[n+1]-s2); err != nil {
			return err
		}
	}
	return nil
}

// repairRow interprets a (δ, δ₂) mismatch on row i of an extended matrix.
func (q *QR) repairRow(m Mat, name string, i int, delta, delta2 float64) error {
	n := q.N
	tol := q.Tol
	if math.Abs(delta) <= tol && math.Abs(delta2) <= tol {
		return nil
	}
	if math.Abs(delta) <= tol {
		m.Add(i, n+1, -delta2)
		m.TouchElem(i, n+1, true)
		q.Corrections = append(q.Corrections, Correction{Structure: name + ".cs2", I: i, Delta: -delta2})
		q.env.corrected(m.Addr(i, n+1))
		return nil
	}
	col := delta2/delta - 1
	cj := int(math.Round(col))
	if !(math.Abs(col-float64(cj)) <= 0.25) || cj < 0 || cj >= n {
		if math.Abs(delta2) <= tol {
			m.Add(i, n, -delta)
			m.TouchElem(i, n, true)
			q.Corrections = append(q.Corrections, Correction{Structure: name + ".cs", I: i, Delta: -delta})
			q.env.corrected(m.Addr(i, n))
			return nil
		}
		return fmt.Errorf("%w: %s row %d deltas (%g, %g) locate no element",
			ErrUncorrectable, name, i, delta, delta2)
	}
	m.Add(i, cj, delta)
	m.TouchElem(i, cj, true)
	q.ops(&q.Ops.Verify, 2)
	// Post-repair re-verification guards against multi-error aliasing (see
	// the FT-LU analogue).
	row := m.Row(i)
	s, s2 := 0.0, 0.0
	for j := 0; j < n; j++ {
		s += row[j]
		s2 += float64(j+1) * row[j]
	}
	q.ops(&q.Ops.Verify, 3*n)
	if !(math.Abs(row[n]-s) <= tol && math.Abs(row[n+1]-s2) <= tol) {
		m.Add(i, cj, -delta)
		return fmt.Errorf("%w: %s row %d has multiple corrupted elements", ErrUncorrectable, name, i)
	}
	q.Corrections = append(q.Corrections, Correction{Structure: name, I: i, J: cj, Delta: delta})
	q.env.corrected(m.Addr(i, cj))
	return nil
}

// verifyNotified re-sums exactly the rows the OS reported corrupted.
func (q *QR) verifyNotified() error {
	if q.env.Notify == nil {
		return nil
	}
	type key struct {
		inV bool
		row int
	}
	seen := map[key]bool{}
	for _, note := range q.env.Notify() {
		for off := uint64(0); off < 64; off += 8 {
			addr := note.VirtAddr + off
			if i, _, ok := q.Af.ElemAt(addr); ok && !seen[key{false, i}] {
				seen[key{false, i}] = true
				if err := q.verifyOne(q.Af, "qr.Af", i); err != nil {
					return err
				}
			} else if i, _, ok := q.Vf.ElemAt(addr); ok && !seen[key{true, i}] {
				seen[key{true, i}] = true
				if err := q.verifyOne(q.Vf, "qr.Vf", i); err != nil {
					return err
				}
			}
		}
		// Examined: above-tolerance damage was repaired, the rest is
		// roundoff-level; resolve the hardware fault state for the line.
		q.env.corrected(note.VirtAddr)
	}
	return nil
}

func (q *QR) verifyOne(m Mat, name string, i int) error {
	n := q.N
	row := m.Row(i)
	s, s2 := 0.0, 0.0
	for j := 0; j < n; j++ {
		s += row[j]
		s2 += float64(j+1) * row[j]
	}
	m.TouchRow(i, 0, n+2, false)
	q.ops(&q.Ops.Verify, 3*n)
	return q.repairRow(m, name, i, row[n]-s, row[n+1]-s2)
}

// VerifyNotified consumes pending OS corruption reports (public entry).
func (q *QR) VerifyNotified() error { return q.verifyNotified() }

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
	ref := orig.Clone()
	piv, err := mat.LU(ref, nil)
	if err != nil {
		return err
	}
	want := mat.SolveLU(ref, piv, q.b.Data)
	got := q.Solve()
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= 1e-6) {
			return fmt.Errorf("abft: QR solution diverges at %d: %g vs %g", i, got[i], want[i])
		}
	}
	return nil
}
