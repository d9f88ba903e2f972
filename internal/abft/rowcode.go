package abft

import (
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// dualVerdict is locateDual's reading of one line's checksum mismatch.
type dualVerdict int

const (
	dualClean    dualVerdict = iota // both deltas within tolerance
	dualWeighted                    // the weighted checksum itself is corrupted
	dualPlain                       // the plain checksum itself is corrupted
	dualElement                     // one element, at the returned index
)

// locateDual reads the mismatch (δ, δ₂) = (stored − recomputed) of one line
// coded with a plain checksum and a weighted one (weight i+1 on element i).
// A single corrupted element at index i gives δ₂ = (i+1)·δ, so δ₂/δ − 1
// locates it, to within 0.25 and inside the line's live range [lo, hi). A
// weighted mismatch alone blames the weighted checksum; a plain mismatch
// that locates nothing blames the plain checksum when the weighted one
// agrees. Anything else — several corrupted elements, or a non-finite
// delta — wraps ErrUncorrectable.
func locateDual(delta, delta2, tol float64, lo, hi int) (dualVerdict, int, error) {
	if math.Abs(delta) <= tol && math.Abs(delta2) <= tol {
		return dualClean, 0, nil
	}
	if math.Abs(delta) <= tol {
		return dualWeighted, 0, nil
	}
	at := delta2/delta - 1
	i := int(math.Round(at))
	if math.Abs(at-float64(i)) <= 0.25 && i >= lo && i < hi {
		return dualElement, i, nil
	}
	if math.Abs(delta2) <= tol {
		return dualPlain, 0, nil
	}
	return 0, 0, fmt.Errorf("%w: deltas (%g, %g) locate no element", ErrUncorrectable, delta, delta2)
}

// rowSums returns the plain and weighted (weight j+1) sums of row.
func rowSums(row []float64) (s, s2 float64) {
	for j, v := range row {
		s += v
		s2 += float64(j+1) * v
	}
	return s, s2
}

// codedMat is one n×(n+2) matrix whose columns n and n+1 hold the plain and
// weighted row sums of columns [0, n), with the Correction structure names
// of its elements and of its two checksum columns.
type codedMat struct {
	m             Mat
	name, cs, cs2 string
}

// rowCoded is the verification half FT-LU and FT-QR share: both carry
// their working data in row-coded matrices (codedMat) whose encoding the
// factorization keeps exact, so a plain re-sum must match, and a mismatch
// is read by locateDual. The kernels keep their factorization steps and
// Solve.
type rowCoded struct {
	N int

	CheckPeriod int
	Mode        VerifyMode
	Tol         float64

	Ops         OpCounters
	Corrections []Correction

	env Env
	// coded lists the row-coded matrices; the per-step sweep covers the
	// first, the end-of-run sweep and the notified walk all of them.
	coded []codedMat
}

func newRowCoded(env Env, n int) rowCoded {
	return rowCoded{
		N:           n,
		CheckPeriod: 1,
		Tol:         1e-7 * float64(n) * float64(n),
		env:         env,
	}
}

func (rc *rowCoded) ops(bucket *uint64, n int) {
	*bucket += uint64(n)
	rc.env.Mem.Ops(n)
}

// encode establishes both checksum columns of every row of m.
func (rc *rowCoded) encode(m Mat) {
	n := rc.N
	for i := 0; i < n; i++ {
		row := m.Row(i)
		row[n], row[n+1] = rowSums(row[:n])
		m.TouchRow(i, 0, n+2, true)
		rc.ops(&rc.Ops.Checksum, 3*n)
	}
}

// verifyStep checks per Mode before step k, every CheckPeriod steps: a
// sweep of the first coded matrix's live rows [k, n), or the notified walk.
func (rc *rowCoded) verifyStep(k int) error {
	if rc.CheckPeriod <= 0 || k%rc.CheckPeriod != 0 {
		return nil
	}
	if rc.Mode == NotifiedVerify {
		return rc.VerifyNotified()
	}
	return rc.sweep(&rc.coded[0], k, rc.N)
}

// finish is the end-of-run check: a full sweep of every coded matrix, or
// the notified walk.
func (rc *rowCoded) finish() error {
	if rc.CheckPeriod > 0 && rc.Mode == FullVerify {
		for i := range rc.coded {
			if err := rc.sweep(&rc.coded[i], 0, rc.N); err != nil {
				return err
			}
		}
	} else if rc.Mode == NotifiedVerify {
		return rc.VerifyNotified()
	}
	return nil
}

// sweep re-checks rows [lo, hi) of c.
func (rc *rowCoded) sweep(c *codedMat, lo, hi int) error {
	for i := lo; i < hi; i++ {
		if err := rc.checkRow(c, i); err != nil {
			return err
		}
	}
	return nil
}

// checkRow re-sums row i of c and repairs what the mismatch locates.
func (rc *rowCoded) checkRow(c *codedMat, i int) error {
	n := rc.N
	s, s2 := rowSums(c.m.Row(i)[:n])
	c.m.TouchRow(i, 0, n+2, false)
	rc.ops(&rc.Ops.Verify, 3*n)
	return rc.repair(c, i, s, s2)
}

// repair interprets row i's stored checksums against its recomputed sums
// (s, s2). A corrupted checksum is restored to its recomputed sum; a
// located element is repaired and the row re-verified.
func (rc *rowCoded) repair(c *codedMat, i int, s, s2 float64) error {
	n := rc.N
	row := c.m.Row(i)
	delta, delta2 := row[n]-s, row[n+1]-s2
	v, j, err := locateDual(delta, delta2, rc.Tol, 0, n)
	switch {
	case err != nil:
		return fmt.Errorf("%s row %d: %w", c.name, i, err)
	case v == dualClean:
		return nil
	case v == dualWeighted:
		rc.restoreChecksum(c, i, n+1, s2, c.cs2, -delta2)
		return nil
	case v == dualPlain:
		rc.restoreChecksum(c, i, n, s, c.cs, -delta)
		return nil
	}
	row[j] += delta
	c.m.TouchElem(i, j, true)
	rc.ops(&rc.Ops.Verify, 2)
	// Post-repair re-verification: several errors in one row can alias to a
	// plausible single-element explanation (δ₂/δ is a weighted average of
	// the corrupted columns' weights); a genuine single-error fix leaves the
	// row consistent, an aliased one does not.
	s, s2 = rowSums(row[:n])
	rc.ops(&rc.Ops.Verify, 3*n)
	if !(math.Abs(row[n]-s) <= rc.Tol && math.Abs(row[n+1]-s2) <= rc.Tol) {
		row[j] -= delta // revert the misguided fix
		return fmt.Errorf("%w: %s row %d has multiple corrupted elements", ErrUncorrectable, c.name, i)
	}
	rc.Corrections = append(rc.Corrections, Correction{Structure: c.name, I: i, J: j, Delta: delta})
	rc.env.corrected(c.m.Addr(i, j))
	return nil
}

// restoreChecksum rewrites the checksum at (i, col) of c to its recomputed
// sum want; delta is the recorded adjustment.
func (rc *rowCoded) restoreChecksum(c *codedMat, i, col int, want float64, name string, delta float64) {
	c.m.Set(i, col, want)
	c.m.TouchElem(i, col, true)
	rc.Corrections = append(rc.Corrections, Correction{Structure: name, I: i, Delta: delta})
	rc.env.corrected(c.m.Addr(i, col))
}

// VerifyNotified consumes pending OS corruption reports and re-checks
// exactly the rows they name — one O(n) row re-sum per corrupted row
// instead of the O(n²) sweep (also the public entry for post-run
// coordination).
func (rc *rowCoded) VerifyNotified() error {
	if rc.env.Notify == nil {
		return nil
	}
	type line struct{ m, i int }
	seen := map[line]bool{}
	for _, note := range rc.env.Notify() {
		for off := uint64(0); off < 64; off += 8 {
			for ci := range rc.coded {
				c := &rc.coded[ci]
				i, _, ok := c.m.ElemAt(note.VirtAddr + off)
				if !ok {
					continue
				}
				if !seen[line{ci, i}] {
					seen[line{ci, i}] = true
					if err := rc.checkRow(c, i); err != nil {
						return err
					}
				}
				break
			}
		}
		// The row has been examined: anything above the numerical
		// tolerance was repaired, anything below is roundoff-level, so the
		// hardware fault state for this line is resolved either way.
		rc.env.corrected(note.VirtAddr)
	}
	return nil
}

// checkSolve compares the kernel's solution with the solve of b through a
// direct LU factorization of the original matrix orig.
func (rc *rowCoded) checkSolve(kernel string, orig *mat.Matrix, b []float64, solve func() []float64) error {
	ref := orig.Clone()
	piv, err := mat.LU(ref, nil)
	if err != nil {
		return err
	}
	want := mat.SolveLU(ref, piv, b)
	got := solve()
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= 1e-6) {
			return fmt.Errorf("abft: %s solution diverges at %d: %g vs %g", kernel, i, got[i], want[i])
		}
	}
	return nil
}
