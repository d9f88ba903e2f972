package abft

import (
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// Cholesky is the fault-tolerant right-looking blocked Cholesky
// factorization of [38] (§2.1). The lower triangle of the ABFT-protected
// matrix A is factored in place into L (A = L·Lᵀ); dual checksum vectors —
// plain column sums and row-index-weighted column sums, the classic
// Huang–Abraham pair — are maintained for the trailing submatrix through
// every panel factorization and trailing update, and a second pair protects
// the already-factored L columns. A mismatch (δ, δ₂) locates the corrupted
// element at row δ₂/δ − 1 of the flagged column, which is then repaired in
// place.
type Cholesky struct {
	N int

	A Mat // n×n, lower triangle live, ABFT-protected (in-place L)
	// cs/cs2 are the trailing-submatrix checksums; lcs/lcs2 protect
	// factored L columns. All four are part of the ABFT encoding.
	cs, cs2   Vec
	lcs, lcs2 Vec
	// W is the panel workspace the trailing update reads — the stand-in for
	// the packed/broadcast panel buffer real implementations use; it is NOT
	// ABFT-protected (Table 4's unprotected references).
	W Mat

	Block       int
	CheckPeriod int
	Mode        VerifyMode
	Tol         float64

	// OnPanel, if set, runs at the top of every block step — the hook
	// fault-injection campaigns and checkpoint coordinators use. The step
	// index counts from 0 to Steps()-1.
	OnPanel func(step int)

	Ops         OpCounters
	Corrections []Correction

	// hdr holds the header of every matrix c hands the dense kernels, so
	// that neither a run nor a Reset allocates one: A and W, the operand
	// FillSPD builds A from, the blocks of the current step (a11, a21, a22
	// and W's live rows), and CheckResult's copy of L and its product.
	hdr struct{ a, w, spd, a11, a21, a22, wp, l, rec mat.Matrix }

	env Env
	k   int // current factorization offset
}

// NewCholesky builds a random SPD problem of size n.
func NewCholesky(env Env, n int, seed uint64) *Cholesky {
	c := new(Cholesky)
	c.Reset(env, n, seed)
	return c
}

// Reset makes c the kernel NewCholesky(env, n, seed) builds, over c's own
// headers and correction list: it is the constructor's body. Nothing from
// before the call may still be in use: slices c handed out (Corrections)
// are overwritten by what follows.
func (c *Cholesky) Reset(env Env, n int, seed uint64) {
	*c = Cholesky{
		N:           n,
		Block:       32,
		CheckPeriod: 1,
		Tol:         1e-7 * float64(n) * float64(n),
		Corrections: c.Corrections[:0],
		env:         env,
	}
	if c.Block > n {
		c.Block = n
	}
	c.A = env.matIn(&c.hdr.a, "chol.A", n, n, true)
	c.cs = env.NewVec("chol.cs", n, true)
	c.cs2 = env.NewVec("chol.cs2", n, true)
	c.lcs = env.NewVec("chol.lcs", n, true)
	c.lcs2 = env.NewVec("chol.lcs2", n, true)
	c.W = env.matIn(&c.hdr.w, "chol.W", n, c.Block, false)

	mat.FillSPD(c.A.Matrix, mat.InitIn(env.Arena, &c.hdr.spd, n, n), seed)
	c.initChecksums()
}

// Checksums exposes the four checksum vectors — the trailing pair (cs, cs2)
// and the factored-L pair (lcs, lcs2) — for checkpoint sets and
// fault-injection campaigns; they are part of the ABFT-protected state.
func (c *Cholesky) Checksums() (cs, cs2, lcs, lcs2 Vec) {
	return c.cs, c.cs2, c.lcs, c.lcs2
}

// at reads the logical symmetric element (i, j) from the lower triangle.
func (c *Cholesky) at(i, j int) float64 {
	if i >= j {
		return c.A.At(i, j)
	}
	return c.A.At(j, i)
}

func (c *Cholesky) initChecksums() {
	n := c.N
	for j := 0; j < n; j++ {
		s, s2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			v := c.at(i, j)
			s += v
			s2 += float64(i+1) * v
		}
		c.cs.Data[j] = s
		c.cs2.Data[j] = s2
	}
	c.cs.Touch(0, n, true)
	c.cs2.Touch(0, n, true)
	c.ops(&c.Ops.Checksum, 3*n*n)
}

func (c *Cholesky) ops(bucket *uint64, n int) {
	*bucket += uint64(n)
	c.env.Mem.Ops(n)
}

// L returns a copy of the factor (valid after Run); the strictly upper
// triangle is zero.
func (c *Cholesky) L() *mat.Matrix { return c.lInto(new(mat.Matrix)) }

// lInto is L over the header out.
func (c *Cholesky) lInto(out *mat.Matrix) *mat.Matrix {
	mat.InitIn(c.env.Arena, out, c.N, c.N)
	for i := 0; i < c.N; i++ {
		copy(out.Row(i)[:i+1], c.A.Row(i))
	}
	return out
}

// Steps returns the number of block steps a full run executes.
func (c *Cholesky) Steps() int { return (c.N + c.Block - 1) / c.Block }

// Run factors A in place with per-step verification.
func (c *Cholesky) Run() error { return c.RunFrom(0) }

// RunFrom resumes the factorization at block step startStep — the
// checkpoint/restart entry point: restore A and the four checksum vectors
// to a step boundary, then RunFrom that step replays the remaining panels.
func (c *Cholesky) RunFrom(startStep int) error {
	n := c.N
	iter := startStep
	for k := startStep * c.Block; k < n; k += c.Block {
		c.k = k
		if c.OnPanel != nil {
			c.OnPanel(iter)
		}
		b := min(c.Block, n-k)
		rest := n - k - b

		// 0. Pre-panel verification: corruption in the panel columns must
		// be repaired before the factorization consumes it — once the
		// panel is factored, the error spreads into the whole trailing
		// update and stops being a locatable single element.
		if c.CheckPeriod > 0 && iter%c.CheckPeriod == 0 {
			if err := c.verifyStep(k); err != nil {
				return err
			}
		}

		// 1. Checksum maintenance: rows [k, k+b) leave the trailing set.
		c.removeDepartingRows(k, b)
		c.k = k + b // cs/cs2 now cover the [k+b, n) trailing square

		// 2. Factor the diagonal block.
		a11 := c.A.ViewInto(&c.hdr.a11, k, k, b, b)
		if err := mat.Cholesky(a11); err != nil {
			return err
		}
		c.touchBlockLower(k, k, b, b, true)
		c.ops(&c.Ops.Compute, b*b*b/3+2*b)

		if rest > 0 {
			// 3. Panel solve A21 → L21.
			a21 := c.A.ViewInto(&c.hdr.a21, k+b, k, rest, b)
			mat.SolveXLT(a21, a11)
			c.touchBlockFull(k+b, k, rest, b, true)
			c.ops(&c.Ops.Compute, rest*b*b)

			// 4. Pack the panel into the unprotected workspace.
			for i := 0; i < rest; i++ {
				copy(c.W.Row(i)[:b], a21.Row(i))
				c.W.TouchRow(i, 0, b, true)
				c.A.TouchRow(k+b+i, k, b, false)
			}

			// 5. Trailing update A22 -= W·Wᵀ (lower triangle).
			c.trailingUpdate(k+b, rest, b)

			// 6. Checksum maintenance for the update.
			c.updateChecksums(k+b, rest, b)
		}

		// 7. Record checksums over the freshly finalized L columns.
		c.recordLChecksums(k, b)

		iter++
	}
	c.k = n
	// Final sweep over the factored L so the result leaves verified.
	if c.CheckPeriod > 0 && c.Mode == FullVerify {
		if err := c.VerifyL(n); err != nil {
			return err
		}
	} else if c.Mode == NotifiedVerify {
		if err := c.verifyNotified(); err != nil {
			return err
		}
	}
	// Zero the dead upper triangle so L is clean.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.A.Set(i, j, 0)
		}
	}
	return nil
}

// touchBlockLower reports accesses to the lower triangle of the (r0, c0)
// block.
func (c *Cholesky) touchBlockLower(r0, c0, rows, cols int, write bool) {
	for i := 0; i < rows; i++ {
		w := min(i+1, cols)
		c.A.TouchRow(r0+i, c0, w, write)
	}
}

// touchBlockFull reports accesses to a full rectangular block.
func (c *Cholesky) touchBlockFull(r0, c0, rows, cols int, write bool) {
	for i := 0; i < rows; i++ {
		c.A.TouchRow(r0+i, c0, cols, write)
	}
}

// trailingUpdate computes A[t:,t:] -= W·Wᵀ on the lower triangle through
// the packed SYRK kernel, then reports the same per-row access pattern the
// scalar loop produced so the simulated traffic is unchanged.
func (c *Cholesky) trailingUpdate(t, rest, b int) {
	a22 := c.A.ViewInto(&c.hdr.a22, t, t, rest, rest)
	w := c.W.ViewInto(&c.hdr.wp, 0, 0, rest, b)
	mat.SyrkLowerSub(a22, w)
	for i := 0; i < rest; i++ {
		c.W.TouchRow(i, 0, b, false)
		// One workspace row read per j plus the updated row segment.
		c.W.TouchRow(0, 0, b*min(i+1, 8), false) // sampled W row traffic
		c.A.TouchRow(t+i, t, i+1, true)
		c.ops(&c.Ops.Compute, 2*b*(i+1))
	}
}

// removeDepartingRows drops rows [k, k+b) from the trailing checksums.
func (c *Cholesky) removeDepartingRows(k, b int) {
	n := c.N
	for j := k + b; j < n; j++ {
		row := c.A.Row(j)
		s, s2 := 0.0, 0.0
		for i := k; i < k+b; i++ {
			v := row[i] // logical (i, j) with i < j lives at storage (j, i)
			s += v
			s2 += float64(i+1) * v
		}
		c.cs.Data[j] -= s
		c.cs2.Data[j] -= s2
		c.A.TouchRow(j, k, b, false)
	}
	if n > k+b {
		c.cs.Touch(k+b, n-k-b, true)
		c.cs2.Touch(k+b, n-k-b, true)
	}
	c.ops(&c.Ops.Checksum, 3*b*(n-k-b)+2*(n-k-b))
}

// updateChecksums applies the trailing-update delta to cs/cs2:
// cs[j] -= Σ_p s[p]·W[j][p] with s[p] = Σ_i W[i][p] (and weighted s2).
func (c *Cholesky) updateChecksums(t, rest, b int) {
	sums := c.env.Arena.Floats(2 * b)
	s, s2 := sums[:b], sums[b:]
	for i := 0; i < rest; i++ {
		wi := c.W.Row(i)[:b]
		gw := float64(t + i + 1)
		for p, v := range wi {
			s[p] += v
			s2[p] += gw * v
		}
		c.W.TouchRow(i, 0, b, false)
	}
	c.ops(&c.Ops.Checksum, 3*rest*b)
	for j := 0; j < rest; j++ {
		wj := c.W.Row(j)[:b]
		d, d2 := 0.0, 0.0
		for p, v := range wj {
			d += s[p] * v
			d2 += s2[p] * v
		}
		c.cs.Data[t+j] -= d
		c.cs2.Data[t+j] -= d2
		c.W.TouchRow(j, 0, b, false)
	}
	c.cs.Touch(t, rest, true)
	c.cs2.Touch(t, rest, true)
	c.ops(&c.Ops.Checksum, 4*rest*b+2*rest)
}

// recordLChecksums stores dual column sums over the finalized L columns
// [k, k+b).
func (c *Cholesky) recordLChecksums(k, b int) {
	n := c.N
	for j := k; j < k+b; j++ {
		s, s2 := 0.0, 0.0
		for i := j; i < n; i++ {
			v := c.A.At(i, j)
			s += v
			s2 += float64(i+1) * v
		}
		c.lcs.Data[j] = s
		c.lcs2.Data[j] = s2
		c.A.TouchCol(j, j, n-j, false)
	}
	c.lcs.Touch(k, b, true)
	c.lcs2.Touch(k, b, true)
	c.ops(&c.Ops.Checksum, 3*b*(n-k))
}

// verifyStep checks per Mode at trailing offset t.
func (c *Cholesky) verifyStep(t int) error {
	if c.Mode == NotifiedVerify {
		return c.verifyNotified()
	}
	return c.VerifyTrailing(t)
}

// trailingColSums computes the dual logical-symmetric column sums of
// column j over rows [t, n), with instrumentation.
func (c *Cholesky) trailingColSums(j, t int) (s, s2 float64) {
	n := c.N
	// Row-stored part: logical (i, j) for i in [t, j) is at (j, i).
	row := c.A.Row(j)
	for i := t; i < j; i++ {
		v := row[i]
		s += v
		s2 += float64(i+1) * v
	}
	// Column part: (i, j) for i in [j, n).
	for i := j; i < n; i++ {
		v := c.A.At(i, j)
		s += v
		s2 += float64(i+1) * v
	}
	if j > t {
		c.A.TouchRow(j, t, j-t, false)
	}
	c.A.TouchCol(j, j, n-j, false)
	c.ops(&c.Ops.Verify, 3*(n-t))
	return s, s2
}

// lColSums computes the dual column sums of factored column j over rows
// [j, n).
func (c *Cholesky) lColSums(j int) (s, s2 float64) {
	n := c.N
	for i := j; i < n; i++ {
		v := c.A.At(i, j)
		s += v
		s2 += float64(i+1) * v
	}
	c.A.TouchCol(j, j, n-j, false)
	c.ops(&c.Ops.Verify, 3*(n-j))
	return s, s2
}

// VerifyTrailing recomputes the dual column sums of the trailing submatrix
// [t, n)² and repairs any located corruption.
func (c *Cholesky) VerifyTrailing(t int) error {
	n := c.N
	for j := t; j < n; j++ {
		s, s2 := c.trailingColSums(j, t)
		if err := c.repairColumn(j, t, s, s2, false); err != nil {
			return err
		}
	}
	return nil
}

// VerifyL checks the factored L columns [0, upto) against lcs/lcs2.
func (c *Cholesky) VerifyL(upto int) error {
	for j := 0; j < upto; j++ {
		s, s2 := c.lColSums(j)
		if err := c.repairColumn(j, j, s, s2, true); err != nil {
			return err
		}
	}
	return nil
}

// repairColumn interprets column j's stored checksums against its
// recomputed sums (s, s2); its live rows start at rowLo. inL selects the
// factored-L checksum pair over the trailing one. A corrupted checksum is
// restored to its recomputed sum.
func (c *Cholesky) repairColumn(j, rowLo int, s, s2 float64, inL bool) error {
	cs, cs2 := &c.cs, &c.cs2
	name := "chol.A"
	if inL {
		cs, cs2 = &c.lcs, &c.lcs2
		name = "chol.L"
	}
	tol := c.Tol
	delta, delta2 := cs.Data[j]-s, cs2.Data[j]-s2
	v, ri, err := locateDual(delta, delta2, tol, rowLo, c.N)
	switch {
	case err != nil:
		return fmt.Errorf("column %d: %w", j, err)
	case v == dualClean:
		return nil
	case v == dualWeighted:
		c.restoreChecksum(cs2, j, s2, name+".cs2", -delta2)
		return nil
	case v == dualPlain:
		c.restoreChecksum(cs, j, s, name+".cs", -delta)
		return nil
	}
	// Repair the located element; logical (ri, j) may live at (j, ri).
	si, sj := ri, j
	if si < sj {
		si, sj = sj, si
	}
	c.A.Add(si, sj, delta)
	c.A.TouchElem(si, sj, true)
	c.ops(&c.Ops.Verify, 2)
	// Post-repair re-verification: multiple errors in one column can alias
	// to a plausible single-element explanation; a true fix leaves the
	// column consistent.
	if inL {
		s, s2 = c.lColSums(j)
	} else {
		s, s2 = c.trailingColSums(j, rowLo)
	}
	if !(math.Abs(cs.Data[j]-s) <= tol && math.Abs(cs2.Data[j]-s2) <= tol) {
		c.A.Add(si, sj, -delta)
		return fmt.Errorf("%w: column %d has multiple corrupted elements", ErrUncorrectable, j)
	}
	c.Corrections = append(c.Corrections, Correction{Structure: name, I: si, J: sj, Delta: delta})
	c.env.corrected(c.A.Addr(si, sj))
	return nil
}

// restoreChecksum rewrites checksum entry j of v to its recomputed sum
// want; delta is the recorded adjustment.
func (c *Cholesky) restoreChecksum(v *Vec, j int, want float64, name string, delta float64) {
	v.Data[j] = want
	v.Touch(j, 1, true)
	c.Corrections = append(c.Corrections, Correction{Structure: name, J: j, Delta: delta})
	c.env.corrected(v.Addr(j))
}

// VerifyNotified consumes pending OS corruption reports and repairs the
// affected elements (the public entry point for post-run coordination).
func (c *Cholesky) VerifyNotified() error { return c.verifyNotified() }

// verifyNotified repairs exactly the elements the OS reported corrupted,
// each via one dual-column-sum recomputation — O(n) per error instead of
// O(n²) per sweep.
func (c *Cholesky) verifyNotified() error {
	if c.env.Notify == nil {
		return nil
	}
	for _, note := range c.env.Notify() {
		for off := uint64(0); off < 64; off += 8 {
			addr := note.VirtAddr + off
			if i, j, ok := c.A.ElemAt(addr); ok {
				if err := c.repairElement(i, j); err != nil {
					return err
				}
				continue
			}
			c.repairChecksumAddr(addr)
		}
	}
	return nil
}

// repairElement recomputes storage element (i, j), i ≥ j, from its column
// checksum (trailing or L depending on the current offset).
func (c *Cholesky) repairElement(i, j int) error {
	if i < j {
		return nil // dead upper-triangle storage
	}
	n := c.N
	if j < c.k {
		// Factored column: rebuild from lcs.
		s := 0.0
		for r := j; r < n; r++ {
			if r != i {
				s += c.A.At(r, j)
			}
		}
		c.A.TouchCol(j, j, n-j, false)
		c.ops(&c.Ops.Verify, n-j)
		c.applyElementFix(i, j, c.lcs.Data[j]-s)
		return nil
	}
	// Trailing column: rebuild from cs via the logical symmetric sum.
	t := c.k
	s := 0.0
	for r := t; r < n; r++ {
		if r == i {
			continue
		}
		s += c.at(r, j)
	}
	c.ops(&c.Ops.Verify, n-t)
	c.applyElementFix(i, j, c.cs.Data[j]-s)
	// The same storage element appears in column i's logical sum too; no
	// second fix needed since storage is shared.
	return nil
}

func (c *Cholesky) applyElementFix(i, j int, want float64) {
	old := c.A.At(i, j)
	c.A.Set(i, j, want)
	c.A.TouchElem(i, j, true)
	c.Corrections = append(c.Corrections, Correction{Structure: "chol.A", I: i, J: j, Delta: want - old})
	c.env.corrected(c.A.Addr(i, j))
}

// repairChecksumAddr recomputes a corrupted checksum entry.
func (c *Cholesky) repairChecksumAddr(addr uint64) {
	n := c.N
	fix := func(v Vec, weighted, inL bool) bool {
		j, ok := v.ElemAt(addr)
		if !ok {
			return false
		}
		s := 0.0
		if inL {
			for i := j; i < n; i++ {
				val := c.A.At(i, j)
				if weighted {
					val *= float64(i + 1)
				}
				s += val
			}
		} else {
			if j < c.k {
				return true // stale trailing entry; nothing to repair
			}
			for i := c.k; i < n; i++ {
				val := c.at(i, j)
				if weighted {
					val *= float64(i + 1)
				}
				s += val
			}
		}
		c.ops(&c.Ops.Verify, n)
		v.Data[j] = s
		v.Touch(j, 1, true)
		c.env.corrected(v.Addr(j))
		return true
	}
	_ = fix(c.cs, false, false) || fix(c.cs2, true, false) ||
		fix(c.lcs, false, true) || fix(c.lcs2, true, true)
}

// CheckResult verifies L·Lᵀ ≈ original A (O(n³)); pass the matrix the
// problem was built from. Both sides are symmetric, so the comparison runs
// over the lower triangle, and L's zeros above its diagonal bound each
// product's k range.
func (c *Cholesky) CheckResult(orig *mat.Matrix) error {
	rec := mat.InitIn(c.env.Arena, &c.hdr.rec, c.N, c.N)
	mat.SyrkLowerAdd(rec, c.lInto(&c.hdr.l), true)
	if !mat.EqualLower(rec, orig, c.Tol*10) {
		return fmt.Errorf("abft: Cholesky L·Lᵀ differs from A")
	}
	return nil
}
