package abft

import (
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// DGEMM is the fault-tolerant matrix multiplication of [39] (§2.1): it
// computes C = A·B through the checksum-encoded product
//
//	Cf = Ac·Br = [ C    C·e  ]
//	             [ eᵀC  eᵀCe ]
//
// where Ac carries an extra column-checksum row (eᵀA) and Br an extra
// row-checksum column (B·e). The checksum row/column of Cf are maintained by
// the multiplication itself, so at any k-panel boundary every row i
// satisfies Σ_j Cf[i][j] = Cf[i][n] and every column j satisfies
// Σ_i Cf[i][j] = Cf[n][j]; mismatches locate and repair corrupted elements.
type DGEMM struct {
	N int

	Ac Mat // (n+1)×n
	Br Mat // n×(n+1)
	Cf Mat // (n+1)×(n+1), ABFT-protected

	// Block is the k-panel width; CheckPeriod verifies every that many
	// panels.
	Block       int
	CheckPeriod int
	Mode        VerifyMode
	// Tol is the absolute checksum-comparison tolerance.
	Tol float64

	// OnPanel, if set, runs at the top of every k-panel — the hook
	// fault-injection campaigns and checkpoint coordinators use. The panel
	// index counts from 0 to Panels()-1.
	OnPanel func(panel int)

	Ops         OpCounters
	Corrections []Correction
	// Faults records every checksum violation the fused online check
	// detected, in detection order (empty outside FusedVerify mode).
	Faults []PanelFault

	// scratch holds verification partial sums; it is ordinary unprotected
	// working memory (the "refs to blocks w/o ABFT" of Table 4). fused
	// holds the online path's kernel-accumulated checksums, allocated on
	// first use, and fs the kernel's view of them, kept here so that a
	// panel hands the kernel no fresh heap object.
	scratch Vec
	fused   Vec
	fs      mat.FusedSums

	env Env
}

// PanelFault is one checksum violation the fused online check detected at a
// k-panel boundary — the typed fault report the correction machinery and
// the recovery ladder consume. Result faults are repaired in place via the
// same locate-and-fix algebra as VerifyFull; operand faults are
// detection-only (a corrupted input cannot be rebuilt from the output
// checksums) and abort the run with ErrUncorrectable.
type PanelFault struct {
	Panel  int     // k-panel whose boundary check fired
	Source string  // FaultOperandA, FaultOperandB, FaultResultRow, FaultResultCol
	Index  int     // row, column, or k index of the violated checksum
	Delta  float64 // encoded checksum − kernel-accumulated sum
}

// PanelFault sources.
const (
	FaultOperandA  = "operand-a"
	FaultOperandB  = "operand-b"
	FaultResultRow = "result-row"
	FaultResultCol = "result-col"
)

// NewDGEMM builds the encoded operands for a random n×n problem.
func NewDGEMM(env Env, n int, seed uint64) (*DGEMM, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: DGEMM size %d too small", ErrBadSize, n)
	}
	d := &DGEMM{
		N:           n,
		Block:       32,
		CheckPeriod: 1,
		Tol:         1e-9 * float64(n) * float64(n),
		env:         env,
	}
	d.Ac = env.NewMat("dgemm.Ac", n+1, n, true)
	d.Br = env.NewMat("dgemm.Br", n, n+1, true)
	d.Cf = env.NewMat("dgemm.Cf", n+1, n+1, true)
	d.scratch = env.NewVec("dgemm.scratch", 2*(n+1), false)

	// The operands are generated in place: A and B are the mat.Random
	// streams of seed and seed+1, and the checksum row and column sum them
	// in ascending index order.
	a := d.Ac.View(0, 0, n, n)
	b := d.Br.View(0, 0, n, n)
	mat.FillRandom(a, seed)
	mat.FillRandom(b, seed+1)
	csum := d.Ac.Row(n) // eᵀA, zero from NewMat
	for i := 0; i < n; i++ {
		d.Br.Set(i, n, mat.Sum(b.Row(i)))
		for j, v := range a.Row(i) {
			csum[j] += v
		}
	}
	return d, nil
}

// C returns the result block of Cf (valid after Run).
func (d *DGEMM) C() *mat.Matrix { return d.Cf.View(0, 0, d.N, d.N) }

func (d *DGEMM) ops(bucket *uint64, n int) {
	*bucket += uint64(n)
	d.env.Mem.Ops(n)
}

// Panels returns the number of k-panels a full run executes.
func (d *DGEMM) Panels() int { return (d.N + d.Block - 1) / d.Block }

// Run computes the encoded product panel by panel, verifying per Mode every
// CheckPeriod panels. Detected errors are corrected in place; an
// ABFT-uncorrectable pattern aborts with ErrUncorrectable.
func (d *DGEMM) Run() error {
	d.Cf.Zero()
	return d.RunFrom(0)
}

// RunFrom resumes the panel loop at startPanel without reinitializing Cf —
// the checkpoint/restart entry point: restore Cf to a panel boundary, then
// RunFrom that panel replays the remaining rank-Block updates.
func (d *DGEMM) RunFrom(startPanel int) error {
	n := d.N
	for panel := startPanel; panel < d.Panels(); panel++ {
		if d.OnPanel != nil {
			d.OnPanel(panel)
		}
		kk := panel * d.Block
		kMax := kk + d.Block
		if kMax > n {
			kMax = n
		}
		// The arithmetic runs through the packed kernel, parallel over row
		// bands when the panel is large enough; every Cf element accumulates
		// its k-products in ascending order, so the result is bit-identical
		// to the scalar triple loop at any parallelism. Panels the fused
		// mode will check at this boundary run the checksum-accumulating
		// kernel variant instead — same bits, plus the online comparison.
		fusedCheck := d.Mode == FusedVerify && d.CheckPeriod > 0 && (panel+1)%d.CheckPeriod == 0
		if fusedCheck {
			if err := d.runPanelFused(panel, kk, kMax); err != nil {
				return err
			}
		} else {
			mat.MulAddInto(d.Cf.Matrix,
				d.Ac.View(0, kk, n+1, kMax-kk), d.Br.View(kk, 0, kMax-kk, n+1))
		}
		d.accountPanel(kk, kMax)
		if err := d.maybeVerify(panel + 1); err != nil {
			return err
		}
	}
	return nil
}

// accountPanel reports one k-panel's per-element access pattern and
// op-bucket split as the scalar loop produced them, so the simulated traffic
// and the Figure 3 breakdown are unchanged by the packed kernel. With nobody
// listening the walk reduces to its op totals in closed form; that is
// decided once per panel, because only the OnPanel hook, which has already
// run, can arm a probe.
func (d *DGEMM) accountPanel(kk, kMax int) {
	n := d.N
	if d.env.Mem.Dormant() {
		kb := kMax - kk
		d.Ops.Compute += uint64(2 * n * n * kb)
		d.Ops.Checksum += uint64(2*n*kb + 2*(n+1)*kb)
		return
	}
	for i := 0; i <= n; i++ {
		for p := kk; p < kMax; p++ {
			d.Ac.TouchElem(i, p, false)
			d.Br.TouchRow(p, 0, n+1, false)
			d.Cf.TouchRow(i, 0, n+1, true)
			if i < n {
				d.ops(&d.Ops.Compute, 2*n)
				d.ops(&d.Ops.Checksum, 2) // row-checksum column j=n
			} else {
				d.ops(&d.Ops.Checksum, 2*(n+1)) // checksum row i=n
			}
		}
	}
}

func (d *DGEMM) maybeVerify(panel int) error {
	if d.CheckPeriod <= 0 || panel%d.CheckPeriod != 0 {
		return nil
	}
	switch d.Mode {
	case NotifiedVerify:
		return d.verifyNotified()
	case FusedVerify:
		// Already checked online at the panel boundary by runPanelFused.
		return nil
	default:
		return d.VerifyFull()
	}
}

// runPanelFused executes one k-panel through the checksum-accumulating
// kernel (mat.MulAddIntoFused) and compares the accumulated sums against
// the encoded checksums at the boundary — the FT-BLAS-style interval check.
// Cf's bits are identical to the plain panel path.
func (d *DGEMM) runPanelFused(panel, kk, kMax int) error {
	n := d.N
	kb := kMax - kk
	if need := 2*(n+1) + 2*kb; len(d.fused.Data) < need {
		d.fused = d.env.NewVec("dgemm.fused", 2*(n+1)+2*max(kb, d.Block), false)
	}
	rs := d.fused.Data[0 : n+1]
	cs := d.fused.Data[n+1 : 2*(n+1)]
	asum := d.fused.Data[2*(n+1) : 2*(n+1)+kb]
	bsum := d.fused.Data[2*(n+1)+kb : 2*(n+1)+2*kb]
	d.fs = mat.FusedSums{RowSums: rs, ColSums: cs, ASums: asum, BSums: bsum}
	mat.MulAddIntoFused(d.Cf.Matrix,
		d.Ac.View(0, kk, n+1, kb), d.Br.View(kk, 0, kb, n+1), &d.fs)
	return d.verifyFused(panel, kk, kb, rs, cs, asum, bsum)
}

// verifyFused is the panel-boundary comparison for the fused path. The
// kernel already folded every operand and result value into the sums, so
// verification here touches only the encoded checksum row/column and the
// small sum vectors — O(n) traffic in place of VerifyFull's O(n²) sweep.
func (d *DGEMM) verifyFused(panel, kk, kb int, rs, cs, asum, bsum []float64) error {
	n := d.N
	// Accounting: ~2 kernel-resident flops per Cf element for the output
	// sums, one add per packed operand element, plus the O(n) compares.
	d.ops(&d.Ops.Verify, 2*(n+1)*(n+1)+2*(n+1)*kb+2*(n+1)+2*kb)
	d.fused.Touch(0, 2*(n+1)+2*kb, true)
	d.Ac.TouchRow(n, kk, kb, false)
	d.Br.TouchCol(n, kk, kb, false)
	d.Cf.TouchCol(n, 0, n+1, false)
	d.Cf.TouchRow(n, 0, n+1, false)

	// Operand checks: the packing pass re-derived eᵀ·(Ac panel) and
	// (Br panel)·e over all n+1 rows/columns, so an intact operand gives
	// exactly twice its encoded checksum. Detection-only — corrupted
	// inputs poison every downstream product, so the run must restart.
	for p := 0; p < kb; p++ {
		if delta := 2*d.Ac.At(n, kk+p) - asum[p]; !(math.Abs(delta) <= d.Tol) {
			d.Faults = append(d.Faults, PanelFault{Panel: panel, Source: FaultOperandA, Index: kk + p, Delta: delta})
			return fmt.Errorf("%w: fused check at panel %d: operand A column %d checksum off by %g",
				ErrUncorrectable, panel, kk+p, delta)
		}
		if delta := 2*d.Br.At(kk+p, n) - bsum[p]; !(math.Abs(delta) <= d.Tol) {
			d.Faults = append(d.Faults, PanelFault{Panel: panel, Source: FaultOperandB, Index: kk + p, Delta: delta})
			return fmt.Errorf("%w: fused check at panel %d: operand B row %d checksum off by %g",
				ErrUncorrectable, panel, kk+p, delta)
		}
	}

	// Result checks: rs[i]/cs[j] sum all n+1 final values of row i /
	// column j including the checksum entry itself, so intact lines give
	// rs[i] = 2·Cf[i][n] and cs[j] = 2·Cf[n][j], and the deltas reduce to
	// exactly VerifyFull's (checksum − recomputed-sum) convention — the
	// same locate-and-fix switch repairs them. The kernel seeds its
	// accumulators from stored C, so corruption written by *earlier*
	// panels propagates into these sums and is caught here too.
	var rowBad, colBad []int
	var rowDelta, colDelta []float64
	for i := 0; i <= n; i++ {
		if delta := 2*d.Cf.At(i, n) - rs[i]; !(math.Abs(delta) <= d.Tol) {
			rowBad = append(rowBad, i)
			rowDelta = append(rowDelta, delta)
		}
	}
	for j := 0; j <= n; j++ {
		if delta := 2*d.Cf.At(n, j) - cs[j]; !(math.Abs(delta) <= d.Tol) {
			colBad = append(colBad, j)
			colDelta = append(colDelta, delta)
		}
	}
	for i, r := range rowBad {
		d.Faults = append(d.Faults, PanelFault{Panel: panel, Source: FaultResultRow, Index: r, Delta: rowDelta[i]})
	}
	for i, c := range colBad {
		d.Faults = append(d.Faults, PanelFault{Panel: panel, Source: FaultResultCol, Index: c, Delta: colDelta[i]})
	}
	return d.locateAndFix(rowBad, rowDelta, colBad, colDelta)
}

// VerifyFull recomputes every row and column checksum of Cf, locates
// mismatches, and repairs them (§2.1). It is the expensive sweep the
// cooperative approach removes.
func (d *DGEMM) VerifyFull() error {
	n := d.N
	var rowBad, colBad []int
	var rowDelta, colDelta []float64

	// Row invariants: Σ_{j<n} Cf[i][j] = Cf[i][n] for every row, including
	// the checksum row itself.
	for i := 0; i <= n; i++ {
		row := d.Cf.Row(i)
		s := 0.0
		for j := 0; j < n; j++ {
			s += row[j]
		}
		d.scratch.Data[i] = s
		d.Cf.TouchRow(i, 0, n+1, false)
		d.scratch.Touch(i, 1, true)
		d.ops(&d.Ops.Verify, n)
		if delta := row[n] - s; !(math.Abs(delta) <= d.Tol) {
			rowBad = append(rowBad, i)
			rowDelta = append(rowDelta, delta)
		}
	}
	// Column invariants: Σ_{i<n} Cf[i][j] = Cf[n][j], accumulated row-wise
	// into scratch for locality.
	col := d.scratch.Data[n+1:]
	for j := range col {
		col[j] = 0
	}
	for i := 0; i < n; i++ {
		row := d.Cf.Row(i)
		for j := 0; j <= n; j++ {
			col[j] += row[j]
		}
		d.Cf.TouchRow(i, 0, n+1, false)
		d.scratch.Touch(n+1, n+1, true)
		d.ops(&d.Ops.Verify, n+1)
	}
	for j := 0; j <= n; j++ {
		if delta := d.Cf.At(n, j) - col[j]; !(math.Abs(delta) <= d.Tol) {
			colBad = append(colBad, j)
			colDelta = append(colDelta, delta)
		}
	}
	return d.locateAndFix(rowBad, rowDelta, colBad, colDelta)
}

// locateAndFix maps row/column checksum mismatches to corrupted elements
// and repairs every correctable pattern (§2.1); both the two-pass sweep and
// the fused online check feed it the same delta convention.
func (d *DGEMM) locateAndFix(rowBad []int, rowDelta []float64, colBad []int, colDelta []float64) error {
	return locateCross(rowBad, rowDelta, colBad, colDelta,
		func(_, gap float64) bool { return gap <= d.Tol*10 },
		func(r, c int, fromRow bool, _ float64) {
			if fromRow {
				d.fixFromRow(r, c)
			} else {
				d.fixFromColumn(r, c)
			}
		})
}

// locateCross is the case analysis of a matrix coded with a row-checksum
// column and a column-checksum row: it maps the flagged rows and columns
// (with their deltas, checksum − recomputed sum) to corrupted elements and
// repairs every correctable pattern. All flags on one row: each flagged
// element is rebuilt from its intact column. All flags on one column: from
// its intact row. As many rows as columns: rows pair with columns by delta
// magnitude, each pair one element rebuilt from its row, while pairs
// accepts the gap between the magnitudes given the row's delta. Anything
// else wraps ErrUncorrectable. fix(r, c, fromRow, delta) rebuilds element
// (r, c) from its row when fromRow is set and from its column otherwise;
// delta is that line's mismatch.
func locateCross(rowBad []int, rowDelta []float64, colBad []int, colDelta []float64,
	pairs func(delta, gap float64) bool, fix func(r, c int, fromRow bool, delta float64)) error {
	switch {
	case len(rowBad) == 0 && len(colBad) == 0:
		return nil
	case len(rowBad) == 1 && len(colBad) >= 1:
		for i, c := range colBad {
			fix(rowBad[0], c, false, colDelta[i])
		}
		return nil
	case len(colBad) == 1 && len(rowBad) >= 1:
		for i, r := range rowBad {
			fix(r, colBad[0], true, rowDelta[i])
		}
		return nil
	case len(rowBad) == len(colBad):
		used := make([]bool, len(colBad))
		for ri, r := range rowBad {
			best, bestGap := -1, math.Inf(1)
			for ci := range colBad {
				if used[ci] {
					continue
				}
				if gap := math.Abs(math.Abs(rowDelta[ri]) - math.Abs(colDelta[ci])); gap < bestGap {
					best, bestGap = ci, gap
				}
			}
			if best < 0 || !pairs(rowDelta[ri], bestGap) {
				return fmt.Errorf("%w: unmatchable row/column deltas", ErrUncorrectable)
			}
			used[best] = true
			fix(r, colBad[best], true, rowDelta[ri])
		}
		return nil
	default:
		return fmt.Errorf("%w: %d corrupted rows, %d corrupted columns",
			ErrUncorrectable, len(rowBad), len(colBad))
	}
}

// fixFromRow rebuilds Cf[r][c] from row r's other elements.
func (d *DGEMM) fixFromRow(r, c int) {
	n := d.N
	row := d.Cf.Row(r)
	var want float64
	if c == n {
		for j := 0; j < n; j++ {
			want += row[j]
		}
	} else {
		want = row[n]
		for j := 0; j < n; j++ {
			if j != c {
				want -= row[j]
			}
		}
	}
	d.applyFix(r, c, want)
}

// fixFromColumn rebuilds Cf[r][c] from column c's other elements.
func (d *DGEMM) fixFromColumn(r, c int) {
	n := d.N
	var want float64
	if r == n {
		for i := 0; i < n; i++ {
			want += d.Cf.At(i, c)
		}
	} else {
		want = d.Cf.At(n, c)
		for i := 0; i < n; i++ {
			if i != r {
				want -= d.Cf.At(i, c)
			}
		}
	}
	d.applyFix(r, c, want)
}

func (d *DGEMM) applyFix(r, c int, want float64) {
	old := d.Cf.At(r, c)
	d.Cf.Set(r, c, want)
	d.Cf.TouchElem(r, c, true)
	d.ops(&d.Ops.Verify, d.N)
	d.Corrections = append(d.Corrections, Correction{Structure: "Cf", I: r, J: c, Delta: want - old})
	d.env.corrected(d.Cf.Addr(r, c))
}

// VerifyNotified consumes pending OS corruption reports and repairs the
// affected elements (the public entry point for post-run coordination).
func (d *DGEMM) VerifyNotified() error { return d.verifyNotified() }

// verifyNotified implements the simplified verification of §3.2.2: instead
// of recomputing checksums it reads the corrupted addresses the OS exposed
// and repairs exactly those elements (each from its intact column).
func (d *DGEMM) verifyNotified() error {
	if d.env.Notify == nil {
		return nil
	}
	for _, note := range d.env.Notify() {
		for off := uint64(0); off < 64; off += 8 {
			r, c, ok := d.Cf.ElemAt(note.VirtAddr + off)
			if !ok {
				continue
			}
			d.fixFromColumn(r, c)
		}
	}
	return nil
}

// CheckResult verifies the final product against a freshly computed
// reference (O(n³)).
func (d *DGEMM) CheckResult() error {
	n := d.N
	ref := d.env.Arena.New(n, n)
	mat.MulAddInto(ref, d.Ac.View(0, 0, n, n), d.Br.View(0, 0, n, n))
	if !mat.Equal(d.C(), ref, d.Tol) {
		return fmt.Errorf("abft: DGEMM result differs from reference")
	}
	return nil
}
