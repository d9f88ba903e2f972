package abft

import (
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// GEMM32 is the mixed-precision fault-tolerant matrix multiplication: data
// and arithmetic in float32 (the inference-serving precision), every
// checksum in float64, and detection bounds derived per run from operand
// variance/magnitude statistics (threshold.go) instead of a fixed epsilon.
//
// The checksum scheme is the classic two-sided encoding adapted to mixed
// precision. At construction the pristine operands are encoded in float64:
// aColSum = eᵀA and bRowSum = B·e. During the panel loop two maintained
// float64 checksums track the true product using one pristine encoded
// factor each:
//
//	rowCk[i] += Σ_p A[i][p]·bRowSum[p]   (pristine B encoding)
//	colCk[j] += Σ_p aColSum[p]·B[p][j]   (pristine A encoding)
//
// so corruption of either operand, of the float32 product path, or of
// previously written C desynchronizes at least one side. The fused float32
// kernel (mat.MulAddIntoFused32) folds the actual output's row/column sums
// (and absolute sums, the adaptive bound's magnitude input) at writeback,
// and the panel-boundary comparison uses LineBound32 — per-line, per-run
// adaptive. Detected result faults are repaired in place with a
// refold-and-reverify loop; operand faults are detection-only and abort
// with ErrUncorrectable (the caller rebuilds and restarts).
//
// GEMM32 is serving-native: it runs on plain memory with no simulator
// metering (the trace/Env machinery is float64-word oriented), which is
// exactly the deployment the mixed-precision tier targets.
type GEMM32 struct {
	M, K, N int

	A *mat.Matrix32 // M×K
	B *mat.Matrix32 // K×N
	C *mat.Matrix32 // M×N

	// Block is the k-panel width; every panel boundary verifies.
	Block int

	// OnPanel, if set, runs at the top of every k-panel — the hook fault
	// injection uses. The panel index counts from 0 to Panels()-1.
	OnPanel func(panel int)

	Corrections []Correction
	// Faults records every adaptive-threshold violation in detection order.
	Faults []PanelFault

	// Encoded checksums of the pristine operands (float64, set at init).
	aColSum []float64 // len K: eᵀA
	bRowSum []float64 // len K: B·e

	// Maintained float64 checksums of the true product.
	rowCk []float64 // len M
	colCk []float64 // len N

	// Accumulated operand statistics from the packing passes; kAcc is the
	// number of k-products accumulated so far. Together they parameterize
	// the adaptive bounds.
	aMom, bMom mat.Moments
	kAcc       int

	fs   mat.FusedSums32
	abuf []float64 // backing for per-panel ASums/BSums (len 2·Block)

	// arena backs everything above that is sized by the problem, and the
	// oracle's temporaries; nil is the heap.
	arena *mat.Arena

	// hdr holds the matrix headers A, B and C point at when the problem
	// owns them, and the panel views Run takes, so a GEMM32 that is Reset
	// builds none of them again.
	hdr struct{ a, b, c, aP, bP mat.Matrix32 }
}

// maxRepairRounds bounds the repair→refold→reverify loop at one panel
// boundary. Two rounds suffice for any single corruption (a huge-magnitude
// flip can absorb its line's float64 sum, so the first repair only removes
// the bulk and the refolded second round lands exactly); more than that
// means the pattern exceeds the encoding's reach.
const maxRepairRounds = 4

// NewGEMM32 builds a square n×n mixed-precision problem with deterministic
// pseudo-random operands (A from seed, B from seed+1, matching NewDGEMM's
// convention).
func NewGEMM32(n int, seed uint64) (*GEMM32, error) { return NewGEMM32In(nil, n, seed) }

// NewGEMM32In is NewGEMM32 with every n- and n²-sized buffer of the problem
// — operands (generated in place), product, encodings, checksum vectors —
// and of its oracle taken from arena, whose owner must keep it unreleased
// for as long as the GEMM32 is in use.
func NewGEMM32In(arena *mat.Arena, n int, seed uint64) (*GEMM32, error) {
	g := new(GEMM32)
	if err := g.Reset(arena, n, seed); err != nil {
		return nil, err
	}
	return g, nil
}

// Reset makes g the problem NewGEMM32In(arena, n, seed) builds, over g's own
// headers and correction lists: it is the constructor's body. Nothing from
// before the call may still be in use: the matrices and slices g handed out
// (A, B, C, Corrections, Faults) are overwritten by what follows, and
// OnPanel is cleared.
func (g *GEMM32) Reset(arena *mat.Arena, n int, seed uint64) error {
	if n < 2 {
		return fmt.Errorf("%w: GEMM32 size %d too small", ErrBadSize, n)
	}
	a, b := mat.InitIn(arena, &g.hdr.a, n, n), mat.InitIn(arena, &g.hdr.b, n, n)
	mat.FillRandom(a, seed)
	mat.FillRandom(b, seed+1)
	return g.build(arena, a, b)
}

// NewGEMM32FromMatrices builds the problem over caller-supplied operands
// (any compatible rectangular shape — tall-skinny and batched-small ML
// shapes included). The operands are encoded as-is; they must be pristine.
func NewGEMM32FromMatrices(a, b *mat.Matrix32) (*GEMM32, error) {
	g := new(GEMM32)
	if err := g.build(nil, a, b); err != nil {
		return nil, err
	}
	return g, nil
}

// build makes g the problem over the operands a and b, encoding them.
func (g *GEMM32) build(arena *mat.Arena, a, b *mat.Matrix32) error {
	if a.Cols != b.Rows {
		return fmt.Errorf("%w: GEMM32 a %dx%d × b %dx%d", ErrBadSize, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Rows < 2 || a.Cols < 2 || b.Cols < 2 {
		return fmt.Errorf("%w: GEMM32 %dx%dx%d too small", ErrBadSize, a.Rows, a.Cols, b.Cols)
	}
	*g = GEMM32{
		M: a.Rows, K: a.Cols, N: b.Cols,
		A: a, B: b,
		Block:       32,
		Corrections: g.Corrections[:0],
		Faults:      g.Faults[:0],
		arena:       arena,
		hdr:         g.hdr,
	}
	g.C = mat.InitIn(arena, &g.hdr.c, a.Rows, b.Cols)
	// One buffer, carved: the float64 vectors live and die together.
	vecs := arena.Floats(2*g.K + 3*g.M + 3*g.N + 2*g.Block)
	take := func(n int) []float64 {
		v := vecs[:n:n]
		vecs = vecs[n:]
		return v
	}
	g.aColSum, g.bRowSum = take(g.K), take(g.K)
	for i := 0; i < g.M; i++ {
		row := a.Row(i)
		for p, v := range row {
			g.aColSum[p] += float64(v)
		}
	}
	for p := 0; p < g.K; p++ {
		s := 0.0
		for _, v := range b.Row(p) {
			s += float64(v)
		}
		g.bRowSum[p] = s
	}
	g.rowCk, g.colCk = take(g.M), take(g.N)
	g.fs = mat.FusedSums32{
		RowSums: take(g.M), ColSums: take(g.N),
		AbsRowSums: take(g.M), AbsColSums: take(g.N),
	}
	g.abuf = take(2 * g.Block)
	return nil
}

// Panels returns the number of k-panels a full run executes.
func (g *GEMM32) Panels() int { return (g.K + g.Block - 1) / g.Block }

// Run computes C = A·B panel by panel with a verification at every panel
// boundary. Detected result corruption is repaired in place; operand
// corruption or an unrepairable pattern aborts with ErrUncorrectable.
func (g *GEMM32) Run() error {
	g.C.Zero()
	clear(g.rowCk)
	clear(g.colCk)
	g.aMom, g.bMom = mat.Moments{}, mat.Moments{}
	g.kAcc = 0
	g.Corrections = g.Corrections[:0]
	g.Faults = g.Faults[:0]
	if len(g.abuf) < 2*g.Block {
		g.abuf = g.arena.Floats(2 * g.Block)
	}
	for panel := 0; panel < g.Panels(); panel++ {
		if g.OnPanel != nil {
			g.OnPanel(panel)
		}
		kk := panel * g.Block
		kMax := min(kk+g.Block, g.K)
		kb := kMax - kk
		g.maintain(kk, kMax)
		g.fs.ASums = g.abuf[:kb]
		g.fs.BSums = g.abuf[g.Block : g.Block+kb]
		mat.MulAddIntoFused32(g.C,
			g.A.ViewInto(&g.hdr.aP, 0, kk, g.M, kb), g.B.ViewInto(&g.hdr.bP, kk, 0, kb, g.N), &g.fs)
		g.aMom.Merge(g.fs.AMoments)
		g.bMom.Merge(g.fs.BMoments)
		g.kAcc += kb
		if err := g.verifyPanel(panel, kk, kb); err != nil {
			return err
		}
	}
	return nil
}

// maintain advances the float64 maintained checksums by one k-panel. Each
// side pairs the live (possibly corrupted) copy of one operand with the
// pristine encoding of the other, so single-operand corruption always
// desynchronizes the opposite side's check.
func (g *GEMM32) maintain(kk, kMax int) {
	for i := 0; i < g.M; i++ {
		row := g.A.Row(i)[kk:kMax]
		s := 0.0
		for p, v := range row {
			s += float64(v) * g.bRowSum[kk+p]
		}
		g.rowCk[i] += s
	}
	for p := kk; p < kMax; p++ {
		ac := g.aColSum[p]
		brow := g.B.Row(p)
		for j, v := range brow {
			g.colCk[j] += ac * float64(v)
		}
	}
}

// verifyPanel runs the panel-boundary checks: operand checksums first
// (detection-only), then the result line checks with repair.
func (g *GEMM32) verifyPanel(panel, kk, kb int) error {
	opA := OperandBound32(g.M, g.aMom)
	opB := OperandBound32(g.N, g.bMom)
	for p := 0; p < kb; p++ {
		if delta := g.aColSum[kk+p] - g.fs.ASums[p]; !(math.Abs(delta) <= opA) {
			g.Faults = append(g.Faults, PanelFault{Panel: panel, Source: FaultOperandA, Index: kk + p, Delta: delta})
			return fmt.Errorf("%w: f32 check at panel %d: operand A column %d checksum off by %g",
				ErrUncorrectable, panel, kk+p, delta)
		}
		if delta := g.bRowSum[kk+p] - g.fs.BSums[p]; !(math.Abs(delta) <= opB) {
			g.Faults = append(g.Faults, PanelFault{Panel: panel, Source: FaultOperandB, Index: kk + p, Delta: delta})
			return fmt.Errorf("%w: f32 check at panel %d: operand B row %d checksum off by %g",
				ErrUncorrectable, panel, kk+p, delta)
		}
	}

	for round := 0; ; round++ {
		rowBad, rowDelta := g.scanLines(g.rowCk, g.fs.RowSums, g.fs.AbsRowSums, g.N)
		colBad, colDelta := g.scanLines(g.colCk, g.fs.ColSums, g.fs.AbsColSums, g.M)
		if len(rowBad) == 0 && len(colBad) == 0 {
			return nil
		}
		if round >= maxRepairRounds {
			return fmt.Errorf("%w: f32 check at panel %d: corruption persists after %d repair rounds",
				ErrUncorrectable, panel, round)
		}
		for i, r := range rowBad {
			g.Faults = append(g.Faults, PanelFault{Panel: panel, Source: FaultResultRow, Index: r, Delta: rowDelta[i]})
		}
		for i, c := range colBad {
			g.Faults = append(g.Faults, PanelFault{Panel: panel, Source: FaultResultCol, Index: c, Delta: colDelta[i]})
		}
		// The magnitude pairing tolerance derives from the adaptive bounds
		// of the first flagged row and column, not from a fixed Tol.
		pairs := func(delta, gap float64) bool {
			pairTol := 10 * (LineBound32(g.kAcc, g.N, g.fs.AbsRowSums[rowBad[0]], g.aMom, g.bMom) +
				LineBound32(g.kAcc, g.M, g.fs.AbsColSums[colBad[0]], g.aMom, g.bMom))
			return gap <= pairTol || gap <= 1e-6*math.Abs(delta)
		}
		fix := func(r, c int, _ bool, delta float64) { g.applyFix(r, c, delta) }
		if err := locateCross(rowBad, rowDelta, colBad, colDelta, pairs, fix); err != nil {
			return fmt.Errorf("f32 check at panel %d: %w", panel, err)
		}
		// A repair changed C, and a huge-magnitude corruption may have
		// absorbed its line's float64 sums entirely (the folded sum carries
		// no usable residue of the other elements). Refold the sums from
		// the repaired output and re-check: the loop converges in one extra
		// round for any single corruption.
		g.refold()
	}
}

// scanLines compares one maintained checksum vector against the folded sums
// under the per-line adaptive bound, returning the flagged indices with
// their deltas (maintained − folded, i.e. true − computed).
func (g *GEMM32) scanLines(maintained, folded, absSums []float64, lineLen int) (bad []int, deltas []float64) {
	for i, ck := range maintained {
		tol := LineBound32(g.kAcc, lineLen, absSums[i], g.aMom, g.bMom)
		// An infinite bound comes from an infinite element in the line's
		// own absolute sum and would accept anything.
		if delta := ck - folded[i]; !(math.Abs(delta) <= tol) || math.IsInf(tol, 1) {
			bad = append(bad, i)
			deltas = append(deltas, delta)
		}
	}
	return bad, deltas
}

// applyFix repairs C[r][c] by the float64 line delta (true − computed),
// rounding the repaired value back to float32.
func (g *GEMM32) applyFix(r, c int, delta float64) {
	old := g.C.At(r, c)
	want := float64(old) + delta
	g.C.Set(r, c, float32(want))
	g.Corrections = append(g.Corrections, Correction{Structure: "C32", I: r, J: c, Delta: want - float64(old)})
}

// refold recomputes the folded output sums from the current (repaired) C —
// a serial float64 sweep used only on the repair path.
func (g *GEMM32) refold() {
	clear(g.fs.RowSums)
	clear(g.fs.ColSums)
	clear(g.fs.AbsRowSums)
	clear(g.fs.AbsColSums)
	for i := 0; i < g.M; i++ {
		row := g.C.Row(i)
		rs, ars := 0.0, 0.0
		for j, v := range row {
			f := float64(v)
			rs += f
			g.fs.ColSums[j] += f
			if f < 0 {
				f = -f
			}
			ars += f
			g.fs.AbsColSums[j] += f
		}
		g.fs.RowSums[i] = rs
		g.fs.AbsRowSums[i] = ars
	}
}

// CheckResult verifies the final product against a float64 reference
// computed from the live operands (test/oracle helper; O(M·K·N)).
func (g *GEMM32) CheckResult() error { return g.checkAgainst(g.A, g.B) }

// CheckPristine verifies the final product of a problem built by NewGEMM32
// or NewGEMM32In against operands regenerated from its seed, so that
// corruption of the live ones cannot launder itself into the reference.
// The regenerated operands live where the problem does.
func (g *GEMM32) CheckPristine(seed uint64) error {
	a, b := mat.NewIn[float32](g.arena, g.M, g.K), mat.NewIn[float32](g.arena, g.K, g.N)
	mat.FillRandom(a, seed)
	mat.FillRandom(b, seed+1)
	return g.checkAgainst(a, b)
}

// checkAgainst compares C with the float64 product of a and b under the
// per-element adaptive bound.
func (g *GEMM32) checkAgainst(a, b *mat.Matrix32) error {
	ref := g.arena.New(g.M, g.N)
	mat.MulAddInto(ref, a.To64In(g.arena), b.To64In(g.arena))
	for i := 0; i < g.M; i++ {
		row := g.C.Row(i)
		refRow := ref.Row(i)
		for j, v := range row {
			if !(math.Abs(float64(v)-refRow[j]) <= ElementBound32(g.K, refRow[j], g.aMom, g.bMom)) {
				return fmt.Errorf("abft: GEMM32 result differs from reference at (%d,%d): got %g want %g",
					i, j, v, refRow[j])
			}
		}
	}
	return nil
}
