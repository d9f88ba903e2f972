package mat

import (
	"fmt"
	"math"
	"sync"
)

// Fused online-ABFT GEMM (FT-BLAS / FT-GEMM direction).
//
// MulAddIntoFused computes the same c += a·b as MulAddInto — bit-identical,
// same determinism contract — while deriving the checksums an online ABFT
// verifier needs from data the GEMM already has in registers or L1:
//
//   - operand checksums (eᵀA, B·e) fall out of the packing copy, so
//     encoding/verification of the inputs costs no extra traversal;
//   - row/column checksums of the *output* are folded at the final k-block:
//     each finished C tile is added to its row and column accumulators right
//     at writeback, while it is still L1-hot.
//
// A two-pass verifier re-reads all of C (O(n²) memory traffic) after the
// multiply; the fused path replaces that with ~2 register adds per element
// inside the kernel and O(n) traffic at the comparison. Corruption of a C
// element written by an *earlier* panel is still witnessed: the kernel seeds
// its accumulators from the stored (possibly corrupted) value, so the fault
// propagates into the final value the checksum folds in.
//
// The same function serves both element types: data and arithmetic are in T,
// every sum and statistic is float64, so float32 is a type argument plus the
// two optional accumulator families below, not a sibling layer.
//
// Only c's bits are parallelism-invariant. The checksum sums are reduced in
// deterministic ascending-band order, so they are reproducible for a fixed
// worker count, but their rounding association varies with the band split —
// consumers must compare them against encoded checksums with a tolerance,
// never for bit equality.

// The absolute-value sums and operand Moments are the inputs of the
// variance-adaptive (V-ABFT) detection threshold the float32 tier uses: a
// line's detection bound scales with the magnitude that actually flowed
// through it and with the operands' root-mean-square, not with a global
// worst case.

// FusedSums receives the float64 checksums and statistics MulAddIntoFused
// accumulates. Each slice is optional (nil skips that accumulation);
// non-nil slices must have the exact length noted and are overwritten.
// RowSums/ColSums are requested together; AbsRowSums/AbsColSums are
// requested together, alongside RowSums/ColSums, and asking for them also
// gathers AMoments/BMoments (with ASums/BSums set — the statistics ride the
// same packing pass as the operand checksums).
type FusedSums struct {
	RowSums    []float64 // len a.Rows: Σ_j of the final c[i][j]
	ColSums    []float64 // len c.Cols: Σ_i of the final c[i][j]
	AbsRowSums []float64 // len a.Rows: Σ_j |final c[i][j]|
	AbsColSums []float64 // len c.Cols: Σ_i |final c[i][j]|
	ASums      []float64 // len a.Cols: Σ_i a[i][k] (eᵀA, the column checksums)
	BSums      []float64 // len a.Cols: Σ_j b[k][j] (B·e, the row checksums)
	AMoments   Moments   // magnitude statistics of a's packed elements
	BMoments   Moments   // magnitude statistics of b's packed elements
}

// FusedSums32 is the name the float32 callers use.
type FusedSums32 = FusedSums

// fusedAcc is the per-band view of the accumulators: rs/cs are the output
// row/column sums (indexed in the band's local row space / the full column
// space), ars/acs the matching absolute-value sums, asum/bsum the operand
// checksums in k space, and amom/bmom the operand magnitude statistics. Nil
// members skip that accumulation.
type fusedAcc struct {
	rs, cs     []float64
	ars, acs   []float64
	asum, bsum []float64
	amom, bmom *Moments
}

// MulAddIntoFused computes c += a×b with checksum accumulation fused into
// the packing and write-back passes. c's result is bit-identical to
// MulAddInto (and to the naive scalar loop in T) at any blocking or
// parallelism.
func MulAddIntoFused[T Float](c, a, b *Dense[T], fs *FusedSums) {
	checkShape(c, a, b, "MulAddIntoFused")
	m, kdim, n := a.Rows, a.Cols, c.Cols
	if fs == nil {
		mulAdd(c, a, b, 1, false)
		return
	}
	if (fs.RowSums == nil) != (fs.ColSums == nil) {
		panic("mat: MulAddIntoFused RowSums and ColSums must be set together")
	}
	if (fs.AbsRowSums == nil) != (fs.AbsColSums == nil) || (fs.AbsRowSums != nil && fs.RowSums == nil) {
		panic("mat: MulAddIntoFused AbsRowSums and AbsColSums must be set together, with RowSums/ColSums")
	}
	checkSumLen(fs.RowSums, m, "RowSums")
	checkSumLen(fs.ColSums, n, "ColSums")
	checkSumLen(fs.AbsRowSums, m, "AbsRowSums")
	checkSumLen(fs.AbsColSums, n, "AbsColSums")
	checkSumLen(fs.ASums, kdim, "ASums")
	checkSumLen(fs.BSums, kdim, "BSums")
	clear(fs.RowSums)
	clear(fs.ColSums)
	clear(fs.AbsRowSums)
	clear(fs.AbsColSums)
	clear(fs.ASums)
	clear(fs.BSums)
	fs.AMoments, fs.BMoments = Moments{}, Moments{}
	if m == 0 || n == 0 || kdim == 0 {
		return
	}
	adaptive := fs.AbsRowSums != nil
	workers := workersFor(m, 2*m*n*kdim)
	if fs.RowSums == nil {
		// Partial-sum callers still need the operand checksums wired through
		// the pack pass, but without output folding the plain kernels run.
		workers = 1
	}
	if workers <= 1 {
		fa := &fusedAcc{rs: fs.RowSums, cs: fs.ColSums, ars: fs.AbsRowSums, acs: fs.AbsColSums,
			asum: fs.ASums, bsum: fs.BSums}
		if adaptive {
			fa.amom, fa.bmom = &fs.AMoments, &fs.BMoments
		}
		gemmSerial(c, a, b, 1, false, fa)
		return
	}

	// Parallel: each row band folds into disjoint RowSums/AbsRowSums rows
	// directly and into recycled per-band column/operand partials; bands are
	// then reduced in ascending order, so the sums depend only on (shape,
	// workers). BSums/BMoments cover all of b in every band, so only band 0
	// derives them; AMoments is per-band (each band packs its own rows) and
	// merged.
	type bandPart struct {
		cols *[]float64 // ColSums, then AbsColSums when kept
		a    *[]float64 // ASums
		amom Moments
	}
	width := n
	if adaptive {
		width = 2 * n
	}
	bands := rowBands(m, workers)
	parts := make([]bandPart, len(bands))
	var wg sync.WaitGroup
	for idx, bd := range bands {
		pt := &parts[idx]
		pt.cols = getZeroBuf[float64](width)
		if fs.ASums != nil {
			pt.a = getZeroBuf[float64](kdim)
		}
		wg.Add(1)
		go func(first bool, lo, hi int) {
			defer wg.Done()
			fa := &fusedAcc{rs: fs.RowSums[lo:hi], cs: (*pt.cols)[:n]}
			if adaptive {
				fa.ars, fa.acs, fa.amom = fs.AbsRowSums[lo:hi], (*pt.cols)[n:], &pt.amom
			}
			if pt.a != nil {
				fa.asum = *pt.a
			}
			if first {
				fa.bsum = fs.BSums
				if adaptive {
					fa.bmom = &fs.BMoments
				}
			}
			gemmSerial(c.View(lo, 0, hi-lo, n), a.View(lo, 0, hi-lo, kdim), b, 1, false, fa)
		}(idx == 0, bd.lo, bd.hi)
	}
	wg.Wait()
	for idx := range parts {
		pt := &parts[idx]
		for j, v := range (*pt.cols)[:n] {
			fs.ColSums[j] += v
		}
		if adaptive {
			for j, v := range (*pt.cols)[n:] {
				fs.AbsColSums[j] += v
			}
			fs.AMoments.Merge(pt.amom)
		}
		putBuf(pt.cols)
		if pt.a != nil {
			for k, v := range *pt.a {
				fs.ASums[k] += v
			}
			putBuf(pt.a)
		}
	}
}

// MulAddIntoFused32 is the name the float32 callers use.
func MulAddIntoFused32(c, a, b *Matrix32, fs *FusedSums32) { MulAddIntoFused(c, a, b, fs) }

func checkSumLen(s []float64, want int, name string) {
	if s != nil && len(s) != want {
		panic(fmt.Sprintf("mat: MulAddIntoFused %s length %d, want %d", name, len(s), want))
	}
}

// foldSimple derives the fused sums for sub-threshold problems: one
// post-pass over the small operands and output after the plain blocked loop
// (identical bits). Below packMinFlops everything is L1-resident, so the
// extra pass costs what folding in the kernels would have.
func foldSimple[T Float](c, a, b *Dense[T], fa *fusedAcc) {
	if fa.rs != nil {
		for i := 0; i < c.Rows; i++ {
			sum, asum := 0.0, 0.0
			for j, v := range c.Row(i) {
				f := float64(v)
				sum += f
				fa.cs[j] += f
				if fa.acs != nil {
					f = foldAbs(f)
					asum += f
					fa.acs[j] += f
				}
			}
			fa.rs[i] += sum
			if fa.ars != nil {
				fa.ars[i] += asum
			}
		}
	}
	if fa.asum != nil {
		for i := 0; i < a.Rows; i++ {
			for k, v := range a.Row(i) {
				fa.asum[k] += float64(v)
				if fa.amom != nil {
					fa.amom.Observe(float64(v))
				}
			}
		}
	}
	if fa.bsum != nil {
		for k := 0; k < b.Rows; k++ {
			s := 0.0
			for _, v := range b.Row(k) {
				s += float64(v)
				if fa.bmom != nil {
					fa.bmom.Observe(float64(v))
				}
			}
			fa.bsum[k] += s
		}
	}
}

// Moments are magnitude statistics of one operand, gathered in float64
// during the packing pass of the fused kernel. They are the inputs of the
// V-ABFT-style adaptive detection threshold: the bound scales with the
// root-mean-square of the operands (their variance proxy) instead of a
// fixed epsilon, so low-magnitude panels get tight detection and
// high-variance panels do not false-positive.
type Moments struct {
	Count  int     // elements observed
	SumSq  float64 // Σ v²
	MaxAbs float64 // max |v|
}

// Observe folds one value into the statistics.
func (m *Moments) Observe(v float64) {
	m.Count++
	m.SumSq += v * v
	if a := math.Abs(v); a > m.MaxAbs {
		m.MaxAbs = a
	}
}

// Merge folds another statistics block into m.
func (m *Moments) Merge(o Moments) {
	m.Count += o.Count
	m.SumSq += o.SumSq
	if o.MaxAbs > m.MaxAbs {
		m.MaxAbs = o.MaxAbs
	}
}

// MeanSq returns the mean square (0 for empty statistics).
func (m Moments) MeanSq() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.SumSq / float64(m.Count)
}
