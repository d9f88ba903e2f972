package mat

import (
	"fmt"
	"math"
	"testing"
)

// The fused kernel folds the output by column strip with the strip's sums in
// locals. That reorganises where an accumulator lives, not what is added to
// it in which order, so every sum must keep the bits of the form it
// replaced: one fold call per stored micro-tile. The reference below is that
// form, with the operand statistics observed element by element in pack
// order, kept for this comparison.

// refFoldTile is the per-tile fold: a stored rows×cols tile of c at (ri, cj)
// goes into the row/column sums, element by element in row-major order.
func refFoldTile[T Float](c *Dense[T], ri, cj, rows, cols int, fa *fusedAcc) {
	for r := 0; r < rows; r++ {
		sum, asum := 0.0, 0.0
		for j := 0; j < cols; j++ {
			f := float64(c.At(ri+r, cj+j))
			sum += f
			fa.cs[cj+j] += f
			if fa.acs != nil {
				if f < 0 {
					f = -f
				}
				asum += f
				fa.acs[cj+j] += f
			}
		}
		fa.rs[ri+r] += sum
		if fa.ars != nil {
			fa.ars[ri+r] += asum
		}
	}
}

// refFusedBand derives one row band's sums from the band's final c and its
// operands by walking gemmSerial's loop nest without the arithmetic: the
// pack passes visit the operands panel by panel, micro-panel by micro-panel,
// and the last k-block folds c tile by tile.
func refFusedBand[T Float](c, a, b *Dense[T], fa *fusedAcc) {
	m, kdim, n := a.Rows, a.Cols, c.Cols
	observe := func(mom *Moments, v float64) {
		if mom != nil {
			mom.Observe(v)
		}
	}
	if 2*m*kdim*n < packMinFlops {
		// Sub-threshold problems take the unpacked loop and a post-pass.
		if fa.rs != nil {
			for i := 0; i < m; i++ {
				refFoldTile(c, i, 0, 1, n, fa)
			}
		}
		if fa.asum != nil {
			for i := 0; i < m; i++ {
				for k := 0; k < kdim; k++ {
					fa.asum[k] += float64(a.At(i, k))
					observe(fa.amom, float64(a.At(i, k)))
				}
			}
		}
		if fa.bsum != nil {
			for k := 0; k < kdim; k++ {
				s := 0.0
				for j := 0; j < n; j++ {
					s += float64(b.At(k, j))
					observe(fa.bmom, float64(b.At(k, j)))
				}
				fa.bsum[k] += s
			}
		}
		return
	}
	for j0 := 0; j0 < n; j0 += ncBlock {
		nw := min(ncBlock, n-j0)
		for k0 := 0; k0 < kdim; k0 += kcBlock {
			kb := min(kcBlock, kdim-k0)
			if fa.bsum != nil {
				for c0 := 0; c0 < nw; c0 += nr {
					for p := 0; p < kb; p++ {
						s := 0.0
						for j := c0; j < min(c0+nr, nw); j++ {
							s += float64(b.At(k0+p, j0+j))
							observe(fa.bmom, float64(b.At(k0+p, j0+j)))
						}
						fa.bsum[k0+p] += s
					}
				}
			}
			for i0 := 0; i0 < m; i0 += mcBlock {
				mb := min(mcBlock, m-i0)
				if fa.asum != nil && j0 == 0 {
					for r0 := 0; r0 < mb; r0 += mr {
						for p := 0; p < kb; p++ {
							s := 0.0
							for i := r0; i < min(r0+mr, mb); i++ {
								s += float64(a.At(i0+i, k0+p))
								observe(fa.amom, float64(a.At(i0+i, k0+p)))
							}
							fa.asum[k0+p] += s
						}
					}
				}
				if fa.rs == nil || k0+kb != kdim {
					continue
				}
				for jr := 0; jr < nw; jr += nr {
					for ir := 0; ir < mb; ir += mr {
						refFoldTile(c, i0+ir, j0+jr, min(mr, mb-ir), min(nr, nw-jr), fa)
					}
				}
			}
		}
	}
}

// refFused is MulAddIntoFused's reduction around refFusedBand: serial
// problems accumulate straight into fs, parallel ones fold disjoint row-sum
// rows in place and reduce per-band column and operand partials in
// ascending band order; only band 0 derives the b side.
func refFused[T Float](c, a, b *Dense[T], fs *FusedSums, abs bool) {
	m, kdim, n := a.Rows, a.Cols, c.Cols
	workers := workersFor(m, 2*m*n*kdim)
	bands := []band{{0, m}}
	if workers > 1 {
		bands = rowBands(m, workers)
	}
	for idx, bd := range bands {
		fa := &fusedAcc{rs: fs.RowSums[bd.lo:bd.hi], cs: make([]float64, n), asum: make([]float64, kdim)}
		var amom Moments
		if abs {
			fa.ars, fa.acs, fa.amom = fs.AbsRowSums[bd.lo:bd.hi], make([]float64, n), &amom
		}
		if idx == 0 {
			fa.bsum = fs.BSums
			if abs {
				fa.bmom = &fs.BMoments
			}
		}
		if workers <= 1 {
			// No partials: the serial path sums into the caller's slices.
			fa.cs, fa.asum = fs.ColSums, fs.ASums
			if abs {
				fa.acs, fa.amom = fs.AbsColSums, &fs.AMoments
			}
		}
		refFusedBand(c.View(bd.lo, 0, bd.hi-bd.lo, n), a.View(bd.lo, 0, bd.hi-bd.lo, kdim), b, fa)
		if workers <= 1 {
			break
		}
		for j := range fs.ColSums {
			fs.ColSums[j] += fa.cs[j]
			if abs {
				fs.AbsColSums[j] += fa.acs[j]
			}
		}
		for k := range fs.ASums {
			fs.ASums[k] += fa.asum[k]
		}
		fs.AMoments.Merge(amom)
	}
}

// signedOperand is operand with mixed signs, so the absolute sums differ
// from the plain ones and the sign test in the fold is exercised both ways.
func signedOperand[T Float](r, c int, seed uint64, strided bool) *Dense[T] {
	m := operand[T](r, c, seed, strided)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] -= 0.5
		}
	}
	return m
}

func sumsBitEqual(t *testing.T, what, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: %s[%d] = %x (%g), per-tile fold gives %x (%g)", what, name, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			return
		}
	}
}

// foldShapes cross every edge of the blocking: m and n off the 2×4 tile, m
// beyond mcBlock, k beyond kcBlock (the fold must wait for the last k-block),
// n beyond ncBlock, the sub-threshold post-pass, the (n+1)-extended shape
// DGEMM multiplies at n=128, and GEMM32's square rank-32 panel update.
var foldShapes = []struct{ m, k, n int }{
	{3, 5, 7}, {16, 16, 16}, {17, 31, 13}, {65, 33, 67}, {129, 65, 97}, {130, 97, 51},
	{129, 128, 129}, {129, 129, 129}, {192, 32, 192}, {8, 300, 96}, {259, 40, 9}, {300, 260, 6},
	{6, 40, 517},
}

func testFoldBitIdentical[T Float](t *testing.T) {
	for _, sh := range foldShapes {
		for _, strided := range []bool{false, true} {
			a := signedOperand[T](sh.m, sh.k, uint64(sh.m*1000+sh.k), strided)
			b := signedOperand[T](sh.k, sh.n, uint64(sh.k*1000+sh.n), strided)
			c0 := signedOperand[T](sh.m, sh.n, 7, strided) // pre-loaded, nonzero
			final := c0.Clone()
			refMulAdd(final, a, b, 1, false)
			for _, abs := range []bool{false, true} {
				for _, par := range []int{1, 2, 8} {
					got, want := newSums(sh.m, sh.k, sh.n, abs), newSums(sh.m, sh.k, sh.n, abs)
					c := c0.Clone()
					withParallelism(par, func() {
						MulAddIntoFused(c, a, b, got)
						refFused(final, a, b, want, abs)
					})
					tag := fmt.Sprintf("%dx%dx%d strided=%v abs=%v par=%d", sh.m, sh.k, sh.n, strided, abs, par)
					if !bitEqual(c, final) {
						t.Errorf("%s: product differs from the scalar reference", tag)
					}
					sumsBitEqual(t, tag, "RowSums", got.RowSums, want.RowSums)
					sumsBitEqual(t, tag, "ColSums", got.ColSums, want.ColSums)
					sumsBitEqual(t, tag, "ASums", got.ASums, want.ASums)
					sumsBitEqual(t, tag, "BSums", got.BSums, want.BSums)
					if abs {
						sumsBitEqual(t, tag, "AbsRowSums", got.AbsRowSums, want.AbsRowSums)
						sumsBitEqual(t, tag, "AbsColSums", got.AbsColSums, want.AbsColSums)
					}
					for _, mo := range []struct {
						name      string
						got, want Moments
					}{{"AMoments", got.AMoments, want.AMoments}, {"BMoments", got.BMoments, want.BMoments}} {
						if mo.got.Count != mo.want.Count ||
							math.Float64bits(mo.got.SumSq) != math.Float64bits(mo.want.SumSq) ||
							math.Float64bits(mo.got.MaxAbs) != math.Float64bits(mo.want.MaxAbs) {
							t.Errorf("%s: %s = %+v, element-by-element Observe gives %+v", tag, mo.name, mo.got, mo.want)
						}
					}
				}
			}
		}
	}
}

func TestFusedFoldBitIdentical(t *testing.T) {
	t.Run("f64", testFoldBitIdentical[float64])
	t.Run("f32", testFoldBitIdentical[float32])
}

// TestFusedFoldNegativeZero: a row sum starts from +0, so a row of −0 sums
// to +0, while a column sum that was never touched by anything else keeps
// what it held. A partial strip pads its absent columns with +0, which must
// not show either. Rows of −0 in a make every product −0, and c starts −0.
func TestFusedFoldNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, n := range []int{40, 41, 42, 43} { // every partial-strip width
		const m, k = 34, 33
		a, b, c := New(m, k), Random(k, n, 3), New(m, n)
		for i := range a.Data {
			a.Data[i] = negZero
		}
		for i := range c.Data {
			c.Data[i] = negZero
		}
		got, want := newSums(m, k, n, true), newSums(m, k, n, true)
		withParallelism(1, func() {
			MulAddIntoFused(c, a, b, got)
			refFused(c, a, b, want, true)
		})
		if math.Float64bits(c.At(m-1, n-1)) != math.Float64bits(negZero) {
			t.Fatalf("n=%d: the product is not −0; the case tests nothing", n)
		}
		tag := fmt.Sprintf("n=%d", n)
		sumsBitEqual(t, tag, "RowSums", got.RowSums, want.RowSums)
		sumsBitEqual(t, tag, "ColSums", got.ColSums, want.ColSums)
		sumsBitEqual(t, tag, "AbsRowSums", got.AbsRowSums, want.AbsRowSums)
		sumsBitEqual(t, tag, "AbsColSums", got.AbsColSums, want.AbsColSums)
		sumsBitEqual(t, tag, "ASums", got.ASums, want.ASums)
		if math.Signbit(got.RowSums[0]) || math.Signbit(got.ColSums[n-1]) {
			t.Errorf("n=%d: sums of −0 from a +0 start came out negative: row %g col %g", n, got.RowSums[0], got.ColSums[n-1])
		}
	}
}
