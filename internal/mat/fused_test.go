package mat

import (
	"math"
	"testing"
)

// sumTol returns the checksum comparison tolerance for a problem: the sums
// are reduced with a different rounding association than a reference sweep,
// so they agree to accumulated float64 roundoff, not to the bit.
func sumTol(m, k, n int) float64 {
	dim := float64(max(m, max(k, n)))
	return 1e-11 * dim * dim
}

// newSums allocates a FusedSums for an m×k by k×n product; abs adds the
// absolute-value sums (and with them the operand Moments).
func newSums(m, k, n int, abs bool) *FusedSums {
	fs := &FusedSums{
		RowSums: make([]float64, m), ColSums: make([]float64, n),
		ASums: make([]float64, k), BSums: make([]float64, k),
	}
	if abs {
		fs.AbsRowSums, fs.AbsColSums = make([]float64, m), make([]float64, n)
	}
	return fs
}

// refSums derives every checksum and statistic with plain float64 sweeps
// over the final operands and result.
func refSums[T Float](c, a, b *Dense[T]) *FusedSums {
	fs := newSums(c.Rows, a.Cols, c.Cols, true)
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			v := float64(c.At(i, j))
			fs.RowSums[i] += v
			fs.ColSums[j] += v
			fs.AbsRowSums[i] += math.Abs(v)
			fs.AbsColSums[j] += math.Abs(v)
		}
	}
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			fs.ASums[k] += float64(a.At(i, k))
			fs.AMoments.Observe(float64(a.At(i, k)))
		}
	}
	for k := 0; k < b.Rows; k++ {
		for j := 0; j < b.Cols; j++ {
			fs.BSums[k] += float64(b.At(k, j))
			fs.BMoments.Observe(float64(b.At(k, j)))
		}
	}
	return fs
}

func sumsClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Errorf("%s[%d] = %v, want %v (tol %g)", name, i, got[i], want[i], tol)
			return
		}
	}
}

// momentsClose: the count and maximum are order-independent and must match
// exactly; the square sum is reduced in pack order, so to roundoff.
func momentsClose(t *testing.T, name string, got, want Moments, tol float64) {
	t.Helper()
	if got.Count != want.Count || got.MaxAbs != want.MaxAbs || math.Abs(got.SumSq-want.SumSq) > tol {
		t.Errorf("%s = %+v, want %+v (tol %g)", name, got, want, tol)
	}
}

// testFusedBitExact is the fused path's contract for one element type: c
// must be bit-identical to the scalar reference (hence to MulAddInto) across
// gemmShapes, strided views and every worker budget, while the float64
// checksums — and, when asked for, the absolute-value sums and operand
// Moments — agree with direct float64 sweeps to roundoff.
func testFusedBitExact[T Float](t *testing.T) {
	for _, sh := range gemmShapes {
		for _, strided := range []bool{false, true} {
			a := operand[T](sh.m, sh.k, uint64(sh.m*1000+sh.k), strided)
			b := operand[T](sh.k, sh.n, uint64(sh.k*1000+sh.n), strided)
			c0 := operand[T](sh.m, sh.n, 7, strided)
			want := c0.Clone()
			refMulAdd(want, a, b, 1, false)
			wantSums := refSums(want, a, b)
			tol := sumTol(sh.m, sh.k, sh.n)
			for _, abs := range []bool{false, true} {
				for _, par := range gemmWorkers {
					got := c0.Clone()
					fs := newSums(sh.m, sh.k, sh.n, abs)
					// Stale statistics must be reset, not accumulated into.
					fs.AMoments = Moments{Count: 9, SumSq: 9, MaxAbs: 9}
					withParallelism(par, func() { MulAddIntoFused(got, a, b, fs) })
					if !bitEqual(got, want) {
						t.Errorf("%dx%dx%d strided=%v abs=%v par=%d: fused C differs from scalar reference",
							sh.m, sh.k, sh.n, strided, abs, par)
					}
					sumsClose(t, "RowSums", fs.RowSums, wantSums.RowSums, tol)
					sumsClose(t, "ColSums", fs.ColSums, wantSums.ColSums, tol)
					sumsClose(t, "ASums", fs.ASums, wantSums.ASums, tol)
					sumsClose(t, "BSums", fs.BSums, wantSums.BSums, tol)
					if !abs {
						if fs.AMoments != (Moments{}) || fs.BMoments != (Moments{}) {
							t.Errorf("moments gathered without the abs sums: %+v %+v", fs.AMoments, fs.BMoments)
						}
						continue
					}
					sumsClose(t, "AbsRowSums", fs.AbsRowSums, wantSums.AbsRowSums, tol)
					sumsClose(t, "AbsColSums", fs.AbsColSums, wantSums.AbsColSums, tol)
					momentsClose(t, "AMoments", fs.AMoments, wantSums.AMoments, tol)
					momentsClose(t, "BMoments", fs.BMoments, wantSums.BMoments, tol)
				}
			}
		}
	}
}

func TestMulAddIntoFusedBitExact(t *testing.T) { testFusedBitExact[float64](t) }
func TestMulAddIntoFused32(t *testing.T)       { testFusedBitExact[float32](t) }

// testKernEdgeAllPartialTiles exercises every (rows, cols) fringe the 2×4
// tile can leave — m = mr+rows for rows ∈ 1..4, n = nr+cols for cols ∈ 1..4
// — under the plain and fused packed paths, asserting bit-equality with the
// scalar loop. It drives gemmPacked directly so the size dispatch cannot
// route around it; k spans below, at, and beyond one unroll quantum.
func testKernEdgeAllPartialTiles[T Float](t *testing.T) {
	for rows := 1; rows <= 4; rows++ {
		for cols := 1; cols <= 4; cols++ {
			for _, k := range []int{1, 3, 4, 9} {
				m, n := mr+rows, nr+cols
				a := random[T](m, k, uint64(100*rows+10*cols+k))
				b := random[T](k, n, uint64(200*rows+20*cols+k))
				c0 := random[T](m, n, 2)
				want := c0.Clone()
				refMulAdd(want, a, b, 1, false)

				got := c0.Clone()
				gemmPacked(got, a, b, 1, false, nil)
				if !bitEqual(got, want) {
					t.Fatalf("edge %dx%d k=%d: plain path differs from scalar loop", rows, cols, k)
				}

				got = c0.Clone()
				fa := &fusedAcc{rs: make([]float64, m), cs: make([]float64, n),
					ars: make([]float64, m), acs: make([]float64, n)}
				gemmPacked(got, a, b, 1, false, fa)
				if !bitEqual(got, want) {
					t.Fatalf("edge %dx%d k=%d: fused path differs from scalar loop", rows, cols, k)
				}
				wantSums := refSums(want, a, b)
				tol := sumTol(m, k, n)
				sumsClose(t, "rs", fa.rs, wantSums.RowSums, tol)
				sumsClose(t, "cs", fa.cs, wantSums.ColSums, tol)
				sumsClose(t, "ars", fa.ars, wantSums.AbsRowSums, tol)
				sumsClose(t, "acs", fa.acs, wantSums.AbsColSums, tol)
			}
		}
	}
}

func TestKernEdgeAllPartialTiles(t *testing.T) {
	t.Run("f64", testKernEdgeAllPartialTiles[float64])
	t.Run("f32", testKernEdgeAllPartialTiles[float32])
}

// testKernEdgeNaNInfPropagation: partial tiles must propagate NaN/Inf
// exactly like the scalar loop on both paths, and the fused checksums must
// absorb the poison instead of masking it.
func testKernEdgeNaNInfPropagation[T Float](t *testing.T) {
	m, k, n := mr+1, 5, nr+3 // bottom and right fringes both partial
	a := random[T](m, k, 3)
	b := random[T](k, n, 4)
	a.Set(m-1, 2, T(math.NaN())) // lands in the bottom partial tile
	b.Set(1, n-1, T(math.Inf(1)))
	a.Set(0, 1, 0) // 0×Inf = NaN must not be skipped
	c0 := random[T](m, n, 5)
	want := c0.Clone()
	refMulAdd(want, a, b, 1, false)

	got := c0.Clone()
	gemmPacked(got, a, b, 1, false, nil)
	if !bitEqual(got, want) {
		t.Fatal("plain path NaN/Inf propagation differs from scalar loop")
	}
	got = c0.Clone()
	fa := &fusedAcc{rs: make([]float64, m), cs: make([]float64, n)}
	gemmPacked(got, a, b, 1, false, fa)
	if !bitEqual(got, want) {
		t.Fatal("fused path NaN/Inf propagation differs from scalar loop")
	}
	if !math.IsNaN(fa.rs[m-1]) {
		t.Errorf("rs[%d] = %v, want NaN folded from poisoned row", m-1, fa.rs[m-1])
	}
	if !math.IsNaN(fa.cs[n-1]) {
		t.Errorf("cs[%d] = %v, want NaN folded from poisoned column", n-1, fa.cs[n-1])
	}
}

func TestKernEdgeNaNInfPropagation(t *testing.T) {
	t.Run("f64", testKernEdgeNaNInfPropagation[float64])
	t.Run("f32", testKernEdgeNaNInfPropagation[float32])
}

// testFusedPartialSums: nil slices skip that accumulation, RowSums/ColSums
// must be requested together, and the abs sums only alongside them.
func testFusedPartialSums[T Float](t *testing.T) {
	m, k, n := 20, 30, 25
	a := random[T](m, k, 1)
	b := random[T](k, n, 2)
	want := newDense[T](m, n)
	refMulAdd(want, a, b, 1, false)
	wantSums := refSums(want, a, b)

	got := newDense[T](m, n)
	fs := &FusedSums{ASums: make([]float64, k), BSums: make([]float64, k)}
	MulAddIntoFused(got, a, b, fs)
	if !bitEqual(got, want) {
		t.Fatal("operand-sums-only fused call: C differs from scalar reference")
	}
	tol := sumTol(m, k, n)
	sumsClose(t, "ASums", fs.ASums, wantSums.ASums, tol)
	sumsClose(t, "BSums", fs.BSums, wantSums.BSums, tol)

	for name, bad := range map[string]*FusedSums{
		"RowSums without ColSums":       {RowSums: make([]float64, m)},
		"AbsRowSums without AbsColSums": {RowSums: make([]float64, m), ColSums: make([]float64, n), AbsRowSums: make([]float64, m)},
		"abs sums without RowSums":      {AbsRowSums: make([]float64, m), AbsColSums: make([]float64, n)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			MulAddIntoFused(got, a, b, bad)
		}()
	}
}

func TestMulAddIntoFusedPartialSums(t *testing.T) {
	t.Run("f64", testFusedPartialSums[float64])
	t.Run("f32", testFusedPartialSums[float32])
}
