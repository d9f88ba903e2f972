package mat

import (
	"math"
	"testing"
)

// refMulAdd is the scalar reference every GEMM path must match to the bit,
// for either element type: each element of c += alpha·a·op(b) accumulates
// its k-products in ascending order in T, starting from the stored value.
func refMulAdd[T Float](c, a, b *Dense[T], alpha T, transB bool) {
	for i := 0; i < c.Rows; i++ {
		for j := 0; j < c.Cols; j++ {
			s := c.At(i, j)
			for k := 0; k < a.Cols; k++ {
				if transB {
					s += alpha * a.At(i, k) * b.At(j, k)
				} else {
					s += alpha * a.At(i, k) * b.At(k, j)
				}
			}
			c.Set(i, j, s)
		}
	}
}

// bitEqual compares element-wise by bit pattern, so NaNs compare equal to
// themselves and −0 differs from +0 (float32 widens to float64 exactly, so
// one comparison serves both element types).
func bitEqual[T Float](a, b *Dense[T]) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if math.Float64bits(float64(a.At(i, j))) != math.Float64bits(float64(b.At(i, j))) {
				return false
			}
		}
	}
	return true
}

// withParallelism runs fn at a fixed worker budget and restores the old one.
func withParallelism(w int, fn func()) {
	old := SetParallelism(w)
	defer SetParallelism(old)
	fn()
}

// operand returns an r×c matrix of deterministic random data: compact, or —
// when strided — a view into a wider parent (Stride > Cols).
func operand[T Float](r, c int, seed uint64, strided bool) *Dense[T] {
	if !strided {
		return random[T](r, c, seed)
	}
	return random[T](r+2, c+5, seed).View(1, 2, r, c)
}

// gemmShapes is the union of the shapes the float64 and float32 suites grew
// separately: odd/fringe sizes, exact block multiples, a k beyond one
// kcBlock, and the ML-inference tall-skinny and batched-small geometries.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 5, 7}, {5, 7, 3}, {16, 16, 16}, {17, 31, 13}, {64, 64, 64},
	{65, 127, 33}, {65, 33, 67}, {100, 100, 100}, {129, 65, 97}, {130, 97, 51},
	{40, 256, 40}, {17, 300, 13}, {256, 64, 8}, {8, 256, 96},
}

// gemmWorkers are the worker budgets every bit-exactness test sweeps.
var gemmWorkers = []int{1, 2, 3, 7, 8}

// testMulAddBitExact checks the packed/parallel GEMM against the scalar
// reference to exact bit equality across gemmShapes, strided views, every
// worker budget, and alpha ∈ {+1, −1} × transB — the kernel layer's
// determinism contract, for one element type.
func testMulAddBitExact[T Float](t *testing.T) {
	for _, sh := range gemmShapes {
		for _, strided := range []bool{false, true} {
			for _, transB := range []bool{false, true} {
				a := operand[T](sh.m, sh.k, uint64(sh.m*1000+sh.k), strided)
				b := operand[T](sh.k, sh.n, uint64(sh.k*1000+sh.n), strided)
				if transB {
					b = operand[T](sh.n, sh.k, uint64(sh.k*1000+sh.n), strided)
				}
				c0 := operand[T](sh.m, sh.n, 7, strided)
				for _, alpha := range []T{1, -1} {
					want := c0.Clone()
					refMulAdd(want, a, b, alpha, transB)
					for _, par := range gemmWorkers {
						got := c0.Clone()
						withParallelism(par, func() {
							if alpha == 1 && !transB {
								MulAddInto(got, a, b) // the exported entry
							} else {
								mulAdd(got, a, b, alpha, transB)
							}
						})
						if !bitEqual(got, want) {
							t.Errorf("%dx%dx%d strided=%v alpha=%v transB=%v par=%d: differs from scalar reference",
								sh.m, sh.k, sh.n, strided, alpha, transB, par)
						}
					}
				}
			}
		}
	}
}

func TestMulAddIntoBitExact(t *testing.T)   { testMulAddBitExact[float64](t) }
func TestMulAddInto32BitExact(t *testing.T) { testMulAddBitExact[float32](t) }

// TestRandom32MatchesRandom: the float32 generator is elementwise the
// float64 stream, so seeds are interchangeable across precisions.
func TestRandom32MatchesRandom(t *testing.T) {
	m64 := Random(7, 9, 42)
	m32 := Random32(7, 9, 42)
	for i := 0; i < 7; i++ {
		for j := 0; j < 9; j++ {
			if m32.At(i, j) != float32(m64.At(i, j)) {
				t.Fatalf("Random32(%d,%d) = %v, want float32(%v)", i, j, m32.At(i, j), m64.At(i, j))
			}
		}
	}
}

// TestMulAddIntoPropagatesNaNInf: 0×NaN and 0×Inf must poison the output —
// the seed kernel's av == 0 early-skip silently dropped them.
func TestMulAddIntoPropagatesNaNInf(t *testing.T) {
	a := FromSlice(2, 2, []float64{0, 0, 1, 0})
	b := FromSlice(2, 2, []float64{math.NaN(), math.Inf(1), 4, 5})
	c := New(2, 2)
	MulAddInto(c, a, b)
	// Row 0 of a is all zeros: 0·NaN + 0·4 = NaN, 0·Inf + 0·5 = NaN.
	if !math.IsNaN(c.At(0, 0)) || !math.IsNaN(c.At(0, 1)) {
		t.Errorf("zero row × NaN/Inf column = (%g, %g), want NaN", c.At(0, 0), c.At(0, 1))
	}
	// Row 1: 1·NaN + 0·4 = NaN, 1·Inf + 0·5 = Inf.
	if !math.IsNaN(c.At(1, 0)) || !math.IsInf(c.At(1, 1), 1) {
		t.Errorf("second row = (%g, %g), want (NaN, +Inf)", c.At(1, 0), c.At(1, 1))
	}
	// Inf must survive when nothing cancels it: 1·Inf + 0·3 = Inf.
	c2 := New(1, 1)
	MulAddInto(c2, FromSlice(1, 2, []float64{1, 0}), FromSlice(2, 1, []float64{math.Inf(1), 3}))
	if !math.IsInf(c2.At(0, 0), 1) {
		t.Errorf("1·Inf + 0·3 = %g, want +Inf", c2.At(0, 0))
	}
}

// TestSyrkLowerSubDeterministic checks SYRK parallel-vs-serial bit equality and
// its agreement with a scalar reference, for the subtracting trailing update
// and the adding form SymmetricPositiveDefinite uses.
func TestSyrkLowerSubDeterministic(t *testing.T) {
	for _, n := range []int{5, 33, 100, 129} {
		k := n/2 + 3
		l := Random(n, k, uint64(n))
		c0 := Random(n, n, uint64(n)+1)
		for _, alpha := range []float64{-1, 1} {
			// Scalar reference on the lower triangle.
			want := c0.Clone()
			refMulAdd(want, l, l, alpha, true)
			for i := 0; i < n; i++ {
				copy(want.Row(i)[i+1:], c0.Row(i)[i+1:])
			}
			for _, par := range []int{1, 2, 8} {
				got := c0.Clone()
				withParallelism(par, func() {
					if alpha < 0 {
						SyrkLowerSub(got, l)
					} else {
						SyrkLowerAdd(got, l, false)
					}
				})
				if !bitEqual(got, want) {
					t.Errorf("n=%d alpha=%g par=%d: SYRK differs from scalar reference", n, alpha, par)
				}
			}
		}
	}
}

// TestSyrkLowerAddTriangular: for a lower-triangular l the k-bounded SYRK
// yields the lower triangle of the full product l·lᵀ to the bit — the
// products it skips are exact zeros — at any parallelism, and leaves the
// upper triangle of c alone.
func TestSyrkLowerAddTriangular(t *testing.T) {
	for _, n := range []int{1, 5, 64, 65, 100, 128, 193} {
		l := Random(n, n, uint64(n)+7)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				l.Set(i, j, 0)
			}
			if i%3 == 0 {
				l.Set(i, i/2, -l.At(i, i/2)) // negative entries: −0 products
			}
		}
		full := Mul(l, l.Transpose())
		for _, par := range []int{1, 2} {
			got := New(n, n)
			withParallelism(par, func() { SyrkLowerAdd(got, l, true) })
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := 0.0
					if j <= i {
						want = full.At(i, j)
					}
					if math.Float64bits(got.At(i, j)) != math.Float64bits(want) {
						t.Fatalf("n=%d par=%d: (%d,%d) = %g, want %g", n, par, i, j, got.At(i, j), want)
					}
				}
			}
		}
	}
}

// TestSolveXLTDeterministic checks the parallel TRSM path against the
// serial one to the bit.
func TestSolveXLTDeterministic(t *testing.T) {
	for _, rows := range []int{3, 64, 150} {
		n := 40
		spd := SymmetricPositiveDefinite(n, 5)
		l := spd.Clone()
		if err := Cholesky(l); err != nil {
			t.Fatal(err)
		}
		b0 := Random(rows, n, uint64(rows))
		var want *Matrix
		withParallelism(1, func() {
			want = b0.Clone()
			SolveXLT(want, l)
		})
		for _, par := range []int{2, 8} {
			got := b0.Clone()
			withParallelism(par, func() { SolveXLT(got, l) })
			if !bitEqual(got, want) {
				t.Errorf("rows=%d par=%d: SolveXLT parallel differs from serial", rows, par)
			}
		}
		// And it actually solves X·Lᵀ = B.
		rec := Mul(want, l.Transpose())
		if !Equal(rec, b0, 1e-8) {
			t.Errorf("rows=%d: X·Lᵀ ≠ B (max diff %g)", rows, maxDiff(rec, b0))
		}
	}
}

// TestMulVecIntoDeterministic checks the parallel row-band MulVec path.
func TestMulVecIntoDeterministic(t *testing.T) {
	for _, n := range []int{10, 300} {
		a := Random(n, n, uint64(n))
		x := RandomVec(n, 9)
		var want []float64
		withParallelism(1, func() { want = MulVec(a, x) })
		for _, par := range []int{2, 8} {
			var got []float64
			withParallelism(par, func() { got = MulVec(a, x) })
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d par=%d: MulVec differs at %d: %v vs %v", n, par, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCholeskyBlockedParallelBitIdentical: the full blocked factorization —
// panel, TRSM, SYRK — must give identical bits at any worker count.
func TestCholeskyBlockedParallelBitIdentical(t *testing.T) {
	a := SymmetricPositiveDefinite(150, 17)
	var want *Matrix
	withParallelism(1, func() {
		want = a.Clone()
		if err := CholeskyBlocked(want, 32, nil); err != nil {
			t.Fatal(err)
		}
	})
	for _, par := range []int{2, 8} {
		got := a.Clone()
		var err error
		withParallelism(par, func() { err = CholeskyBlocked(got, 32, nil) })
		if err != nil {
			t.Fatal(err)
		}
		if !bitEqual(got, want) {
			t.Errorf("par=%d: CholeskyBlocked differs from serial (max diff %g)", par, maxDiff(got, want))
		}
	}
}

// TestLUBlockedMatchesUnblocked: the blocked fast path must agree with the
// column-at-a-time reference to factorization roundoff and yield the same
// pivot sequence on well-separated data, and must be bit-identical to
// itself across worker counts.
func TestLUBlockedMatchesUnblocked(t *testing.T) {
	for _, n := range []int{96, 150, 224} {
		a := DiagonallyDominant(n, uint64(n)+55)
		ref := a.Clone()
		refPiv, err := luUnblocked(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want *Matrix
		var wantPiv []int
		withParallelism(1, func() {
			want = a.Clone()
			wantPiv, err = LU(want, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantPiv {
			if wantPiv[i] != refPiv[i] {
				t.Fatalf("n=%d: pivot %d differs: %d vs %d", n, i, wantPiv[i], refPiv[i])
			}
		}
		// Factors agree to roundoff and solve the same system.
		xTrue := RandomVec(n, 3)
		b := MulVec(a, xTrue)
		x := SolveLU(want, wantPiv, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("n=%d: blocked LU solve x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
		for _, par := range []int{2, 8} {
			got := a.Clone()
			withParallelism(par, func() { _, err = LU(got, nil) })
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(got, want) {
				t.Errorf("n=%d par=%d: blocked LU differs from serial", n, par)
			}
		}
	}
}

// TestLUBlockedSingular: the blocked path must still detect singularity.
func TestLUBlockedSingular(t *testing.T) {
	n := 120
	a := DiagonallyDominant(n, 8)
	// Make row 100 a copy of row 99: singular, discovered mid-panel.
	copy(a.Row(100), a.Row(99))
	if _, err := LU(a, nil); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

// TestSetParallelism exercises the knob contract.
func TestSetParallelism(t *testing.T) {
	old := SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Errorf("Parallelism() = %d, want 3", got)
	}
	if prev := SetParallelism(0); prev != 3 {
		t.Errorf("SetParallelism returned %d, want 3", prev)
	}
	if Parallelism() < 1 {
		t.Errorf("reset Parallelism() = %d, want >= 1", Parallelism())
	}
	SetParallelism(old)
}

// TestRowBands sanity-checks the deterministic partitioners.
func TestRowBands(t *testing.T) {
	for _, tc := range []struct{ rows, workers int }{{1, 8}, {7, 2}, {100, 3}, {64, 64}} {
		bands := rowBands(tc.rows, tc.workers)
		if len(bands) > tc.workers+1 {
			t.Errorf("rowBands(%d,%d): %d bands", tc.rows, tc.workers, len(bands))
		}
		next := 0
		for _, b := range bands {
			if b.lo != next || b.hi <= b.lo {
				t.Fatalf("rowBands(%d,%d) = %v: not a disjoint cover", tc.rows, tc.workers, bands)
			}
			next = b.hi
		}
		if next != tc.rows {
			t.Errorf("rowBands(%d,%d) covers %d rows", tc.rows, tc.workers, next)
		}
	}
	for _, tc := range []struct{ n, workers int }{{1, 4}, {50, 3}, {129, 8}} {
		bands := triBands(tc.n, tc.workers)
		next := 0
		for _, b := range bands {
			if b.lo != next || b.hi <= b.lo {
				t.Fatalf("triBands(%d,%d) = %v: not a disjoint cover", tc.n, tc.workers, bands)
			}
			next = b.hi
		}
		if next != tc.n {
			t.Errorf("triBands(%d,%d) covers %d rows", tc.n, tc.workers, next)
		}
	}
}
