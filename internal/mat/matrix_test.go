package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %+v", m)
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Errorf("At(1,2) = %v, want 7.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 8 {
		t.Errorf("after Add, At(1,2) = %v, want 8", got)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestViewSharesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 1) != 9 {
		t.Errorf("view write did not propagate: m[1][1] = %v", m.At(1, 1))
	}
	if v.Stride != m.Stride {
		t.Errorf("view stride %d, want %d", v.Stride, m.Stride)
	}
}

func TestViewBounds(t *testing.T) {
	m := New(4, 4)
	for _, c := range [][4]int{{3, 3, 2, 2}, {-1, 0, 1, 1}, {0, 0, 5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("View(%v) did not panic", c)
				}
			}()
			m.View(c[0], c[1], c[2], c[3])
		}()
	}
	// Zero-size views are legal.
	z := m.View(2, 2, 0, 0)
	if z.Rows != 0 || z.Cols != 0 {
		t.Errorf("zero view = %dx%d", z.Rows, z.Cols)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := Random(3, 3, 1)
	c := m.Clone()
	c.Set(0, 0, 1e9)
	if m.At(0, 0) == 1e9 {
		t.Error("Clone shares storage with original")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Errorf("Transpose wrong: %v", tr)
	}
}

func TestEye(t *testing.T) {
	e := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if e.At(i, j) != want {
				t.Errorf("Eye[%d][%d] = %v", i, j, e.At(i, j))
			}
		}
	}
}

// TestFillRandomMatchesRandom: one stream, wherever it is written. Filling a
// strided view of a larger matrix produces Random's elements and touches
// nothing outside the view, for both element types.
func TestFillRandomMatchesRandom(t *testing.T) {
	const r, c, seed = 7, 5, 99
	want := Random(r, c, seed)
	host := New(r+2, c+3)
	for i := range host.Data {
		host.Data[i] = -1
	}
	FillRandom(host.View(1, 2, r, c), seed)
	for i := 0; i < host.Rows; i++ {
		for j := 0; j < host.Cols; j++ {
			w := -1.0
			if i >= 1 && i <= r && j >= 2 && j < 2+c {
				w = want.At(i-1, j-2)
			}
			if host.At(i, j) != w {
				t.Fatalf("host(%d,%d) = %g, want %g", i, j, host.At(i, j), w)
			}
		}
	}
	m32 := New32(r, c)
	FillRandom(m32, seed)
	for i, v := range Random32(r, c, seed).Data {
		if m32.Data[i] != v || v != float32(want.Data[i]) {
			t.Fatalf("f32 element %d: fill %g, Random32 %g, float32(Random) %g", i, m32.Data[i], v, float32(want.Data[i]))
		}
	}
}

// TestSymmetricPositiveDefiniteBits pins the SYRK-and-mirror construction to
// the bits of the definition it replaced: the full product B·Bᵀ through
// MulInto against a materialised transpose, plus n on the diagonal.
func TestSymmetricPositiveDefiniteBits(t *testing.T) {
	for _, n := range []int{5, 64, 100, 128, 193} {
		b := Random(n, n, uint64(n)+3)
		want := New(n, n)
		MulInto(want, b, b.Transpose())
		for i := 0; i < n; i++ {
			want.Add(i, i, float64(n))
		}
		for _, par := range []int{1, 2} {
			var got *Matrix
			withParallelism(par, func() { got = SymmetricPositiveDefinite(n, uint64(n)+3) })
			if !bitEqual(got, want) {
				t.Errorf("n=%d par=%d: SymmetricPositiveDefinite differs from B·Bᵀ + n·I", n, par)
			}
		}
		// FillSPD overwrites whatever its destination held.
		dirty, scratch := Random(n, n, 1), Random(n, n, 2)
		FillSPD(dirty, scratch, uint64(n)+3)
		if !bitEqual(dirty, want) {
			t.Errorf("n=%d: FillSPD into a dirty matrix differs", n)
		}
	}
}

// TestEqualTreatsNaNAsDifferent: |x − y| > tol is false for a NaN
// difference, so Equal is written the other way round; a NaN anywhere, on
// either side, must make the matrices unequal at every tolerance.
func TestEqualTreatsNaNAsDifferent(t *testing.T) {
	clean := Random(4, 4, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dirty := clean.Clone()
		dirty.Set(2, 1, bad) // lower triangle, so EqualLower reads it too
		for _, tol := range []float64{0, 1e-9, math.MaxFloat64} {
			if Equal(dirty, clean, tol) || Equal(clean, dirty, tol) {
				t.Errorf("Equal(tol=%g) accepts a matrix holding %g", tol, bad)
			}
			if EqualLower(dirty, clean, tol) || EqualLower(clean, dirty, tol) {
				t.Errorf("EqualLower(tol=%g) accepts a matrix holding %g", tol, bad)
			}
		}
	}
	upper := clean.Clone()
	upper.Set(1, 2, math.NaN())
	if !EqualLower(upper, clean, 0) {
		t.Error("EqualLower reads above the diagonal")
	}
	if !Equal(clean, clean.Clone(), 0) || Equal(clean, New(4, 5), 1) {
		t.Error("Equal lost its shape and identity behaviour")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, 42)
	b := Random(4, 4, 42)
	if !Equal(a, b, 0) {
		t.Error("Random with same seed differs")
	}
	c := Random(4, 4, 43)
	if Equal(a, c, 0) {
		t.Error("Random with different seed is identical")
	}
	for _, v := range a.Data {
		if v < 0 || v >= 1 {
			t.Fatalf("Random value %v out of [0,1)", v)
		}
	}
}

func TestMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := FromSlice(2, 2, []float64{58, 64, 139, 154})
	if !Equal(c, want, 1e-12) {
		t.Errorf("Mul = %v, want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	a := Random(17, 17, 5) // non-multiple of block size
	c := Mul(a, Eye(17))
	if !Equal(c, a, 1e-12) {
		t.Error("A·I ≠ A")
	}
	c2 := Mul(Eye(17), a)
	if !Equal(c2, a, 1e-12) {
		t.Error("I·A ≠ A")
	}
}

func TestMulBlockedMatchesNaive(t *testing.T) {
	// Cross-check the blocked kernel against a naive triple loop on a size
	// that spans multiple blocks.
	a := Random(70, 65, 1)
	b := Random(65, 73, 2)
	c := Mul(a, b)
	naive := New(70, 73)
	for i := 0; i < 70; i++ {
		for j := 0; j < 73; j++ {
			s := 0.0
			for k := 0; k < 65; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			naive.Set(i, j, s)
		}
	}
	if !Equal(c, naive, 1e-9) {
		t.Error("blocked Mul disagrees with naive")
	}
}

func TestMulVec(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	y := MulVec(a, []float64{5, 6})
	if y[0] != 17 || y[1] != 39 {
		t.Errorf("MulVec = %v, want [17 39]", y)
	}
}

func TestMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestCholeskyReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		a := SymmetricPositiveDefinite(n, uint64(n))
		l := a.Clone()
		if err := Cholesky(l); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rec := Mul(l, l.Transpose())
		if !Equal(rec, a, 1e-8*float64(n)) {
			t.Errorf("n=%d: L·Lᵀ ≠ A (max diff %g)", n, maxDiff(rec, a))
		}
	}
}

func TestCholeskyBlockedMatchesUnblocked(t *testing.T) {
	for _, n := range []int{7, 32, 50} {
		a := SymmetricPositiveDefinite(n, 9)
		ref := a.Clone()
		if err := Cholesky(ref); err != nil {
			t.Fatal(err)
		}
		for _, blk := range []int{1, 8, 16, 64} {
			got := a.Clone()
			if err := CholeskyBlocked(got, blk, nil); err != nil {
				t.Fatalf("n=%d blk=%d: %v", n, blk, err)
			}
			if !Equal(got, ref, 1e-8) {
				t.Errorf("n=%d blk=%d: blocked ≠ unblocked", n, blk)
			}
		}
	}
}

func TestCholeskyStepHook(t *testing.T) {
	a := SymmetricPositiveDefinite(20, 3)
	var steps []int
	err := CholeskyBlocked(a, 8, func(done int) error {
		steps = append(steps, done)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 16, 20}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("steps = %v, want %v", steps, want)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, −1
	if err := Cholesky(a); err != ErrNotPositiveDefinite {
		t.Errorf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestLUSolve(t *testing.T) {
	for _, n := range []int{1, 3, 10, 40} {
		a := DiagonallyDominant(n, uint64(n)+100)
		xTrue := RandomVec(n, 7)
		b := MulVec(a, xTrue)
		lu := a.Clone()
		piv, err := LU(lu, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := SolveLU(lu, piv, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], xTrue[i])
			}
		}
	}
}

func TestLUPivots(t *testing.T) {
	// A matrix that requires pivoting: zero in the (0,0) position.
	a := FromSlice(2, 2, []float64{0, 1, 1, 0})
	lu := a.Clone()
	piv, err := LU(lu, nil)
	if err != nil {
		t.Fatal(err)
	}
	if piv[0] != 1 {
		t.Errorf("piv[0] = %d, want 1", piv[0])
	}
	x := SolveLU(lu, piv, []float64{2, 3})
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 4})
	if _, err := LU(a, nil); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestTriangularSolves(t *testing.T) {
	n := 12
	a := SymmetricPositiveDefinite(n, 11)
	l := a.Clone()
	if err := Cholesky(l); err != nil {
		t.Fatal(err)
	}
	xTrue := RandomVec(n, 13)
	// L·y = b, then Lᵀ·x = y should solve A·x = b.
	b := MulVec(a, xTrue)
	y := SolveLower(l, b)
	x := SolveUpperT(l, y)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCGSolves(t *testing.T) {
	for _, n := range []int{2, 10, 60} {
		a := SymmetricPositiveDefinite(n, uint64(n))
		xTrue := RandomVec(n, 21)
		b := MulVec(a, xTrue)
		res, err := CG(a, b, 1e-12, 10*n)
		if err != nil {
			t.Fatalf("n=%d: %v (res %g after %d iters)", n, err, res.Residual, res.Iterations)
		}
		for i := range res.X {
			if math.Abs(res.X[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, res.X[i], xTrue[i])
			}
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := SymmetricPositiveDefinite(5, 1)
	res, err := CG(a, make([]float64, 5), 1e-12, 50)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(res.X) > 1e-12 {
		t.Errorf("CG(A, 0) returned nonzero x: %v", res.X)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if d := Dot(x, y); d != 32 {
		t.Errorf("Dot = %v, want 32", d)
	}
	z := Sub(y, x)
	if z[0] != 3 || z[1] != 3 || z[2] != 3 {
		t.Errorf("Sub = %v", z)
	}
	Axpy(2, x, y)
	if y[0] != 6 || y[2] != 12 {
		t.Errorf("Axpy = %v", y)
	}
	if s := Sum(x); s != 6 {
		t.Errorf("Sum = %v, want 6", s)
	}
	if n := NormInf([]float64{-5, 2}); n != 5 {
		t.Errorf("NormInf = %v, want 5", n)
	}
	Scale(0.5, x)
	if x[1] != 1 {
		t.Errorf("Scale = %v", x)
	}
	o := Ones(3)
	if Sum(o) != 3 {
		t.Errorf("Ones = %v", o)
	}
}

// Property: (A·B)·C == A·(B·C) for random small matrices.
func TestMulAssociativityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 3 + int(seed%8)
		a := Random(n, n, seed)
		b := Random(n, n, seed+1)
		c := Random(n, n, seed+2)
		l := Mul(Mul(a, b), c)
		r := Mul(a, Mul(b, c))
		return Equal(l, r, 1e-9*float64(n*n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: checksum invariance — colsum(A·B) == (eᵀA)·B. This is the
// algebraic foundation of ABFT-DGEMM.
func TestChecksumInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%10)
		a := Random(n, n, seed)
		b := Random(n, n, seed^0xabcdef)
		c := Mul(a, b)
		e := Ones(n)
		eta := MulVec(a.Transpose(), e) // eᵀA
		lhs := MulVec(b.Transpose(), eta)
		for j := 0; j < n; j++ {
			col := 0.0
			for i := 0; i < n; i++ {
				col += c.At(i, j)
			}
			if math.Abs(col-lhs[j]) > 1e-9*float64(n*n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: LU solve reproduces the RHS.
func TestLUSolveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 2 + int(seed%12)
		a := DiagonallyDominant(n, seed)
		x := RandomVec(n, seed+5)
		b := MulVec(a, x)
		lu := a.Clone()
		piv, err := LU(lu, nil)
		if err != nil {
			return false
		}
		got := SolveLU(lu, piv, b)
		for i := range got {
			if math.Abs(got[i]-x[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func maxDiff(a, b *Matrix) float64 {
	d := 0.0
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if v := math.Abs(a.At(i, j) - b.At(i, j)); v > d {
				d = v
			}
		}
	}
	return d
}
