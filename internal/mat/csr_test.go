package mat

import (
	"math"
	"testing"
)

func TestPoisson2DStructure(t *testing.T) {
	a := Poisson2D(3, 3)
	if a.N != 9 {
		t.Fatalf("N = %d", a.N)
	}
	// Interior point (1,1) = row 4 has 5 entries; corner row 0 has 3.
	if got := a.RowPtr[5] - a.RowPtr[4]; got != 5 {
		t.Errorf("interior row nnz = %d", got)
	}
	if got := a.RowPtr[1] - a.RowPtr[0]; got != 3 {
		t.Errorf("corner row nnz = %d", got)
	}
	d := a.Diag()
	for i, v := range d {
		if v != 4 {
			t.Errorf("diag[%d] = %v", i, v)
		}
	}
}

func TestPoisson2DSymmetricSPD(t *testing.T) {
	a := Poisson2D(4, 5).Dense()
	if !Equal(a, a.Transpose(), 0) {
		t.Error("Poisson2D not symmetric")
	}
	l := a.Clone()
	if err := Cholesky(l); err != nil {
		t.Errorf("Poisson2D not SPD: %v", err)
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	a := Poisson2D(5, 4)
	d := a.Dense()
	x := RandomVec(a.N, 3)
	y := make([]float64, a.N)
	a.MulVecInto(y, x)
	want := MulVec(d, x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestCSRRowDot(t *testing.T) {
	a := Poisson2D(4, 4)
	x := RandomVec(a.N, 9)
	y := make([]float64, a.N)
	a.MulVecInto(y, x)
	for i := 0; i < a.N; i++ {
		if math.Abs(a.RowDot(i, x)-y[i]) > 1e-12 {
			t.Fatalf("RowDot(%d) mismatch", i)
		}
	}
}

func TestCSRMulVecShapePanics(t *testing.T) {
	a := Poisson2D(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.MulVecInto(make([]float64, 4), make([]float64, 3))
}

func TestCSRColumnsSorted(t *testing.T) {
	a := Poisson2D(6, 7)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] <= a.Col[k-1] {
				t.Fatalf("row %d columns unsorted", i)
			}
		}
	}
}

// TestPoisson2DSizedOnce: the stencil's nonzero count is 5n − 2nx − 2ny, and
// the arrays are allocated at exactly that size, not grown into it.
func TestPoisson2DSizedOnce(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {1, 6}, {3, 3}, {24, 24}, {7, 40}, {0, 3}} {
		nx, ny := g[0], g[1]
		a := Poisson2D(nx, ny)
		want := max(5*nx*ny-2*nx-2*ny, 0)
		if a.NNZ() != want || len(a.Col) != want {
			t.Errorf("%dx%d: nnz %d / %d columns, want %d", nx, ny, a.NNZ(), len(a.Col), want)
		}
		if cap(a.Val) != want || cap(a.Col) != want || cap(a.RowPtr) != nx*ny+1 {
			t.Errorf("%dx%d: caps val %d col %d rowptr %d, want %d %d %d",
				nx, ny, cap(a.Val), cap(a.Col), cap(a.RowPtr), want, want, nx*ny+1)
		}
		if Poisson2DNNZ(nx, ny) != want {
			t.Errorf("%dx%d: Poisson2DNNZ = %d, want %d", nx, ny, Poisson2DNNZ(nx, ny), want)
		}
	}
}

// TestPoisson2DIntoDirtyStorage: built into NaN-filled storage, the stencil
// is the 5-point operator written out densely on its own (4 on the diagonal,
// −1 to each grid neighbor), and its Val, RowPtr and Col are the caller's
// slices. Storage of the wrong length, any of the three, is refused.
func TestPoisson2DIntoDirtyStorage(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {4, 4}, {17, 9}, {9, 17}} {
		nx, ny := g[0], g[1]
		want := New(nx*ny, nx*ny)
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				i := y*nx + x
				want.Set(i, i, 4)
				for _, nb := range [][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
					if nb[0] >= 0 && nb[0] < nx && nb[1] >= 0 && nb[1] < ny {
						want.Set(i, nb[1]*nx+nb[0], -1)
					}
				}
			}
		}
		nnz := Poisson2DNNZ(nx, ny)
		val, rowPtr, col := make([]float64, nnz), make([]int32, nx*ny+1), make([]int32, nnz)
		for i := range val {
			val[i], col[i] = math.NaN(), -7
		}
		for i := range rowPtr {
			rowPtr[i] = -7
		}
		got := Poisson2DInto(val, rowPtr, col, nx, ny)
		if &got.Val[0] != &val[0] || &got.RowPtr[0] != &rowPtr[0] || &got.Col[0] != &col[0] {
			t.Fatalf("%dx%d: Val, RowPtr or Col is not the caller's storage", nx, ny)
		}
		if !Equal(got.Dense(), want, 0) {
			t.Errorf("%dx%d: stencil differs from the dense 5-point operator", nx, ny)
		}
	}
	nnz := Poisson2DNNZ(4, 4)
	for _, short := range [][3]int{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Poisson2DInto accepted storage one entry short (val, rowPtr, col short by %v)", short)
				}
			}()
			Poisson2DInto(make([]float64, nnz-short[0]), make([]int32, 17-short[1]), make([]int32, nnz-short[2]), 4, 4)
		}()
	}
}
