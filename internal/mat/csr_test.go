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
	}
}
