package mat

import "fmt"

// CSR is a sparse matrix in compressed sparse row format, used by the
// conjugate gradient kernels. CG is the paper's memory-intensive workload;
// a sparse operator gives it the low arithmetic intensity (and the
// ABFT-to-other reference ratio) the evaluation relies on.
type CSR struct {
	N      int // square dimension
	RowPtr []int32
	Col    []int32
	Val    []float64
}

// NNZ returns the number of stored nonzeros.
func (a *CSR) NNZ() int { return len(a.Val) }

// MulVecInto computes y = a·x.
func (a *CSR) MulVecInto(y, x []float64) {
	if len(x) != a.N || len(y) != a.N {
		panic(fmt.Sprintf("mat: CSR MulVecInto dims y[%d] x[%d] for n=%d", len(y), len(x), a.N))
	}
	for i := 0; i < a.N; i++ {
		s := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += a.Val[k] * x[a.Col[k]]
		}
		y[i] = s
	}
}

// Diag extracts the diagonal (the Jacobi preconditioner M).
func (a *CSR) Diag() []float64 {
	d := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) == i {
				d[i] = a.Val[k]
			}
		}
	}
	return d
}

// Poisson2DNNZ returns the nonzero count of Poisson2D(nx, ny): five entries
// per node less the neighbors the four edges lack.
func Poisson2DNNZ(nx, ny int) int { return max(5*nx*ny-2*nx-2*ny, 0) }

// Poisson2D builds the standard 5-point stencil discretization of the
// Poisson equation on an nx×ny grid: SPD, 4 on the diagonal, −1 to each
// neighbor. This is the classic CG benchmark operator.
func Poisson2D(nx, ny int) *CSR {
	nnz := Poisson2DNNZ(nx, ny)
	return Poisson2DInto(make([]float64, nnz), make([]int32, nx*ny+1), make([]int32, nnz), nx, ny)
}

// Poisson2DInto builds Poisson2D(nx, ny) over the caller's storage: val and
// col must hold exactly Poisson2DNNZ(nx, ny) entries and rowPtr nx·ny+1, and
// they become the result's Val, Col and RowPtr. A caller whose values live
// in metered or recycled storage builds the operator there instead of
// copying it in. Every entry is overwritten, so the storage may arrive
// dirty.
func Poisson2DInto(val []float64, rowPtr, col []int32, nx, ny int) *CSR {
	n, nnz := nx*ny, Poisson2DNNZ(nx, ny)
	if len(val) != nnz || len(col) != nnz || len(rowPtr) != n+1 {
		panic(fmt.Sprintf("mat: Poisson2DInto val[%d] col[%d] rowPtr[%d] for a %dx%d grid (%d nonzeros)",
			len(val), len(col), len(rowPtr), nx, ny, nnz))
	}
	a := &CSR{N: n, RowPtr: rowPtr, Col: col, Val: val}
	a.RowPtr[0] = 0
	k := 0
	put := func(j int, v float64) {
		a.Col[k], a.Val[k] = int32(j), v
		k++
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			// Keep column indices sorted: S, W, C, E, N.
			i := y*nx + x
			if y > 0 {
				put(i-nx, -1)
			}
			if x > 0 {
				put(i-1, -1)
			}
			put(i, 4)
			if x < nx-1 {
				put(i+1, -1)
			}
			if y < ny-1 {
				put(i+nx, -1)
			}
			a.RowPtr[i+1] = int32(k)
		}
	}
	return a
}

// Dense expands the CSR matrix (for small test cross-checks).
func (a *CSR) Dense() *Matrix {
	m := New(a.N, a.N)
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			m.Set(i, int(a.Col[k]), a.Val[k])
		}
	}
	return m
}
