package mat

import "fmt"

// gemmBlock is the cache-blocking factor for the small-problem fallback
// loop. 64 float64 = one 4KB tile per operand pair at 64×64, comfortably
// inside the modeled L1.
const gemmBlock = 64

// Mul returns a×b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	MulInto(c, a, b)
	return c
}

// MulInto computes c = a×b. c must not alias a or b.
func MulInto(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulInto shape mismatch: c %dx%d = a %dx%d × b %dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c.Zero()
	MulAddInto(c, a, b)
}

// MulAddInto computes c += a×b through the packed micro-kernel (kernel.go),
// parallel over row bands for large problems and serial below the
// threshold. Every element accumulates its k-products in ascending order,
// in T, so the result is bit-identical to a naive triple loop — including
// NaN/Inf propagation: a zero in a times a NaN/Inf in b contributes NaN,
// never a silent skip — at any blocking or parallelism.
func MulAddInto[T Float](c, a, b *Dense[T]) {
	checkShape(c, a, b, "MulAddInto")
	mulAdd(c, a, b, 1, false)
}

// MulAddInto32 is the name the float32 callers use.
func MulAddInto32(c, a, b *Matrix32) { MulAddInto(c, a, b) }

func checkShape[T Float](c, a, b *Dense[T], name string) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch: c %dx%d += a %dx%d × b %dx%d",
			name, c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MulVec returns a·x for an a.Rows-length result.
func MulVec(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	MulVecInto(y, a, x)
	return y
}

// MulVecInto computes y = a·x, parallel over row bands when the problem is
// large enough; each row's dot product is a single serial pass, so the
// result is bit-identical at any worker count.
func MulVecInto(y []float64, a *Matrix, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic(fmt.Sprintf("mat: MulVecInto shape mismatch: y[%d] = a %dx%d · x[%d]",
			len(y), a.Rows, a.Cols, len(x)))
	}
	workers := workersFor(a.Rows, 2*a.Rows*a.Cols)
	if workers <= 1 {
		mulVecRows(y, a, x, 0, a.Rows)
		return
	}
	am := *a // the bands read a copy of the header, so a itself stays the caller's
	runBands(rowBands(a.Rows, workers), func(lo, hi int) { mulVecRows(y, &am, x, lo, hi) })
}

// mulVecRows computes rows [lo, hi) of y = a·x.
func mulVecRows(y []float64, a *Matrix, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a.Data[i*a.Stride : i*a.Stride+a.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}
