// Package mat provides the dense linear algebra substrate used by the ABFT
// kernels: a row-major matrix type generic over its element type (float64
// for the paper's kernels, float32 for the mixed-precision serving tier),
// one packed matrix multiplication shared by both, Cholesky factorization,
// LU factorization with partial pivoting, triangular solves, and the vector
// operations needed by conjugate gradient.
//
// It is written from scratch (no external BLAS) because the ABFT algorithms
// in this repository need to interleave checksum maintenance and verification
// with the factorization steps, and because the simulator needs to observe
// every element access through probe hooks (see package trace).
package mat

import (
	"fmt"
	"math"
)

// Float is the set of element types the matrix and GEMM layers are
// instantiated at.
type Float interface{ ~float32 | ~float64 }

// Dense is a dense row-major matrix of T.
type Dense[T Float] struct {
	Rows, Cols int
	// Stride is the distance in elements between vertically adjacent
	// elements. For a freshly allocated matrix Stride == Cols; views share
	// the parent's stride.
	Stride int
	Data   []T
}

// Matrix is the float64 matrix every factorization and the paper's ABFT
// kernels run on.
type Matrix = Dense[float64]

// Matrix32 is the storage type of the mixed-precision serving path
// (ML-inference GEMM shapes). Arithmetic on it runs in float32; the ABFT
// checksums guarding it are accumulated in float64 by the fused kernel (see
// fused.go), so detection precision does not degrade with the data
// precision.
type Matrix32 = Dense[float32]

func newDense[T Float](r, c int) *Dense[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense[T]{Rows: r, Cols: c, Stride: c, Data: make([]T, r*c)}
}

// New returns a zeroed r×c matrix.
func New(r, c int) *Matrix { return newDense[float64](r, c) }

// New32 returns a zeroed r×c float32 matrix.
func New32(r, c int) *Matrix32 { return newDense[float32](r, c) }

// FromSlice wraps data (row-major, len r*c) in a Matrix without copying.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice: len(data)=%d, want %d", len(data), r*c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: data}
}

// At returns the element at row i, column j.
func (m *Dense[T]) At(i, j int) T { return m.Data[i*m.Stride+j] }

// Set assigns the element at row i, column j.
func (m *Dense[T]) Set(i, j int, v T) { m.Data[i*m.Stride+j] = v }

// Add adds v to the element at row i, column j.
func (m *Dense[T]) Add(i, j int, v T) { m.Data[i*m.Stride+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense[T]) Row(i int) []T { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// View returns an r×c submatrix starting at (i, j) sharing storage with m.
func (m *Dense[T]) View(i, j, r, c int) *Dense[T] {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("mat: View(%d,%d,%d,%d) out of bounds for %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	if r == 0 || c == 0 {
		return &Dense[T]{Rows: r, Cols: c, Stride: m.Stride}
	}
	off := i*m.Stride + j
	end := (i+r-1)*m.Stride + j + c
	return &Dense[T]{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[off:end]}
}

// Clone returns a deep copy of m with a compact stride.
func (m *Dense[T]) Clone() *Dense[T] {
	out := newDense[T](m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// To64 returns a float64 copy of m (the oracle-side representation of a
// float32 matrix).
func (m *Dense[T]) To64() *Matrix { return m.To64In(nil) }

// To64In is To64 with the copy's storage taken from a.
func (m *Dense[T]) To64In(a *Arena) *Matrix {
	out := a.New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src, dst := m.Row(i), out.Row(i)
		for j, v := range src {
			dst[j] = float64(v)
		}
	}
	return out
}

// CopyFrom copies src into m; dimensions must match.
func (m *Dense[T]) CopyFrom(src *Dense[T]) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("mat: CopyFrom dimension mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), src.Row(i))
	}
}

// Zero sets every element of m to zero.
func (m *Dense[T]) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Eye returns the n×n identity matrix.
func Eye(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense[T]) Transpose() *Dense[T] {
	out := newDense[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Equal reports whether a and b have the same shape and elements within tol.
// A NaN on either side is a difference.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if !rowsEqual(a.Row(i), b.Row(i), tol) {
			return false
		}
	}
	return true
}

// EqualLower is Equal over the lower triangles (diagonal included) of two
// square matrices; what either holds above the diagonal is not read.
func EqualLower(a, b *Matrix, tol float64) bool {
	if a.Rows != a.Cols || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if !rowsEqual(a.Row(i)[:i+1], b.Row(i)[:i+1], tol) {
			return false
		}
	}
	return true
}

// rowsEqual is written as !(|x−y| <= tol) so that a NaN difference, which
// fails every ordered comparison, counts as a mismatch.
func rowsEqual(x, y []float64, tol float64) bool {
	for j, v := range x {
		if !(math.Abs(v-y[j]) <= tol) {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute value in m (0 for an empty matrix).
func (m *Dense[T]) MaxAbs() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if a := math.Abs(float64(v)); a > max {
				max = a
			}
		}
	}
	return max
}

// String renders small matrices for debugging.
func (m *Dense[T]) String() string {
	if m.Rows*m.Cols > 400 {
		return fmt.Sprintf("Matrix{%dx%d}", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("%10.4g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// SymmetricPositiveDefinite builds a well-conditioned SPD n×n matrix
// deterministically from seed: A = B Bᵀ + n·I with B pseudo-random in [0,1).
func SymmetricPositiveDefinite(n int, seed uint64) *Matrix {
	a := New(n, n)
	FillSPD(a, New(n, n), seed)
	return a
}

// FillSPD overwrites the square matrix a with SymmetricPositiveDefinite's
// matrix for (a.Rows, seed), drawing B into the same-shaped scratch b.
// B·Bᵀ is symmetric bit for bit (elements (i, j) and (j, i) sum the same
// products in the same ascending-k order), so only its lower triangle is
// computed and the upper is its mirror.
func FillSPD(a, b *Matrix, seed uint64) {
	n := a.Rows
	FillRandom(b, seed)
	a.Zero()
	SyrkLowerAdd(a, b, false)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		for j := 0; j < i; j++ {
			a.Data[j*a.Stride+i] = row[j]
		}
		row[i] += float64(n)
	}
}

// FillRandom overwrites m, row by row, with the SplitMix64 stream of seed:
// each entry is the float64 draw in [0, 1) converted to T, so every element
// type sees the same stream for the same seed, and filling a view of a
// larger matrix yields the elements Random would have.
func FillRandom[T Float](m *Dense[T], seed uint64) {
	s := seed
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			s += 0x9e3779b97f4a7c15
			z := s
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			row[j] = T(float64(z>>11) / float64(1<<53))
		}
	}
}

func random[T Float](r, c int, seed uint64) *Dense[T] {
	m := newDense[T](r, c)
	FillRandom(m, seed)
	return m
}

// Random returns an r×c matrix with deterministic pseudo-random entries in
// [0, 1), generated from seed with a SplitMix64 stream.
func Random(r, c int, seed uint64) *Matrix { return random[float64](r, c, seed) }

// Random32 is elementwise float32(Random(r, c, seed)), so seeds are
// interchangeable across precisions.
func Random32(r, c int, seed uint64) *Matrix32 { return random[float32](r, c, seed) }

// DiagonallyDominant builds a nonsingular n×n matrix suitable for LU with
// partial pivoting: random entries with the diagonal boosted by n.
func DiagonallyDominant(n int, seed uint64) *Matrix {
	m := Random(n, n, seed)
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}
