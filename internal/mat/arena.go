package mat

import "fmt"

// Arena owns the storage of one unit of work (a served request): it hands
// out zeroed buffers of either element type from the size-classed pools the
// packed GEMM already recycles its panels through (kernel.go), remembers
// each one, and Release returns them all, each to its own type's class. A
// nil *Arena allocates from the heap instead, so code written against an
// arena runs unchanged where nobody owns the lifetime (standalone kernels,
// experiments, tests).
//
// An Arena is used by one goroutine. Nothing that outlives Release may alias
// memory obtained from it: after Release the next Arena's hand-outs are the
// same buffers. The zero value is an empty arena; an owner that can no
// longer vouch for its buffers (a panic unwound through the code writing
// them) overwrites it with the zero value, which leaves them to the GC.
type Arena struct {
	bufs []any // each a *[]T from getBuf[T]
}

// FloatsIn returns a zeroed length-n slice of T from a.
func FloatsIn[T Float](a *Arena, n int) []T {
	if a == nil || n == 0 {
		return make([]T, n)
	}
	p := getZeroBuf[T](n)
	a.bufs = append(a.bufs, p)
	return *p
}

// NewIn returns a zeroed r×c matrix of T over storage from a.
func NewIn[T Float](a *Arena, r, c int) *Dense[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense[T]{Rows: r, Cols: c, Stride: c, Data: FloatsIn[T](a, r*c)}
}

// Floats returns a zeroed length-n float64 slice.
func (a *Arena) Floats(n int) []float64 { return FloatsIn[float64](a, n) }

// New returns a zeroed r×c float64 matrix over arena storage.
func (a *Arena) New(r, c int) *Matrix { return NewIn[float64](a, r, c) }

// Release returns every buffer handed out so far to its pool class. The
// arena is empty afterwards, so a second Release is a no-op.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for _, b := range a.bufs {
		switch p := b.(type) {
		case *[]float64:
			putBuf(p)
		case *[]float32:
			putBuf(p)
		}
	}
	a.bufs = nil
}
