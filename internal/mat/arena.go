package mat

import "fmt"

// Arena owns the float64 storage of one unit of work (a served request): it
// hands out zeroed buffers from the size-classed pools the packed GEMM
// already recycles its panels through (kernel.go), remembers each one, and
// Release returns them all. A nil *Arena allocates from the heap instead, so
// code written against an arena runs unchanged where nobody owns the
// lifetime (standalone kernels, experiments, tests).
//
// An Arena is used by one goroutine. Nothing that outlives Release may alias
// memory obtained from it: after Release the next Arena's hand-outs are the
// same buffers.
type Arena struct {
	bufs []*[]float64
}

// Floats returns a zeroed length-n slice.
func (a *Arena) Floats(n int) []float64 {
	if a == nil || n == 0 {
		return make([]float64, n)
	}
	p := getZeroBuf(n)
	a.bufs = append(a.bufs, p)
	return *p
}

// New returns a zeroed r×c matrix over arena storage.
func (a *Arena) New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Stride: c, Data: a.Floats(r * c)}
}

// Release returns every buffer handed out so far to its pool class. The
// arena is empty afterwards, so a second Release is a no-op.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	for _, p := range a.bufs {
		putBuf(p)
	}
	a.bufs = nil
}
