package mat

import (
	"fmt"
	"unsafe"
)

// Arena owns the storage of one unit of work (a served request): it hands
// out zeroed buffers of either float type, and CSR indices, from the
// size-classed free lists the packed GEMM already recycles its panels
// through (kernel.go), remembers each one, and Release returns them all,
// each to its own type's class. The list it remembers them in is recycled
// too: Release hands it back with the buffers and the next arena's first
// hand-out takes it. A nil *Arena allocates from the heap instead, so code
// written against an arena runs unchanged where nobody owns the lifetime
// (standalone kernels, experiments, tests).
//
// An Arena is used by one goroutine. Nothing that outlives Release may alias
// memory obtained from it: after Release the next Arena's hand-outs are the
// same buffers. The zero value is an empty arena; an owner that can no
// longer vouch for its buffers (a panic unwound through the code writing
// them) overwrites it with the zero value, which leaves them, and the list
// naming them, to the GC.
type Arena struct {
	bufs []any // each a *[]T from getBuf[T]
}

// arenaLists recycles the arenas' bookkeeping slices, against the buffers'
// budget: a served request names a few dozen buffers, 16 bytes each.
var arenaLists = newSharedList[[]any](&bufBytes)

// keep records p as one of a's hand-outs.
func (a *Arena) keep(p any) {
	if a.bufs == nil {
		a.bufs, _ = arenaLists.Get()
	}
	a.bufs = append(a.bufs, p)
}

// FloatsIn returns a zeroed length-n slice of T from a.
func FloatsIn[T Float](a *Arena, n int) []T { return handOut[T](a, n) }

func handOut[T poolElem](a *Arena, n int) []T {
	if a == nil || n == 0 {
		return make([]T, n)
	}
	p := getZeroBuf[T](n)
	a.keep(p)
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

// Int32s returns a zeroed length-n int32 slice (CSR row pointers and column
// indices).
func (a *Arena) Int32s(n int) []int32 { return handOut[int32](a, n) }

// Release returns every buffer handed out so far to its class, and the list
// that named them to the next arena. The arena is empty afterwards, so a
// second Release is a no-op.
func (a *Arena) Release() {
	if a == nil || a.bufs == nil {
		return
	}
	for _, b := range a.bufs {
		switch p := b.(type) {
		case *[]float64:
			putBuf(p)
		case *[]float32:
			putBuf(p)
		case *[]int32:
			putBuf(p)
		}
	}
	clear(a.bufs)
	arenaLists.Put(a.bufs[:0], cap(a.bufs)*int(unsafe.Sizeof(a.bufs[0])))
	a.bufs = nil
}
