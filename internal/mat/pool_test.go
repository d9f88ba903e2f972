package mat

import (
	"math"
	"runtime"
	"testing"
)

// testBufPoolClassRoundTrip: buffers come back from the class they were
// put into, lengths are honored, and odd sizes round up to the class cap.
func testBufPoolClassRoundTrip[T Float](t *testing.T) {
	for _, n := range []int{1, 2, 3, 100, 1 << 10, 1<<10 + 1, kcBlock * ncBlock} {
		p := getBuf[T](n)
		if len(*p) != n {
			t.Fatalf("getBuf(%d): len %d", n, len(*p))
		}
		if c := cap(*p); c&(c-1) != 0 || c < n {
			t.Fatalf("getBuf(%d): cap %d not a power of two >= n", n, c)
		}
		putBuf(p)
	}
	// A foreign buffer with a non-power-of-two cap is dropped, not pooled.
	odd := make([]T, 100, 100)
	putBuf(&odd) // must not panic; nothing to assert beyond that
	// A buffer put back outlives collections: the next Get of its class,
	// two collections later, is the same buffer.
	p := getBuf[T](100)
	putBuf(p)
	runtime.GC()
	runtime.GC()
	if q := getBuf[T](100); q != p {
		t.Error("a recycled buffer did not survive two collections")
	} else {
		putBuf(q)
	}
}

func TestBufPoolClassRoundTrip(t *testing.T) {
	t.Run("f64", testBufPoolClassRoundTrip[float64])
	t.Run("f32", testBufPoolClassRoundTrip[float32])
	// The element types' pools are separate: alternating float32 and float64
	// requests of one class must each find their own buffer again, where a
	// shared set would hand each the other's and allocate on every Get.
	mixed := func() {
		putBuf(getBuf[float32](100))
		putBuf(getBuf[float64](100))
	}
	mixed() // seed both classes
	if allocs := testing.AllocsPerRun(10, mixed); allocs != 0 {
		t.Errorf("alternating f32/f64 pool round trips allocate %.0f times per run, want 0", allocs)
	}
	// An Arena is one more client of both sets: what Release puts back is
	// what the next arena (or a packing pass) of that type and class gets,
	// and neither type's traffic lands in, or evicts, the other's set: a
	// buffer returned to the wrong set would miss on every later Get.
	// 129×129 lives in the 2¹⁵ class.
	arenaTrip := func() {
		var a Arena
		a.New(129, 129)
		NewIn[float32](&a, 129, 129)
		a.Floats(100)
		FloatsIn[float32](&a, 100)
		a.Release()
	}
	arenaTrip()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		arenaTrip()
	}
	runtime.ReadMemStats(&after)
	// Two matrix headers are all a trip may allocate (the arena's list is
	// recycled with its buffers); one missed buffer would be 64 KiB or more.
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 1024 {
		t.Errorf("two-type arena round trips allocate %d B per trip, want only headers", per)
	}
	p64, p32 := getBuf[float64](1<<15), getBuf[float32](1<<15)
	if cap(*p64) != 1<<15 || cap(*p32) != 1<<15 {
		t.Errorf("2^15-class buffers have cap %d (f64) and %d (f32)", cap(*p64), cap(*p32))
	}
	putBuf(p64)
	putBuf(p32)
}

// testArena covers the arena's contract for one element type: zeroed
// hand-outs even from dirty pooled buffers, exact lengths, an idempotent
// Release, and the nil arena as plain heap allocation.
func testArena[T Float](t *testing.T) {
	sizes := []int{0, 1, 100, 129 * 129, 1<<10 + 1}
	nan := T(math.NaN())
	dirty := func() {
		for _, n := range sizes {
			p := getBuf[T](max(n, 1))
			for i := range (*p)[:cap(*p)] {
				(*p)[:cap(*p)][i] = nan
			}
			putBuf(p)
		}
	}
	for _, a := range []*Arena{nil, {}} {
		dirty()
		for _, n := range sizes {
			f := FloatsIn[T](a, n)
			if len(f) != n {
				t.Fatalf("FloatsIn(%d): len %d", n, len(f))
			}
			for i, v := range f {
				if v != 0 {
					t.Fatalf("FloatsIn(%d)[%d] = %g from a dirty pool, want 0", n, i, v)
				}
			}
			for i := range f {
				f[i] = 7 // dirty it again for the next hand-out
			}
		}
		m := NewIn[T](a, 3, 5)
		if m.Rows != 3 || m.Cols != 5 || m.Stride != 5 || len(m.Data) != 15 || m.MaxAbs() != 0 {
			t.Fatalf("NewIn(3, 5) = %dx%d stride %d len %d max %g", m.Rows, m.Cols, m.Stride, len(m.Data), m.MaxAbs())
		}
		a.Release()
		a.Release() // idempotent: nothing is put back twice
	}
	// Two live buffers of one class are distinct storage, before and after
	// a double Release (a buffer pooled twice would be handed out twice).
	var a Arena
	FloatsIn[T](&a, 100)
	a.Release()
	a.Release()
	x, y := FloatsIn[T](&a, 100), FloatsIn[T](&a, 100)
	x[0], y[0] = 1, 2
	if x[0] != 1 {
		t.Error("two live arena buffers share storage")
	}
	a.Release()

	defer func() {
		if recover() == nil {
			t.Error("NewIn(-1, 2) did not panic")
		}
	}()
	NewIn[T](&a, -1, 2)
}

func TestArena(t *testing.T) {
	t.Run("f64", testArena[float64])
	t.Run("f32", testArena[float32])
	// One arena serves both float types and CSR indices at once, and the
	// float64 methods are the generic functions at float64.
	var a Arena
	f32s, f64s, m := FloatsIn[float32](&a, 100), a.Floats(100), a.New(2, 3)
	f32s[0], f64s[0] = 1, 2
	if f32s[0] != 1 || f64s[0] != 2 || len(m.Data) != 6 {
		t.Error("hand-outs of the two element types from one arena interfere")
	}
	idx := a.Int32s(100)
	for i := range idx {
		idx[i] = -1
	}
	a.Release()
	if idx = a.Int32s(100); len(idx) != 100 || idx[0] != 0 || idx[99] != 0 {
		t.Errorf("Int32s(100) from a dirty list: len %d, ends %d and %d, want 100 zeroes", len(idx), idx[0], idx[99])
	}
	a.Release()
}

// testSteadyStateZeroAllocs: after warmup, serial GEMM over a *mix* of
// problem sizes must not allocate — the size-classed lists guarantee a
// recycled buffer always fits, where the old single shared pool could hand a
// small request's recycled buffer to a large request and force a
// reallocation on every call.
func testSteadyStateZeroAllocs[T Float](t *testing.T) {
	type prob struct{ c, a, b *Dense[T] }
	var probs []prob
	// All above packMinFlops so every call takes the packed (pooled) path;
	// spread across different buffer size classes.
	for _, sh := range []struct{ m, k, n int }{
		{40, 256, 40}, {64, 64, 64}, {100, 100, 100}, {129, 65, 97}, {33, 500, 33},
	} {
		probs = append(probs, prob{
			c: newDense[T](sh.m, sh.n),
			a: random[T](sh.m, sh.k, uint64(sh.m)),
			b: random[T](sh.k, sh.n, uint64(sh.n)),
		})
	}
	withParallelism(1, func() {
		run := func() {
			for _, p := range probs {
				MulAddInto(p.c, p.a, p.b)
			}
		}
		run() // warm the pools
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("steady-state GEMM mix allocates %.0f times per run, want 0", allocs)
		}
	})
}

func TestMulAddIntoSteadyStateZeroAllocs(t *testing.T) {
	t.Run("f64", testSteadyStateZeroAllocs[float64])
	t.Run("f32", testSteadyStateZeroAllocs[float32])
}

// BenchmarkBufPoolMixed measures pool behavior under the mixed-size request
// pattern the serving path produces (different n per request sharing the
// pools). b.ReportAllocs surfaces the steady-state allocation count the
// size-classed pools are designed to hold at zero.
func BenchmarkBufPoolMixed(b *testing.B) {
	sizes := []int{512, 48 * 48, kcBlock * 64, kcBlock * ncBlock, 1000}
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := getBuf[float64](sizes[i%len(sizes)])
			putBuf(p)
		}
	})
	b.Run("gemm", func(b *testing.B) {
		type prob struct{ c, a, b *Matrix }
		var probs []prob
		for _, n := range []int{40, 64, 100} {
			probs = append(probs, prob{New(n, n), Random(n, n, uint64(n)), Random(n, n, uint64(n)+1)})
		}
		withParallelism(1, func() {
			for _, p := range probs {
				MulAddInto(p.c, p.a, p.b) // warm
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := probs[i%len(probs)]
				MulAddInto(p.c, p.a, p.b)
			}
		})
	})
}
