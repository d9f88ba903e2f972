package mat

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Shared-memory parallelism for the kernel layer.
//
// Every parallel kernel partitions its *output rows* into disjoint bands and
// runs the identical serial loop order inside each band. Because no output
// element is ever touched by two goroutines and each element accumulates its
// k-products in ascending order regardless of where the band boundaries
// fall, results are bit-identical to the serial run at any worker count —
// the same determinism contract the campaign engine gives across cells.

// parallelMinFlops is the work floor below which kernels stay serial: the
// goroutine fan-out costs more than it saves under roughly 2·32³ flops.
const parallelMinFlops = 1 << 17

// parallelism is the current worker budget for the mat kernels.
var parallelism atomic.Int32

func init() {
	n := runtime.GOMAXPROCS(0)
	if s := os.Getenv("MAT_PARALLELISM"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	parallelism.Store(int32(n))
}

// Parallelism returns the worker budget the kernels may use.
func Parallelism() int { return int(parallelism.Load()) }

// SetParallelism sets the kernel worker budget and returns the previous
// value. n <= 0 resets to runtime.GOMAXPROCS(0). Results are bit-identical
// at every setting; this knob only trades wall-clock time for goroutines.
// The initial budget is GOMAXPROCS, overridable with the MAT_PARALLELISM
// environment variable.
func SetParallelism(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(parallelism.Swap(int32(n)))
}

// workersFor caps the worker budget by the row count and the serial-fallback
// threshold.
func workersFor(rows, flops int) int {
	w := Parallelism()
	if w > rows {
		w = rows
	}
	if w <= 1 || flops < parallelMinFlops {
		return 1
	}
	return w
}

// band is a half-open row range [lo, hi).
type band struct{ lo, hi int }

// rowBands splits rows into at most workers bands of near-equal size, with
// band starts aligned to tileAlign so full micro-tiles stay intact. The
// partition depends only on (rows, workers) —
// never on runtime scheduling.
func rowBands(rows, workers int) []band {
	chunk := (rows + workers - 1) / workers
	chunk = (chunk + tileAlign - 1) / tileAlign * tileAlign
	bands := make([]band, 0, workers)
	for lo := 0; lo < rows; lo += chunk {
		bands = append(bands, band{lo, min(lo+chunk, rows)})
	}
	return bands
}

// triBands splits the rows of an n×n lower triangle into bands of
// near-equal *area* (row i holds i+1 elements), so SYRK's work balances
// even though later rows are longer.
func triBands(n, workers int) []band {
	total := n * (n + 1) / 2
	per := (total + workers - 1) / workers
	bands := make([]band, 0, workers)
	lo, acc := 0, 0
	for i := 0; i < n; i++ {
		acc += i + 1
		if acc >= per || i == n-1 {
			bands = append(bands, band{lo, i + 1})
			lo, acc = i+1, 0
		}
	}
	return bands
}

// runBands invokes fn(lo, hi) over each band, in parallel when there is more
// than one. fn must only write rows inside its band.
func runBands(bands []band, fn func(lo, hi int)) {
	if len(bands) == 1 {
		fn(bands[0].lo, bands[0].hi)
		return
	}
	var wg sync.WaitGroup
	for _, bd := range bands {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(bd.lo, bd.hi)
	}
	wg.Wait()
}
