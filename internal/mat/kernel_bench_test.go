package mat

import (
	"fmt"
	"testing"
)

// mulAddSeed replicates the pre-kernel-layer MulAddInto (blocked i-k-j with
// the av == 0 skip) as the before/after baseline for EXPERIMENTS.md.
func mulAddSeed[T Float](c, a, b *Dense[T]) {
	n, k, m := a.Rows, a.Cols, b.Cols
	for ii := 0; ii < n; ii += gemmBlock {
		iMax := min(ii+gemmBlock, n)
		for kk := 0; kk < k; kk += gemmBlock {
			kMax := min(kk+gemmBlock, k)
			for jj := 0; jj < m; jj += gemmBlock {
				jMax := min(jj+gemmBlock, m)
				for i := ii; i < iMax; i++ {
					crow := c.Data[i*c.Stride : i*c.Stride+m]
					arow := a.Data[i*a.Stride : i*a.Stride+k]
					for p := kk; p < kMax; p++ {
						av := arow[p]
						if av == 0 {
							continue
						}
						brow := b.Data[p*b.Stride : p*b.Stride+m]
						for j := jj; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(flopsPerOp*float64(b.N)/sec/1e9, "GFLOP/s")
	}
}

// BenchmarkGEMM reports GFLOP/s for the seed loop, the packed serial
// kernel, and the packed row-band-parallel kernel at the ISSUE's four
// sizes, for both element types. BENCH_*.json tracks the trajectory.
func BenchmarkGEMM(b *testing.B) {
	b.Run("f64", benchGEMM[float64])
	b.Run("f32", benchGEMM[float32])
}

func benchGEMM[T Float](b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		a := random[T](n, n, 1)
		bm := random[T](n, n, 2)
		c := newDense[T](n, n)
		flops := 2 * float64(n) * float64(n) * float64(n)
		b.Run(fmt.Sprintf("n=%d/seed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mulAddSeed(c, a, bm)
			}
			reportGFLOPS(b, flops)
		})
		b.Run(fmt.Sprintf("n=%d/packed", n), func(b *testing.B) {
			withParallelism(1, func() {
				for i := 0; i < b.N; i++ {
					MulAddInto(c, a, bm)
				}
			})
			reportGFLOPS(b, flops)
		})
		b.Run(fmt.Sprintf("n=%d/parallel", n), func(b *testing.B) {
			withParallelism(8, func() {
				for i := 0; i < b.N; i++ {
					MulAddInto(c, a, bm)
				}
			})
			reportGFLOPS(b, flops)
		})
	}
}

// BenchmarkGEMMFused measures the full fused entry point (checksum
// accumulation + deterministic band reduction) against plain MulAddInto —
// the kernel-layer half of the fused-vs-two-pass story. Each element type
// asks for the sums its ABFT driver asks for: float32 adds the
// absolute-value sums and operand Moments of the adaptive threshold.
func BenchmarkGEMMFused(b *testing.B) {
	b.Run("f64", func(b *testing.B) { benchGEMMFused[float64](b, false) })
	b.Run("f32", func(b *testing.B) { benchGEMMFused[float32](b, true) })
}

func benchGEMMFused[T Float](b *testing.B, abs bool) {
	for _, n := range []int{256, 1024} {
		a := random[T](n, n, 1)
		bm := random[T](n, n, 2)
		c := newDense[T](n, n)
		fs := newSums(n, n, n, abs)
		flops := 2 * float64(n) * float64(n) * float64(n)
		for _, par := range []int{1, 8} {
			b.Run(fmt.Sprintf("n=%d/par=%d/plain", n, par), func(b *testing.B) {
				withParallelism(par, func() {
					for i := 0; i < b.N; i++ {
						MulAddInto(c, a, bm)
					}
				})
				reportGFLOPS(b, flops)
			})
			b.Run(fmt.Sprintf("n=%d/par=%d/fused", n, par), func(b *testing.B) {
				withParallelism(par, func() {
					for i := 0; i < b.N; i++ {
						MulAddIntoFused(c, a, bm, fs)
					}
				})
				reportGFLOPS(b, flops)
			})
		}
	}
}

// BenchmarkCholesky times the blocked factorization (panel + packed
// TRSM/SYRK) serial vs parallel.
func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		spd := SymmetricPositiveDefinite(n, 3)
		flops := float64(n) * float64(n) * float64(n) / 3
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("n=%d/par=%d", n, par)
			b.Run(name, func(b *testing.B) {
				withParallelism(par, func() {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						w := spd.Clone()
						b.StartTimer()
						if err := CholeskyBlocked(w, 64, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
				reportGFLOPS(b, flops)
			})
		}
	}
}

// BenchmarkLU times the blocked LU (panel + packed rank-k trailing update)
// serial vs parallel.
func BenchmarkLU(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		src := DiagonallyDominant(n, 4)
		flops := 2 * float64(n) * float64(n) * float64(n) / 3
		for _, par := range []int{1, 8} {
			name := fmt.Sprintf("n=%d/par=%d", n, par)
			b.Run(name, func(b *testing.B) {
				withParallelism(par, func() {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						w := src.Clone()
						b.StartTimer()
						if _, err := LU(w, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
				reportGFLOPS(b, flops)
			})
		}
	}
}

// BenchmarkMulVec times the row-band-parallel matrix-vector product.
func BenchmarkMulVec(b *testing.B) {
	n := 1024
	a := Random(n, n, 5)
	x := RandomVec(n, 6)
	y := make([]float64, n)
	flops := 2 * float64(n) * float64(n)
	for _, par := range []int{1, 8} {
		b.Run(fmt.Sprintf("n=%d/par=%d", n, par), func(b *testing.B) {
			withParallelism(par, func() {
				for i := 0; i < b.N; i++ {
					MulVecInto(y, a, x)
				}
			})
			reportGFLOPS(b, flops)
		})
	}
}
