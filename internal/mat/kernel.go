package mat

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Packed GEMM micro-kernel layer.
//
// The classic fix for a stride-hopping triple loop: copy the A and B panels
// the inner loops will consume into contiguous, cache-sized buffers laid out
// exactly in kernel consumption order, then run an unrolled register
// micro-kernel over them (Goto & van de Geijn; the same substrate FT-BLAS
// and FT-GEMM build their fault-tolerant GEMMs on). Packing buffers are
// recycled through free lists that outlive garbage collections (below), so
// steady-state GEMM does no allocation, however rarely a size recurs.
//
// The layer is generic over the element type: float64 and float32 are two
// instantiations of the same pack routines, micro-kernel and drivers (Go
// stencils them as separate shapes, so each runs at the speed of a
// hand-written copy). Data and arithmetic are in T; every checksum and
// statistic the fused path derives (fused.go) is accumulated in float64, so
// ABFT detection keeps double precision over single-precision data.
//
// Determinism contract: every output element is accumulated in ascending-k
// order starting from its current value — the micro-kernel seeds its
// register accumulators from C — so the result is bit-identical to the
// scalar reference loop in T regardless of cache blocking or row-band
// parallelism. Tests assert exact bit equality for both element types.

const (
	// mr×nr is the register micro-tile: 8 accumulators plus 6 operand
	// temporaries fit the 16-register amd64 FP file with room to spare. It
	// is the only tile: a 4×4 variant measured ~2× slower (its 16
	// accumulators spill, which costs more than the halved B traffic saves)
	// and was removed.
	mr = 2
	nr = 4

	// tileAlign is the band-partition alignment, a multiple of mr so row
	// bands keep full micro-tiles intact. It stays 4 (not mr): the band
	// split fixes the rounding association of every fused checksum, which
	// soak tables and golden results pin.
	tileAlign = 4

	// kcBlock sizes the packed panels' shared k extent: an mr×kcBlock
	// A micro-panel (8KB) plus an nr×kcBlock B micro-panel stay L1-warm.
	kcBlock = 256
	// mcBlock rows of packed A (mcBlock×kcBlock = 512KB ceiling) target L2.
	mcBlock = 256
	// ncBlock columns of packed B bound the B panel at kcBlock×ncBlock.
	ncBlock = 512

	// packMinFlops is the floor below which packing costs more than the
	// plain blocked loop saves.
	packMinFlops = 1 << 15
)

// Packing and reduction buffers, and every Arena hand-out, are recycled
// through size-classed free lists: one FreeList per power-of-two capacity
// class. A single shared list thrashes under mixed request sizes — a Get
// can return a buffer too small for this call (reallocate, dropping the
// recycled one) while large buffers sit idle — so steady state keeps
// allocating. With per-class lists every Get either hits a buffer guaranteed
// to fit or takes the one allocation that seeds the class. Each element type
// has its own set, so mixed f32/f64 traffic never pops a buffer of the wrong
// type. A buffer that went back stays until a Get takes it, through any
// number of collections, so a class a worker uses once per GC cycle, or
// less, is still warm when it comes round again.
//
// maxPoolClass is the largest class kept: 2²⁶ elements. Below it, what
// stays is for the budget to decide: a buffer larger than the whole budget
// is never kept, and the coldest classes make room for the rest (FreeList).
const maxPoolClass = 26

// bufBudget bounds the idle bytes of every class of every element type
// together, the arenas' bookkeeping lists included, in one process. Its two
// parts are measured (DESIGN.md §2.3): the largest peak of idle bytes under
// any of cmd/abftbench's four workloads, three workers and a gateway in one
// process, was 7.6 MiB (chaos_vote_mix; ladder_f64_mix 6.9 MiB), and one
// n=1024 block task keeps ≈ 19.5 MiB (two 8 MiB operands, its 2 MiB block,
// its panels). 32 MiB holds both at once; past it the coldest classes go.
const bufBudget = 32 << 20

// bufSet is one element type's classes, all drawing on bufBytes.
type bufSet[T poolElem] [maxPoolClass + 1]*FreeList[*[]T]

// poolElem is what the free lists hold: the two float types the kernels
// compute in, and the int32 indices of a CSR operator (Arena.Int32s).
type poolElem interface{ Float | ~int32 }

var (
	bufBytes = byteBudget{limit: bufBudget}

	bufs64  = newBufSet[float64]()
	bufs32  = newBufSet[float32]()
	bufsI32 = newBufSet[int32]()
)

func newBufSet[T poolElem]() *bufSet[T] {
	s := new(bufSet[T])
	for i := range s {
		s[i] = newSharedList[*[]T](&bufBytes)
	}
	return s
}

// setFor picks the element type's set. A named type (type F float64) has
// none: its buffers are allocated on Get and dropped on put.
func setFor[T poolElem]() *bufSet[T] {
	var set any
	switch any(*new(T)).(type) {
	case float64:
		set = bufs64
	case float32:
		set = bufs32
	case int32:
		set = bufsI32
	}
	s, _ := set.(*bufSet[T])
	return s
}

// getBuf returns a length-n buffer (contents unspecified) from the list of
// the smallest power-of-two capacity class holding n.
func getBuf[T poolElem](n int) *[]T {
	if n < 1 {
		n = 1
	}
	class := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	if class > maxPoolClass {
		p := make([]T, n)
		return &p
	}
	if s := setFor[T](); s != nil {
		if p, ok := s[class].Get(); ok {
			*p = (*p)[:n]
			return p
		}
	}
	p := make([]T, n, 1<<class)
	return &p
}

// putBuf returns a buffer to its capacity class. Buffers always leave getBuf
// with an exact power-of-two capacity, so the class is recoverable from
// cap alone; anything else (or oversized) is dropped for the GC, and so is a
// buffer the budget has no room for.
func putBuf[T poolElem](p *[]T) {
	c := cap(*p)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := bits.Len(uint(c - 1))
	s := setFor[T]()
	if class > maxPoolClass || s == nil {
		return
	}
	*p = (*p)[:c]
	s[class].Put(p, c*int(unsafe.Sizeof((*p)[0])))
}

// getZeroBuf returns a zeroed length-n recycled buffer (sum accumulators,
// arena hand-outs).
func getZeroBuf[T poolElem](n int) *[]T {
	p := getBuf[T](n)
	clear(*p)
	return p
}

// packA copies rows [i0, i0+m) × cols [k0, k0+kb) of a into buf as mr-row
// micro-panels in k-major order (the kernel reads mr values per k step),
// scaled by alpha (±1, so scaling is exact) and zero-padded to mr rows.
//
// When asum is non-nil (length kb), the copy also accumulates the panel's
// float64 column checksums — asum[p] += Σ_rows α·a[i0+r][k0+p], i.e. the
// eᵀA slice the online-ABFT path compares against the encoded checksum row
// — and, when mom is non-nil too, folds every packed element into the
// operand's magnitude statistics. Both ride the packing pass, so they cost
// no traversal beyond the copy GEMM already pays.
func packA[T Float](buf []T, a *Dense[T], i0, m, k0, kb int, alpha T, asum []float64, mom *Moments) {
	idx := 0
	for r0 := 0; r0 < m; r0 += mr {
		rows := min(mr, m-r0)
		base := (i0+r0)*a.Stride + k0
		for p := 0; p < kb; p++ {
			s := 0.0
			for r := 0; r < rows; r++ {
				v := alpha * a.Data[base+r*a.Stride+p]
				buf[idx+r] = v
				if asum != nil {
					s += float64(v)
					if mom != nil {
						mom.Observe(float64(v))
					}
				}
			}
			for r := rows; r < mr; r++ {
				buf[idx+r] = 0
			}
			if asum != nil {
				asum[p] += s
			}
			idx += mr
		}
	}
}

// packB copies rows [k0, k0+kb) × cols [j0, j0+nw) of b (of bᵀ when trans
// is set, reading element (k, j) from b[j][k]) into buf as nr-column
// micro-panels in k-major order, zero-padded to nr columns.
//
// When bsum is non-nil (length kb), the copy also accumulates the panel's
// float64 row checksums — bsum[p] += Σ_cols b[k0+p][j0+c], i.e. the B·e
// slice the online-ABFT path compares against the encoded checksum column
// — and the operand's magnitude statistics when mom is non-nil too.
func packB[T Float](buf []T, b *Dense[T], k0, kb, j0, nw int, trans bool, bsum []float64, mom *Moments) {
	idx := 0
	for c0 := 0; c0 < nw; c0 += nr {
		cols := min(nr, nw-c0)
		for p := 0; p < kb; p++ {
			s := 0.0
			if trans {
				base := (j0+c0)*b.Stride + k0 + p
				for c := 0; c < cols; c++ {
					v := b.Data[base+c*b.Stride]
					buf[idx+c] = v
					if bsum != nil {
						s += float64(v)
						if mom != nil {
							mom.Observe(float64(v))
						}
					}
				}
			} else {
				src := b.Data[(k0+p)*b.Stride+j0+c0:]
				for c := 0; c < cols; c++ {
					v := src[c]
					buf[idx+c] = v
					if bsum != nil {
						s += float64(v)
						if mom != nil {
							mom.Observe(float64(v))
						}
					}
				}
			}
			for c := cols; c < nr; c++ {
				buf[idx+c] = 0
			}
			if bsum != nil {
				bsum[p] += s
			}
			idx += nr
		}
	}
}

// kern2x4 runs the full-tile micro-kernel: a 2×4 block of C gains the
// kb-step product of an A micro-panel and a B micro-panel, k unrolled by
// four. Accumulators are seeded from C and updated in ascending-k order (see
// the determinism contract above).
func kern2x4[T Float](kb int, ap, bp []T, cd []T, ldc int) {
	c0 := cd[0*ldc : 0*ldc+4]
	c1 := cd[1*ldc : 1*ldc+4]
	c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
	c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
	ap = ap[:mr*kb]
	bp = bp[:nr*kb]
	pa, pb := 0, 0
	for ; pa+8 <= len(ap); pa, pb = pa+8, pb+16 {
		a := ap[pa : pa+8]
		b := bp[pb : pb+16]
		a0, a1 := a[0], a[1]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[2], a[3]
		b0, b1, b2, b3 = b[4], b[5], b[6], b[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[4], a[5]
		b0, b1, b2, b3 = b[8], b[9], b[10], b[11]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		a0, a1 = a[6], a[7]
		b0, b1, b2, b3 = b[12], b[13], b[14], b[15]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	for ; pa+2 <= len(ap); pa, pb = pa+2, pb+4 {
		a0, a1 := ap[pa], ap[pa+1]
		b := bp[pb : pb+4]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
	c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
}

// kernEdge handles partial tiles at the right/bottom fringe with the same
// per-element ascending-k accumulation as the full-tile kernel.
func kernEdge[T Float](kb, rows, cols int, ap, bp, cd []T, ldc int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			s := cd[r*ldc+c]
			for p := 0; p < kb; p++ {
				s += ap[p*mr+r] * bp[p*nr+c]
			}
			cd[r*ldc+c] = s
		}
	}
}

// foldStrip adds the final values of one finished column strip of c — rows
// [i0, i0+rows) × cols [j0, j0+cols), cols ≤ nr — into fa's running float64
// row/column checksum accumulators, and their magnitudes into the
// absolute-value sums when those are kept. It runs once per strip, after the
// strip's row sweep and while the strip is still cache-hot, rather than
// inside the k loop: the micro-kernel's register allocation stays
// untouched, so the fused main loop is byte-for-byte the plain kernel. The
// strip's column sums live in locals for the whole pass; each row's sum is
// built left to right from zero and added once to its row accumulator.
// Every accumulator so receives the values, in the order, a fold of one
// micro-tile at a time would give it, which is what keeps the sums' bits
// independent of where the fold sits.
func foldStrip[T Float](c *Dense[T], i0, rows, j0, cols int, fa *fusedAcc) {
	// A partial strip's absent columns are zeros that are not stored back.
	var cs, acs [nr]float64
	copy(cs[:], fa.cs[j0:j0+cols])
	abs := fa.acs != nil
	if abs {
		copy(acs[:], fa.acs[j0:j0+cols])
	}
	cs0, cs1, cs2, cs3 := cs[0], cs[1], cs[2], cs[3]
	acs0, acs1, acs2, acs3 := acs[0], acs[1], acs[2], acs[3]
	for i := i0; i < i0+rows; i++ {
		row := c.Data[i*c.Stride+j0 : i*c.Stride+j0+cols]
		// An absent column folds as +0: a sum built up from +0 is never −0,
		// so adding +0 returns it bit for bit.
		f0, f1, f2, f3 := float64(row[0]), 0.0, 0.0, 0.0
		if cols > 1 {
			f1 = float64(row[1])
		}
		if cols > 2 {
			f2 = float64(row[2])
		}
		if cols > 3 {
			f3 = float64(row[3])
		}
		cs0, cs1, cs2, cs3 = cs0+f0, cs1+f1, cs2+f2, cs3+f3
		fa.rs[i] += 0 + f0 + f1 + f2 + f3
		if abs {
			f0, f1, f2, f3 = foldAbs(f0), foldAbs(f1), foldAbs(f2), foldAbs(f3)
			acs0, acs1, acs2, acs3 = acs0+f0, acs1+f1, acs2+f2, acs3+f3
			fa.ars[i] += 0 + f0 + f1 + f2 + f3
		}
	}
	cs = [nr]float64{cs0, cs1, cs2, cs3}
	copy(fa.cs[j0:j0+cols], cs[:])
	if abs {
		acs = [nr]float64{acs0, acs1, acs2, acs3}
		copy(fa.acs[j0:j0+cols], acs[:])
	}
}

// foldAbs is the magnitude the absolute-value sums accumulate. Unlike
// math.Abs it leaves −0 and the sign of a NaN alone: the form these sums have
// always been built with, kept so that none of their bits can move.
func foldAbs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// gemmPacked computes c += alpha·a·op(b) (alpha ∈ {+1, −1}; op(b) = bᵀ when
// transB) over all of c with the packed micro-kernel. Loop order is
// jc→pc→ic (pack B per k-panel, pack A per row block), so k ascends for
// every output element no matter how the blocks fall.
//
// When fa is non-nil the pack passes accumulate the operand checksums and
// statistics (asum/amom once per k-panel on the first column slab,
// bsum/bmom once per (j,k) slab pair) and the final k-block additionally
// folds each finished column strip of C into fa's row/column sums — the
// running checksums the online verifier compares at the panel boundary. A C
// value is folded exactly once, after its last update, so the checksum also
// witnesses corruption of previously written C.
func gemmPacked[T Float](c, a, b *Dense[T], alpha T, transB bool, fa *fusedAcc) {
	m, kdim, n := a.Rows, a.Cols, c.Cols
	bbuf := getBuf[T](kcBlock * ncBlock)
	abuf := getBuf[T](mcBlock * kcBlock)
	defer putBuf(bbuf)
	defer putBuf(abuf)
	for j0 := 0; j0 < n; j0 += ncBlock {
		nw := min(ncBlock, n-j0)
		for k0 := 0; k0 < kdim; k0 += kcBlock {
			kb := min(kcBlock, kdim-k0)
			var bsum []float64
			var bmom *Moments
			if fa != nil && fa.bsum != nil {
				bsum, bmom = fa.bsum[k0:k0+kb], fa.bmom
			}
			packB(*bbuf, b, k0, kb, j0, nw, transB, bsum, bmom)
			fuse := fa != nil && fa.rs != nil && k0+kb == kdim
			for i0 := 0; i0 < m; i0 += mcBlock {
				mb := min(mcBlock, m-i0)
				var asum []float64
				var amom *Moments
				if fa != nil && fa.asum != nil && j0 == 0 {
					asum, amom = fa.asum[k0:k0+kb], fa.amom
				}
				packA(*abuf, a, i0, mb, k0, kb, alpha, asum, amom)
				for jr := 0; jr < nw; jr += nr {
					cols := min(nr, nw-jr)
					bp := (*bbuf)[(jr/nr)*kb*nr:]
					for ir := 0; ir < mb; ir += mr {
						rows := min(mr, mb-ir)
						ap := (*abuf)[(ir/mr)*kb*mr:]
						cd := c.Data[(i0+ir)*c.Stride+j0+jr:]
						if rows == mr && cols == nr {
							kern2x4(kb, ap, bp, cd, c.Stride)
						} else {
							kernEdge(kb, rows, cols, ap, bp, cd, c.Stride)
						}
					}
					if fuse {
						foldStrip(c, i0, mb, j0+jr, cols, fa)
					}
				}
			}
		}
	}
}

// gemmSimple is the unpacked blocked loop for problems too small to
// amortize panel copies. Same ascending-k-per-element order, same result
// bits.
func gemmSimple[T Float](c, a, b *Dense[T], alpha T, transB bool) {
	n, kdim, m := a.Rows, a.Cols, c.Cols
	for ii := 0; ii < n; ii += gemmBlock {
		iMax := min(ii+gemmBlock, n)
		for kk := 0; kk < kdim; kk += gemmBlock {
			kMax := min(kk+gemmBlock, kdim)
			for jj := 0; jj < m; jj += gemmBlock {
				jMax := min(jj+gemmBlock, m)
				for i := ii; i < iMax; i++ {
					crow := c.Data[i*c.Stride : i*c.Stride+m]
					arow := a.Data[i*a.Stride : i*a.Stride+kdim]
					if transB {
						for j := jj; j < jMax; j++ {
							s := crow[j]
							brow := b.Data[j*b.Stride : j*b.Stride+kdim]
							for p := kk; p < kMax; p++ {
								s += alpha * arow[p] * brow[p]
							}
							crow[j] = s
						}
						continue
					}
					for p := kk; p < kMax; p++ {
						av := alpha * arow[p]
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

// gemmSerial dispatches one row band to the packed or simple path by size.
// Both produce identical bits, so the choice is invisible to callers. When
// fa is non-nil the sub-threshold path derives the sums in a post-pass.
func gemmSerial[T Float](c, a, b *Dense[T], alpha T, transB bool, fa *fusedAcc) {
	if 2*a.Rows*a.Cols*c.Cols < packMinFlops {
		gemmSimple(c, a, b, alpha, transB)
		if fa != nil {
			foldSimple(c, a, b, fa)
		}
		return
	}
	gemmPacked(c, a, b, alpha, transB, fa)
}

// mulAdd is the shared entry: c += alpha·a·op(b), parallel over row bands
// when the problem clears the threshold and the budget allows.
func mulAdd[T Float](c, a, b *Dense[T], alpha T, transB bool) {
	m, kdim, n := a.Rows, a.Cols, c.Cols
	if m == 0 || n == 0 || kdim == 0 {
		return
	}
	workers := workersFor(m, 2*m*n*kdim)
	if workers <= 1 {
		gemmSerial(c, a, b, alpha, transB, nil)
		return
	}
	runBands(rowBands(m, workers), func(lo, hi int) {
		gemmSerial(c.View(lo, 0, hi-lo, n), a.View(lo, 0, hi-lo, kdim), b, alpha, transB, nil)
	})
}

// SyrkLowerSub computes c -= l·lᵀ on the lower triangle of c (including the
// diagonal), the trailing update of the blocked Cholesky.
func SyrkLowerSub(c, l *Matrix) { syrkLower(c, l, -1, false) }

// SyrkLowerAdd computes c += l·lᵀ on the lower triangle of c. With
// lTriangular the caller promises l is square lower-triangular with exact
// zeros above its diagonal; the products against those zeros are then
// skipped by block column, which leaves the result's bits unchanged for
// finite l (adding a zero product never moves a sum) at about a third of
// the arithmetic.
func SyrkLowerAdd(c, l *Matrix, lTriangular bool) { syrkLower(c, l, 1, lTriangular) }

// syrkLower computes c += alpha·l·lᵀ (alpha ∈ {+1, −1}) on the lower
// triangle of c. Sub-diagonal blocks go through the packed GEMM kernel;
// diagonal blocks use a scalar triangle loop. Both accumulate each element
// in ascending-k order from its stored value, so the result is bit-identical
// to the scalar reference at any block size or parallelism.
func syrkLower(c, l *Matrix, alpha float64, tri bool) {
	n, k := c.Rows, l.Cols
	if c.Cols != n || l.Rows != n || (tri && k != n) {
		panic(fmt.Sprintf("mat: SYRK shape mismatch: c %dx%d, l %dx%d",
			c.Rows, c.Cols, l.Rows, l.Cols))
	}
	if n == 0 || k == 0 {
		return
	}
	workers := workersFor(n, n*(n+1)*k)
	if workers <= 1 {
		syrkRows(c, l, alpha, tri, 0, n)
		return
	}
	runBands(triBands(n, workers), func(lo, hi int) {
		syrkRows(c, l, alpha, tri, lo, hi)
	})
}

// syrkBlock is the SYRK column-block width. It is a fixed property of the
// algorithm (not of the band split) so that which path computes an element
// never depends on the worker count.
const syrkBlock = 64

// syrkRows updates rows [r0, r1) of the lower triangle of c. With tri, block
// column j0 reads only l's first j0+jw columns: every l[j][p] beyond them
// is a zero above l's diagonal.
func syrkRows(c, l *Matrix, alpha float64, tri bool, r0, r1 int) {
	k := l.Cols
	for j0 := 0; j0 < r1; j0 += syrkBlock {
		jw := min(syrkBlock, c.Cols-j0)
		if tri {
			k = j0 + jw
		}
		// Diagonal-block rows: the ragged triangle, scalar dot products,
		// four columns at a time so the four dependent add chains overlap.
		// alpha·v is exact, so alpha = −1 subtracts each product.
		for i := max(r0, j0); i < min(r1, j0+jw); i++ {
			li := l.Data[i*l.Stride : i*l.Stride+k]
			crow := c.Data[i*c.Stride : i*c.Stride+i+1]
			j := j0
			for ; j+3 <= i; j += 4 {
				l0 := l.Data[j*l.Stride:][:k]
				l1 := l.Data[(j+1)*l.Stride:][:k]
				l2 := l.Data[(j+2)*l.Stride:][:k]
				l3 := l.Data[(j+3)*l.Stride:][:k]
				s0, s1, s2, s3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
				for p, v := range li {
					av := alpha * v
					s0 += av * l0[p]
					s1 += av * l1[p]
					s2 += av * l2[p]
					s3 += av * l3[p]
				}
				crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
			}
			for ; j <= i; j++ {
				lj := l.Data[j*l.Stride:][:k]
				s := crow[j]
				for p, v := range li {
					s += alpha * v * lj[p]
				}
				crow[j] = s
			}
		}
		// Sub-diagonal rectangle: a packed GEMM against lᵀ.
		if lo := max(r0, j0+jw); lo < r1 {
			gemmSerial(c.View(lo, j0, r1-lo, jw), l.View(lo, 0, r1-lo, k),
				l.View(j0, 0, jw, k), alpha, true, nil)
		}
	}
}

// SolveXLT solves X·Lᵀ = B in place (B overwritten with X) for lower
// triangular l — the panel solve of the blocked Cholesky. Rows are
// independent forward substitutions, so row bands parallelize with
// bit-identical results at any worker count.
func SolveXLT(b, l *Matrix) {
	n := l.Rows
	if l.Cols != n || b.Cols != n {
		panic(fmt.Sprintf("mat: SolveXLT shape mismatch: b %dx%d, l %dx%d",
			b.Rows, b.Cols, l.Rows, l.Cols))
	}
	workers := workersFor(b.Rows, b.Rows*n*n)
	if workers <= 1 {
		solveXLTRows(b, l, 0, b.Rows)
		return
	}
	bm, lm := *b, *l // the bands read copies of the headers, so b and l stay the caller's
	runBands(rowBands(b.Rows, workers), func(lo, hi int) { solveXLTRows(&bm, &lm, lo, hi) })
}

// solveXLTRows solves rows [lo, hi) of X·Lᵀ = B in place.
func solveXLTRows(b, l *Matrix, lo, hi int) {
	n := l.Rows
	for i := lo; i < hi; i++ {
		row := b.Data[i*b.Stride : i*b.Stride+n]
		for j := 0; j < n; j++ {
			s := row[j]
			lrow := l.Data[j*l.Stride : j*l.Stride+j]
			for p, lv := range lrow {
				s -= lv * row[p]
			}
			row[j] = s / l.At(j, j)
		}
	}
}
