package abft

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"testing"

	"coopabft/internal/mat"
)

// blockProduct computes the (bi,bj) block of C = A·B via the same
// full-k MulAddInto-on-views path the block workers use.
func blockProduct(a, b *mat.Matrix, g BlockGrid, bi, bj int) *mat.Matrix {
	r0, r1 := g.RowSpan(bi)
	c0, c1 := g.ColSpan(bj)
	out := mat.New(r1-r0, c1-c0)
	mat.MulAddInto(out, a.View(r0, 0, r1-r0, g.N), b.View(0, c0, g.N, c1-c0))
	return out
}

// TestBlockProductMatchesFull pins the determinism contract the sharded
// path rests on: every block computed on views is bit-for-bit the same
// region of the full single-node product.
func TestBlockProductMatchesFull(t *testing.T) {
	for _, n := range []int{37, 64} {
		a, b := mat.Random(n, n, 7), mat.Random(n, n, 8)
		full := mat.New(n, n)
		mat.MulAddInto(full, a, b)
		g, err := NewBlockGrid(n, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi < g.Rows(); bi++ {
			for bj := 0; bj < g.Cols(); bj++ {
				got := blockProduct(a, b, g, bi, bj)
				r0, _ := g.RowSpan(bi)
				c0, _ := g.ColSpan(bj)
				for i := 0; i < got.Rows; i++ {
					for j := 0; j < got.Cols; j++ {
						w, h := full.At(r0+i, c0+j), got.At(i, j)
						if math.Float64bits(w) != math.Float64bits(h) {
							t.Fatalf("n=%d block(%d,%d) el(%d,%d): %x != %x",
								n, bi, bj, i, j, math.Float64bits(h), math.Float64bits(w))
						}
					}
				}
			}
		}
	}
}

// TestReconstructAnySingleLoss is the satellite property test: for odd
// shapes and non-square grids, losing any single block is recoverable
// bit-for-bit from its column parity (and, independently, its row parity),
// and the numeric Σ-check accepts the reconstruction.
func TestReconstructAnySingleLoss(t *testing.T) {
	cases := []struct{ n, r, c int }{
		{37, 3, 2}, {37, 2, 4}, {53, 5, 3}, {53, 3, 3}, {64, 4, 2}, {41, 2, 2},
	}
	for _, tc := range cases {
		g, err := NewBlockGrid(tc.n, tc.r, tc.c)
		if err != nil {
			t.Fatalf("grid %+v: %v", tc, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("grid %+v invalid: %v", tc, err)
		}
		a, b := mat.Random(tc.n, tc.n, uint64(tc.n)), mat.Random(tc.n, tc.n, uint64(tc.n)+1)
		blocks := make([][]*mat.Matrix, g.Rows())
		for bi := range blocks {
			blocks[bi] = make([]*mat.Matrix, g.Cols())
			for bj := range blocks[bi] {
				blocks[bi][bj] = blockProduct(a, b, g, bi, bj)
			}
		}

		// Column-checksum blocks: fold each grid column.
		colParity := make([]*mat.Matrix, g.Cols())
		colSum := make([]*mat.Matrix, g.Cols())
		for bj := 0; bj < g.Cols(); bj++ {
			col := make([]*mat.Matrix, 0, g.Rows())
			for bi := 0; bi < g.Rows(); bi++ {
				col = append(col, blocks[bi][bj])
			}
			c0, c1 := g.ColSpan(bj)
			colParity[bj], colSum[bj] = EncodeChecksumBlocks(col, g.MaxRowSpan(), c1-c0)
		}
		// Row-checksum blocks: fold each grid row.
		rowParity := make([]*mat.Matrix, g.Rows())
		rowSum := make([]*mat.Matrix, g.Rows())
		for bi := 0; bi < g.Rows(); bi++ {
			r0, r1 := g.RowSpan(bi)
			rowParity[bi], rowSum[bi] = EncodeChecksumBlocks(blocks[bi], r1-r0, g.MaxColSpan())
		}

		tol := BlockTol(tc.n)
		for li := 0; li < g.Rows(); li++ {
			for lj := 0; lj < g.Cols(); lj++ {
				want := blocks[li][lj]

				// Recover via column parity.
				var surv []*mat.Matrix
				for bi := 0; bi < g.Rows(); bi++ {
					if bi != li {
						surv = append(surv, blocks[bi][lj])
					}
				}
				got, err := ReconstructBlock(colParity[lj], surv, want.Rows, want.Cols)
				if err != nil {
					t.Fatalf("%+v lose(%d,%d) col reconstruct: %v", tc, li, lj, err)
				}
				assertBitEqual(t, want, got, "col", tc.n, li, lj)
				if err := VerifyBlockSum(colSum[lj], append(surv, got), tol); err != nil {
					t.Fatalf("%+v lose(%d,%d) col Σ-check: %v", tc, li, lj, err)
				}

				// Recover via row parity.
				surv = surv[:0]
				for bj := 0; bj < g.Cols(); bj++ {
					if bj != lj {
						surv = append(surv, blocks[li][bj])
					}
				}
				got, err = ReconstructBlock(rowParity[li], surv, want.Rows, want.Cols)
				if err != nil {
					t.Fatalf("%+v lose(%d,%d) row reconstruct: %v", tc, li, lj, err)
				}
				assertBitEqual(t, want, got, "row", tc.n, li, lj)
				if err := VerifyBlockSum(rowSum[li], append(surv, got), tol); err != nil {
					t.Fatalf("%+v lose(%d,%d) row Σ-check: %v", tc, li, lj, err)
				}
			}
		}
	}
}

func assertBitEqual(t *testing.T, want, got *mat.Matrix, via string, n, li, lj int) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("n=%d lose(%d,%d) via %s: got %dx%d, want %dx%d",
			n, li, lj, via, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if math.Float64bits(want.At(i, j)) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("n=%d lose(%d,%d) via %s parity: el(%d,%d) %x != %x",
					n, li, lj, via, i, j,
					math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
			}
		}
	}
}

// TestVerifyBlockSumDetectsCorruption: a flipped survivor bit large enough
// to matter must fail the Σ-check.
func TestVerifyBlockSumDetectsCorruption(t *testing.T) {
	n := 24
	g, _ := NewBlockGrid(n, 3, 1)
	a, b := mat.Random(n, n, 1), mat.Random(n, n, 2)
	var col []*mat.Matrix
	for bi := 0; bi < 3; bi++ {
		col = append(col, blockProduct(a, b, g, bi, 0))
	}
	_, sum := EncodeChecksumBlocks(col, g.MaxRowSpan(), n)
	if err := VerifyBlockSum(sum, col, BlockTol(n)); err != nil {
		t.Fatalf("clean Σ-check failed: %v", err)
	}
	col[1].Set(2, 3, col[1].At(2, 3)+1.0)
	if err := VerifyBlockSum(sum, col, BlockTol(n)); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("corrupted Σ-check: err = %v, want ErrUncorrectable", err)
	}
}

// TestPackUnpackRoundTrip: exact-bits wire form round-trips, including
// non-numeric parity bit patterns.
func TestPackUnpackRoundTrip(t *testing.T) {
	m := mat.Random(5, 7, 99)
	m.Set(0, 0, math.Float64frombits(0x7ff8_dead_beef_0001)) // NaN payload
	m.Set(4, 6, math.Inf(-1))
	got, err := UnpackBlock(5, 7, PackBlock(m))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(got.At(i, j)) {
				t.Fatalf("el(%d,%d) bits differ", i, j)
			}
		}
	}
	if _, err := UnpackBlock(5, 7, make([]byte, 11)); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short payload: err = %v, want ErrBadSize", err)
	}
	if d1, d2 := BitDigest(m), BitDigest(got); d1 != d2 {
		t.Fatalf("digest mismatch: %s != %s", d1, d2)
	}
}

// TestNewBlockGridShapes: near-equal splits cover exactly [0, n].
func TestNewBlockGridShapes(t *testing.T) {
	for _, tc := range []struct{ n, r, c int }{{37, 3, 2}, {8, 8, 1}, {100, 7, 7}} {
		g, err := NewBlockGrid(tc.n, tc.r, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if g.Rows() != tc.r || g.Cols() != tc.c {
			t.Fatalf("grid %+v: got %dx%d", tc, g.Rows(), g.Cols())
		}
		total := 0
		for i := 0; i < g.Rows(); i++ {
			lo, hi := g.RowSpan(i)
			if hi-lo < 1 || hi-lo > g.MaxRowSpan() {
				t.Fatalf("row span %d: [%d,%d)", i, lo, hi)
			}
			total += hi - lo
		}
		if total != tc.n {
			t.Fatalf("row spans sum %d != %d", total, tc.n)
		}
	}
	if _, err := NewBlockGrid(4, 5, 1); !errors.Is(err, ErrBadSize) {
		t.Fatalf("r>n: err = %v, want ErrBadSize", err)
	}
}

// FuzzUnpackBlock: for any shape and any bytes, UnpackBlock never panics,
// accepts exactly the payloads of 8·r·c bytes (the product taken exactly: it
// can wrap around to a length that matches), and what it accepts packs back
// to the same bytes.
func FuzzUnpackBlock(f *testing.F) {
	f.Add(2, 3, PackBlock(mat.Random(2, 3, 1)))
	f.Add(0, 0, []byte{})
	f.Fuzz(func(t *testing.T, r, c int, b []byte) {
		hi, lo := bits.Mul64(uint64(r), uint64(c))
		fits := r >= 0 && c >= 0 && hi == 0 && lo <= math.MaxInt64/8 && uint64(len(b)) == 8*lo
		m, err := UnpackBlock(r, c, b)
		if (err == nil) != fits {
			t.Fatalf("%d bytes for a %dx%d block: err = %v, want accepted = %v", len(b), r, c, err, fits)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSize) {
				t.Fatalf("refusal is not ErrBadSize: %v", err)
			}
			return
		}
		if m.Rows != r || m.Cols != c {
			t.Fatalf("unpacked %dx%d, want %dx%d", m.Rows, m.Cols, r, c)
		}
		// A shape without elements has nothing to round-trip, and PackBlock
		// would walk its rows, however many it claims.
		if len(b) > 0 && !bytes.Equal(PackBlock(m), b) {
			t.Fatalf("%dx%d block does not pack back to its bytes", r, c)
		}
	})
}
