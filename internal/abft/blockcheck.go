package abft

import (
	"encoding/binary"
	"fmt"
	"math"

	"coopabft/internal/mat"
)

// Block-checksum algebra for sharded single-job execution (Bosilca et al.,
// "Algorithmic Based Fault Tolerance Applied to High Performance
// Computing"): one large GEMM C = A·B is laid out as an R×C grid of blocks
// across worker processes, plus dedicated checksum blocks — one per block
// row and one per block column — held on distinct processes, so any single
// lost process's blocks are recovered from survivors without recomputation.
//
// Two codes run side by side, mirroring the paper's software/hardware
// split at cluster scale:
//
//   - Reconstruction uses GF(2) parity over the blocks' IEEE-754 bit
//     patterns (XOR folding, the same algebra a DRAM ECC codeword uses
//     over its symbols, lifted from a 64-bit word to an entire block of a
//     process grid). Because XOR is exact, a reconstructed block is
//     bit-for-bit the block that was lost — the sharded answer keeps the
//     repo-wide bit-identical determinism contract even through a node
//     death.
//   - Verification uses the classic numeric checksum sum (the Σ-block of
//     [39]'s encoded products): each checksum task also returns the
//     elementwise sum of the blocks it covers, and VerifyBlockSum checks
//     survivors + reconstruction against it within a DGEMM-style
//     tolerance, so a reconstruction is oracle-gated the way every other
//     delivery path in this repo is.
//
// Blocks within a grid column share a width but not a height (and vice
// versa for rows), so checksum blocks are sized to the widest member and
// shorter blocks are folded top-left-aligned with implicit zero padding —
// padding is exact in both codes (XOR with 0 bits, sum with +0.0).

// BlockGrid is the 2D block layout of an n×n result: RowSplits and
// ColSplits hold the R+1 and C+1 panel boundaries (0 = first, n = last).
type BlockGrid struct {
	N         int
	RowSplits []int
	ColSplits []int
}

// NewBlockGrid splits an n×n result into an r×c grid of near-equal blocks
// (earlier panels take the remainder, so heights/widths differ by at most
// one — odd shapes and non-square grids are first-class).
func NewBlockGrid(n, r, c int) (BlockGrid, error) {
	if n < 1 {
		return BlockGrid{}, fmt.Errorf("%w: grid over n=%d", ErrBadSize, n)
	}
	if r < 1 || c < 1 || r > n || c > n {
		return BlockGrid{}, fmt.Errorf("%w: %dx%d grid over n=%d", ErrBadSize, r, c, n)
	}
	return BlockGrid{N: n, RowSplits: splits(n, r), ColSplits: splits(n, c)}, nil
}

// splits partitions [0, n) into k near-equal spans.
func splits(n, k int) []int {
	out := make([]int, k+1)
	for i := 1; i <= k; i++ {
		out[i] = out[i-1] + n/k
		if i <= n%k {
			out[i]++
		}
	}
	return out
}

// Validate checks a grid received off the wire: monotone splits covering
// exactly [0, N].
func (g BlockGrid) Validate() error {
	for _, sp := range [][]int{g.RowSplits, g.ColSplits} {
		if len(sp) < 2 || sp[0] != 0 || sp[len(sp)-1] != g.N {
			return fmt.Errorf("%w: block splits must run 0..%d", ErrBadSize, g.N)
		}
		for i := 1; i < len(sp); i++ {
			if sp[i] <= sp[i-1] {
				return fmt.Errorf("%w: non-monotone block splits", ErrBadSize)
			}
		}
	}
	return nil
}

// Rows returns the number of block rows R.
func (g BlockGrid) Rows() int { return len(g.RowSplits) - 1 }

// Cols returns the number of block columns C.
func (g BlockGrid) Cols() int { return len(g.ColSplits) - 1 }

// RowSpan returns block row i's half-open row range [lo, hi).
func (g BlockGrid) RowSpan(i int) (lo, hi int) { return g.RowSplits[i], g.RowSplits[i+1] }

// ColSpan returns block column j's half-open column range [lo, hi).
func (g BlockGrid) ColSpan(j int) (lo, hi int) { return g.ColSplits[j], g.ColSplits[j+1] }

// MaxRowSpan returns the tallest block height — the row extent of a
// column-checksum block.
func (g BlockGrid) MaxRowSpan() int { return maxSpan(g.RowSplits) }

// MaxColSpan returns the widest block width — the column extent of a
// row-checksum block.
func (g BlockGrid) MaxColSpan() int { return maxSpan(g.ColSplits) }

func maxSpan(sp []int) int {
	m := 0
	for i := 1; i < len(sp); i++ {
		if w := sp[i] - sp[i-1]; w > m {
			m = w
		}
	}
	return m
}

// FoldParity XORs src's IEEE-754 bit patterns into dst, top-left aligned;
// dst must be at least as large as src in both dimensions. Positions dst
// has and src lacks are untouched (an implicit XOR with zero bits).
func FoldParity(dst, src *mat.Matrix) {
	if src.Rows > dst.Rows || src.Cols > dst.Cols {
		panic(fmt.Sprintf("abft: FoldParity %dx%d into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		d := dst.Row(i)
		for j, v := range src.Row(i) {
			d[j] = math.Float64frombits(math.Float64bits(d[j]) ^ math.Float64bits(v))
		}
	}
}

// FoldSum adds src elementwise into dst, top-left aligned — the numeric
// checksum-block accumulation (missing positions contribute +0.0).
func FoldSum(dst, src *mat.Matrix) {
	if src.Rows > dst.Rows || src.Cols > dst.Cols {
		panic(fmt.Sprintf("abft: FoldSum %dx%d into %dx%d", src.Rows, src.Cols, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		d := dst.Row(i)
		for j, v := range src.Row(i) {
			d[j] += v
		}
	}
}

// EncodeChecksumBlocks folds a set of sibling blocks (one grid row or one
// grid column) into their checksum pair: the GF(2) parity block used for
// reconstruction and the numeric sum block used for verification. rows and
// cols size the checksum blocks (the widest member's extents).
func EncodeChecksumBlocks(blocks []*mat.Matrix, rows, cols int) (parity, sum *mat.Matrix) {
	parity = mat.New(rows, cols)
	sum = mat.New(rows, cols)
	for _, b := range blocks {
		FoldParity(parity, b)
		FoldSum(sum, b)
	}
	return parity, sum
}

// ReconstructBlock recovers a lost rows×cols block from its siblings'
// parity block and the surviving siblings: parity ⊕ survivors equals the
// lost block's bits exactly, because every block folded into the parity
// except the lost one cancels. The result is bit-for-bit the lost block —
// no recomputation, no floating-point drift.
func ReconstructBlock(parity *mat.Matrix, survivors []*mat.Matrix, rows, cols int) (*mat.Matrix, error) {
	if rows > parity.Rows || cols > parity.Cols {
		return nil, fmt.Errorf("%w: reconstructing %dx%d from %dx%d parity",
			ErrBadSize, rows, cols, parity.Rows, parity.Cols)
	}
	work := parity.Clone()
	for _, s := range survivors {
		if s.Rows > work.Rows || s.Cols > work.Cols {
			return nil, fmt.Errorf("%w: survivor %dx%d exceeds %dx%d parity",
				ErrBadSize, s.Rows, s.Cols, work.Rows, work.Cols)
		}
		FoldParity(work, s)
	}
	out := mat.New(rows, cols)
	out.CopyFrom(work.View(0, 0, rows, cols))
	return out, nil
}

// VerifyBlockSum checks that blocks (survivors plus any reconstruction)
// fold to the numeric checksum block within tol — the classic ABFT Σ-check
// that gates a reconstructed delivery, so an undetected corruption in a
// surviving block cannot silently poison the recovered answer.
func VerifyBlockSum(sum *mat.Matrix, blocks []*mat.Matrix, tol float64) error {
	got := mat.New(sum.Rows, sum.Cols)
	for _, b := range blocks {
		if b.Rows > got.Rows || b.Cols > got.Cols {
			return fmt.Errorf("%w: block %dx%d exceeds %dx%d checksum",
				ErrBadSize, b.Rows, b.Cols, got.Rows, got.Cols)
		}
		FoldSum(got, b)
	}
	for i := 0; i < sum.Rows; i++ {
		want, have := sum.Row(i), got.Row(i)
		for j := range want {
			if d := math.Abs(want[j] - have[j]); !(d <= tol) {
				return fmt.Errorf("%w: checksum mismatch at (%d,%d): |Δ|=%g > tol %g",
					ErrUncorrectable, i, j, d, tol)
			}
		}
	}
	return nil
}

// BlockTol is the Σ-check tolerance for an n×n sharded product, matching
// the DGEMM checksum tolerance scaling.
func BlockTol(n int) float64 { return 1e-9 * float64(n) * float64(n) }

// PackBlock serializes a matrix's elements row-major as little-endian
// IEEE-754 bit patterns — the exact-bits wire form of a block (JSON floats
// cannot carry a parity block: XOR-folded patterns need not be valid
// numbers).
func PackBlock(m *mat.Matrix) []byte {
	out := make([]byte, 8*m.Rows*m.Cols)
	off := 0
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			binary.LittleEndian.PutUint64(out[off:], math.Float64bits(v))
			off += 8
		}
	}
	return out
}

// UnpackBlock inverts PackBlock into an r×c matrix. A payload of any other
// length than 8·r·c is refused before anything is allocated.
func UnpackBlock(r, c int, b []byte) (*mat.Matrix, error) {
	if !holdsBlock(len(b), r, c) {
		return nil, fmt.Errorf("%w: %d-byte payload for a %dx%d block", ErrBadSize, len(b), r, c)
	}
	m := mat.New(r, c)
	for k := range m.Data {
		m.Data[k] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*k:]))
	}
	return m, nil
}

// holdsBlock reports whether size bytes are exactly r×c float64 values. It
// divides instead of forming 8·r·c, which can wrap around to a matching
// length.
func holdsBlock(size, r, c int) bool {
	if r < 0 || c < 0 || size%8 != 0 {
		return false
	}
	if r == 0 || c == 0 {
		return size == 0
	}
	return size/8%c == 0 && size/8/c == r
}

// BitDigest hashes a matrix's exact bit patterns (row-major FNV-1a over
// the PackBlock encoding) — the job-level answer fingerprint clients
// compare against a locally computed reference to assert bit-identity over
// the wire. It is the matrix-shaped view of the canonical AnswerSig, so a
// job digest and a vote signature over the same answer are the same
// string.
func BitDigest(m *mat.Matrix) string {
	chunks := make([][]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		chunks[i] = m.Row(i)
	}
	return AnswerSig(chunks...)
}
