package serve

import (
	"context"
	"fmt"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
)

// Block-task roles. A sharded job's grid has data blocks plus dedicated
// checksum blocks; the role tells the worker which panel to compute.
const (
	// BlockData computes one data block C[bi,bj] of the sharded product.
	BlockData = "data"
	// BlockColCheck computes grid column bj's checksum pair (GF(2) parity
	// + numeric sum) by folding every data block in that column.
	BlockColCheck = "col-check"
	// BlockRowCheck computes grid row bi's checksum pair by folding every
	// data block in that row.
	BlockRowCheck = "row-check"
)

// BlockTask is one unit of a sharded job, in wire (JSON) form: compute one
// block of C = A·B where A = Random(n,n,seed) and B = Random(n,n,seed+1) —
// the same operands the single-node DGEMM path uses, so a sharded answer
// can be compared bit-for-bit against the direct one. RowSplits/ColSplits
// carry the job's full grid so every worker derives identical extents.
type BlockTask struct {
	JobID     string `json:"job_id"`
	Kernel    string `json:"kernel"`
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
	Role      string `json:"role"`
	RowSplits []int  `json:"row_splits"`
	ColSplits []int  `json:"col_splits"`
	// BI, BJ locate the task on the grid: data uses both; col-check uses
	// BJ; row-check uses BI.
	BI        int `json:"bi"`
	BJ        int `json:"bj"`
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BlockResult carries a computed block back. Block (and, for checksum
// roles, Sum) hold the block's float64 elements row-major as little-endian
// bit patterns (JSON base64) — parity blocks are raw GF(2) words whose bit
// patterns need not be valid numbers, so they cannot ride in JSON floats.
type BlockResult struct {
	JobID string  `json:"job_id"`
	Role  string  `json:"role"`
	BI    int     `json:"bi"`
	BJ    int     `json:"bj"`
	Rows  int     `json:"rows"`
	Cols  int     `json:"cols"`
	Block []byte  `json:"block"`
	Sum   []byte  `json:"sum,omitempty"`
	RunMS float64 `json:"run_ms"`
}

// parseBlockTask funnels a block task through the shared admission
// entrypoint (ParseRequest, so the 400 taxonomy is the daemon's), then
// validates the grid geometry on top.
func parseBlockTask(l Limits, t BlockTask) (Parsed, abft.BlockGrid, error) {
	var g abft.BlockGrid
	p, err := ParseRequest(l, Request{Kernel: t.Kernel, N: t.N, Seed: t.Seed})
	if err != nil {
		return p, g, err
	}
	if !p.Kernel.row().product {
		return p, g, fmt.Errorf("%w: kernel %s has no block route", ErrBadRequest, p.Kernel)
	}
	g = abft.BlockGrid{N: p.N, RowSplits: t.RowSplits, ColSplits: t.ColSplits}
	if err := g.Validate(); err != nil {
		return p, g, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	switch t.Role {
	case BlockData:
		if t.BI < 0 || t.BI >= g.Rows() || t.BJ < 0 || t.BJ >= g.Cols() {
			return p, g, fmt.Errorf("%w: data block (%d,%d) outside %dx%d grid",
				ErrBadRequest, t.BI, t.BJ, g.Rows(), g.Cols())
		}
	case BlockColCheck:
		if t.BJ < 0 || t.BJ >= g.Cols() {
			return p, g, fmt.Errorf("%w: col-check %d outside %d columns", ErrBadRequest, t.BJ, g.Cols())
		}
	case BlockRowCheck:
		if t.BI < 0 || t.BI >= g.Rows() {
			return p, g, fmt.Errorf("%w: row-check %d outside %d rows", ErrBadRequest, t.BI, g.Rows())
		}
	default:
		return p, g, fmt.Errorf("%w: unknown block role %q", ErrBadRequest, t.Role)
	}
	return p, g, nil
}

// DoBlock admits and executes one block task: ErrBadRequest for a
// malformed task, then the side routes' shared admission (acquire).
func (s *Service) DoBlock(ctx context.Context, t BlockTask) (BlockResult, error) {
	p, grid, err := parseBlockTask(s.cfg.jobLimits(), t)
	if err != nil {
		return BlockResult{}, s.block.reject(err)
	}
	_, release, err := s.acquire(ctx, &s.block, t.TimeoutMS)
	if err != nil {
		return BlockResult{}, err
	}
	defer release()

	start := time.Now()
	res := computeBlock(p, grid, t)
	res.JobID, res.Role, res.BI, res.BJ = t.JobID, t.Role, t.BI, t.BJ
	res.RunMS = s.block.m.done(start)
	return res, nil
}

// computeBlock evaluates the task's panel. Data blocks are one MulAddInto
// over views of the full operands — by the mat kernel's ascending-k
// contract, bit-identical to the same region of the single-node product.
// Checksum roles compute each sibling block the same way and fold, so
// their parity is over exactly the bits the data workers produced.
//
// Operands and computed blocks live in a task-scoped arena, released before
// returning: the result holds PackBlock copies. (EncodeChecksumBlocks
// allocates its parity and sum on the heap; they are one block each.)
func computeBlock(p Parsed, grid abft.BlockGrid, t BlockTask) BlockResult {
	var arena mat.Arena
	var res BlockResult
	a, b := arena.New(p.N, p.N), arena.New(p.N, p.N)
	mat.FillRandom(a, p.Seed)
	mat.FillRandom(b, p.Seed+1)
	one := func(bi, bj int) *mat.Matrix {
		r0, r1 := grid.RowSpan(bi)
		c0, c1 := grid.ColSpan(bj)
		out := arena.New(r1-r0, c1-c0)
		mat.MulAddInto(out, a.View(r0, 0, r1-r0, p.N), b.View(0, c0, p.N, c1-c0))
		return out
	}
	pack := func(parity, sum *mat.Matrix) BlockResult {
		return BlockResult{Rows: parity.Rows, Cols: parity.Cols,
			Block: abft.PackBlock(parity), Sum: abft.PackBlock(sum)}
	}

	switch t.Role {
	case BlockData:
		blk := one(t.BI, t.BJ)
		res = BlockResult{Rows: blk.Rows, Cols: blk.Cols, Block: abft.PackBlock(blk)}
	case BlockColCheck:
		c0, c1 := grid.ColSpan(t.BJ)
		col := make([]*mat.Matrix, 0, grid.Rows())
		for bi := 0; bi < grid.Rows(); bi++ {
			col = append(col, one(bi, t.BJ))
		}
		res = pack(abft.EncodeChecksumBlocks(col, grid.MaxRowSpan(), c1-c0))
	default: // BlockRowCheck; parseBlockTask rejected everything else
		r0, r1 := grid.RowSpan(t.BI)
		row := make([]*mat.Matrix, 0, grid.Cols())
		for bj := 0; bj < grid.Cols(); bj++ {
			row = append(row, one(t.BI, bj))
		}
		res = pack(abft.EncodeChecksumBlocks(row, r1-r0, grid.MaxColSpan()))
	}
	arena.Release()
	return res
}
