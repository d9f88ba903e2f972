package cluster

import (
	"fmt"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/serve"
)

// shardTask is one planned block task: a role + grid position bound to the
// worker that owns it.
type shardTask struct {
	role   string
	bi, bj int
	node   *node
}

// shardPlan is a job's full schedule: the block grid, the rotated worker
// list, and every task with its placement.
type shardPlan struct {
	grid    abft.BlockGrid
	workers []*node
	tasks   []shardTask
}

// maxGridDim caps the block grid's rows/columns: past ~8 the per-block
// coordination overhead beats the parallelism win at the sizes this
// gateway serves.
const maxGridDim = 8

// planShards lays an n×n sharded GEMM over the eligible workers: an R×C
// grid of data blocks plus C column-checksum and R row-checksum blocks.
//
// Placement over W workers (rotated by the job seed so successive jobs
// spread load): data (i,j) → w[(i+j) mod W], col-check j → w[(R+j) mod W],
// row-check i → w[(i+C) mod W]. With R ≤ W-1 and C ≤ W-1, any two tasks a
// single grid column depends on — its data blocks and its column-checksum
// block — land on distinct workers: within column j the data indices
// (i+j) mod W are distinct for i in [0,R) because R ≤ W, and the col-check
// index (R+j) mod W would collide only at i ≡ R, which is outside [0,R).
// Losing any single worker therefore costs each column at most one of its
// blocks, and column parity reconstructs it — the single-node-loss
// recovery guarantee the coordinator relies on.
func planShards(n int, ws []*node, shardBlock int, seed uint64) (shardPlan, error) {
	w := len(ws)
	if w < 3 {
		return shardPlan{}, fmt.Errorf("%w: sharding needs >= 3 eligible workers, have %d",
			serve.ErrUnavailable, w)
	}
	rot := int(campaign.Splitmix64(seed) % uint64(w))
	rotated := append(append(make([]*node, 0, w), ws[rot:]...), ws[:rot]...)

	dim := (n + shardBlock - 1) / shardBlock
	if lim := w - 1; dim > lim {
		dim = lim
	}
	if dim > maxGridDim {
		dim = maxGridDim
	}
	if dim < 2 {
		dim = 2
	}
	grid, err := abft.NewBlockGrid(n, dim, dim)
	if err != nil {
		return shardPlan{}, err
	}

	r, c := grid.Rows(), grid.Cols()
	tasks := make([]shardTask, 0, r*c+r+c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			tasks = append(tasks, shardTask{role: serve.BlockData, bi: i, bj: j,
				node: rotated[(i+j)%w]})
		}
	}
	for j := 0; j < c; j++ {
		tasks = append(tasks, shardTask{role: serve.BlockColCheck, bj: j,
			node: rotated[(r+j)%w]})
	}
	for i := 0; i < r; i++ {
		tasks = append(tasks, shardTask{role: serve.BlockRowCheck, bi: i,
			node: rotated[(i+c)%w]})
	}
	return shardPlan{grid: grid, workers: rotated, tasks: tasks}, nil
}

// eligibleWorkers snapshots the nodes a sharded job may use: those in
// rotation. A block is bound to its planned node, so breakers are left to
// runBlockTask's same-node retries.
func (g *Gateway) eligibleWorkers() []*node {
	out := make([]*node, 0, len(g.nodes))
	for _, nd := range g.nodes {
		if nd.inRotation() {
			out = append(out, nd)
		}
	}
	return out
}
