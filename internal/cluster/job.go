package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// errBlockLost marks a block task whose node stopped answering after the
// retry budget: the task is not rescheduled — the coordinator reconstructs
// its block from the surviving checksum blocks instead.
var errBlockLost = errors.New("cluster: block task lost with its node")

// ErrUnknownJob reports a jobs-API operation against an ID the gateway
// does not hold (never submitted, or evicted after retention).
var ErrUnknownJob = errors.New("cluster: unknown job")

// jobRecord is one job's lifecycle state. The coordinator goroutine owns
// the execution; status is the only shared surface, guarded by mu.
type jobRecord struct {
	id     string
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	status serve.JobStatus
	doneAt time.Time

	// long is the long-job coordination state (guarded by mu): the current
	// incarnation epoch, the newest accepted encoded checkpoint and its
	// step, and the open fault time for recovery-latency accounting.
	long struct {
		epoch    int64
		snap     []byte
		snapStep int
		faultAt  time.Time
	}
}

// update mutates the status under the record lock and returns a copy.
func (r *jobRecord) update(f func(*serve.JobStatus)) serve.JobStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	f(&r.status)
	return r.status
}

func terminal(state string) bool {
	return state == serve.JobDone || state == serve.JobFailed || state == serve.JobCancelled
}

// finish moves the record to a terminal state exactly once (later calls
// are no-ops, so a cancel racing completion cannot flip the verdict),
// stamps timing, counts it, and releases waiters.
func (r *jobRecord) finish(g *Gateway, started time.Time, f func(*serve.JobStatus)) {
	r.mu.Lock()
	if terminal(r.status.State) {
		r.mu.Unlock()
		return
	}
	f(&r.status)
	r.status.RunMS = float64(time.Since(started)) / float64(time.Millisecond)
	r.doneAt = time.Now()
	state := r.status.State
	r.mu.Unlock()
	switch state {
	case serve.JobDone:
		g.m.JobsCompleted.Add(1)
	case serve.JobCancelled:
		g.m.JobsCancelled.Add(1)
	default:
		g.m.JobsFailed.Add(1)
	}
	close(r.done)
}

// fail finishes the job with err: cancelled when err is the job context's
// own cause, failed otherwise.
func (r *jobRecord) fail(ctx context.Context, g *Gateway, started time.Time, err error) {
	r.finish(g, started, func(st *serve.JobStatus) {
		if ctx.Err() != nil && errors.Is(err, context.Cause(ctx)) {
			st.State = serve.JobCancelled
		} else {
			st.State = serve.JobFailed
		}
		st.Error = err.Error()
	})
}

// jobLimits bounds jobs-API admission; the sync path shares it, so the
// gateway's 400 taxonomy comes from the same serve.ParseRequest the nodes
// use.
func (g *Gateway) jobLimits() serve.Limits {
	return serve.Limits{MaxN: g.cfg.MaxJobN, MaxFaults: g.cfg.MaxFaults}
}

// SubmitJob admits one async job: large GEMMs shard into checksum-block
// tasks across the pool; CG solves run as step-granular long jobs that
// stream checkpoints back to the gateway and migrate across worker
// deaths; everything else passes through the synchronous forwarding path
// unchanged. Returns the job's initial status (State "queued") with its
// polling ID.
func (g *Gateway) SubmitJob(req serve.Request) (serve.JobStatus, error) {
	p, err := serve.ParseRequest(g.jobLimits(), req)
	if err != nil {
		g.m.BadRequests.Add(1)
		return serve.JobStatus{}, err
	}

	long := p.Kernel == serve.KernelCG
	sharded := p.Kernel == serve.KernelGEMM && p.N >= g.cfg.ShardThreshold
	var plan shardPlan
	if sharded {
		if p.Faults > 0 {
			g.m.BadRequests.Add(1)
			return serve.JobStatus{}, fmt.Errorf(
				"%w: fault injection is per-node; sharded jobs (n >= %d) do not support it",
				serve.ErrBadRequest, g.cfg.ShardThreshold)
		}
		if plan, err = planShards(p.N, g.eligibleWorkers(), g.cfg.ShardBlock, p.Seed); err != nil {
			// Too few workers to hold distinct checksum blocks: fall back
			// to forwarding whole, same as a small job.
			sharded = false
		}
	}

	g.jobMu.Lock()
	if err := g.evictJobsLocked(time.Now()); err != nil {
		g.jobMu.Unlock()
		return serve.JobStatus{}, err
	}
	g.jobSeq++
	id := fmt.Sprintf("j%06d", g.jobSeq)
	ctx, cancel := context.WithCancel(g.jobCtx)
	rec := &jobRecord{id: id, cancel: cancel, done: make(chan struct{})}
	rec.status = serve.JobStatus{
		ID: id, State: serve.JobQueued, Kernel: p.Kernel.String(), N: p.Size(),
		Sharded: sharded, Long: long,
	}
	if sharded {
		grid := plan.grid
		rec.status.BlocksTotal = grid.Rows()*grid.Cols() + grid.Rows() + grid.Cols()
	}
	g.jobs[id] = rec
	st := rec.status
	g.jobMu.Unlock()

	g.m.JobsSubmitted.Add(1)
	g.jobWG.Add(1)
	go func() {
		defer g.jobWG.Done()
		defer cancel()
		switch {
		case long:
			g.runLongJob(ctx, rec, p, req)
		case sharded:
			g.runShardedJob(ctx, rec, p, plan)
		default:
			g.runPassthroughJob(ctx, rec, req)
		}
	}()
	return st, nil
}

// evictJobsLocked drops terminal records past retention, then — if the
// table is still at capacity — the oldest terminal record. A table full of
// live jobs rejects with the standard overload error.
func (g *Gateway) evictJobsLocked(now time.Time) error {
	for id, rec := range g.jobs {
		rec.mu.Lock()
		old := terminal(rec.status.State) && now.Sub(rec.doneAt) > g.cfg.JobRetention
		rec.mu.Unlock()
		if old {
			delete(g.jobs, id)
		}
	}
	for len(g.jobs) >= g.cfg.MaxJobs {
		var oldest *jobRecord
		for _, rec := range g.jobs {
			rec.mu.Lock()
			t := terminal(rec.status.State)
			rec.mu.Unlock()
			if t && (oldest == nil || rec.doneAt.Before(oldest.doneAt)) {
				oldest = rec
			}
		}
		if oldest == nil {
			return fmt.Errorf("%w: %d jobs in flight", serve.ErrOverloaded, len(g.jobs))
		}
		delete(g.jobs, oldest.id)
	}
	return nil
}

// JobStatusOf returns a job's current status.
func (g *Gateway) JobStatusOf(id string) (serve.JobStatus, error) {
	g.jobMu.Lock()
	rec, ok := g.jobs[id]
	g.jobMu.Unlock()
	if !ok {
		return serve.JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.status, nil
}

// CancelJob requests cancellation. Terminal jobs are unaffected (the
// call is an idempotent no-op); a running job transitions to "cancelled"
// once its coordinator unwinds. The returned status is the state at call
// time — poll GET for the terminal one.
func (g *Gateway) CancelJob(id string) (serve.JobStatus, error) {
	g.jobMu.Lock()
	rec, ok := g.jobs[id]
	g.jobMu.Unlock()
	if !ok {
		return serve.JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	rec.cancel()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.status, nil
}

// runPassthroughJob executes a small (or shard-ineligible) job through the
// existing synchronous forwarding path — byte-for-byte the same placement,
// failover, and classification as POST /v1/<kernel>.
func (g *Gateway) runPassthroughJob(ctx context.Context, rec *jobRecord, req serve.Request) {
	g.m.JobsPassthrough.Add(1)
	started := time.Now()
	rec.update(func(st *serve.JobStatus) { st.State = serve.JobRunning })
	resp, err := g.Do(ctx, req)
	rec.finish(g, started, func(st *serve.JobStatus) {
		switch {
		case err == nil:
			st.State = serve.JobDone
			st.Result = &resp
		case ctx.Err() != nil:
			st.State = serve.JobCancelled
			st.Error = context.Cause(ctx).Error()
		default:
			st.State = serve.JobFailed
			st.Error = err.Error()
		}
	})
}

// blockSlot is one grid position's landed result on the coordinator.
type blockSlot struct {
	block *mat.Matrix
	sum   *mat.Matrix // checksum roles only
}

// runShardedJob drives one sharded job end to end: dispatch every block
// task to its planned worker, collect results, reconstruct whatever a dead
// node took with it, Σ-verify, assemble, and fingerprint. A single node
// loss is absorbed with zero recomputation — the loss shows up only in the
// reconstructions counter.
func (g *Gateway) runShardedJob(ctx context.Context, rec *jobRecord, p serve.Parsed, plan shardPlan) {
	started := time.Now()
	rec.update(func(st *serve.JobStatus) { st.State = serve.JobRunning })
	grid := plan.grid
	r, c := grid.Rows(), grid.Cols()

	var (
		mu       sync.Mutex
		data     = make([][]*mat.Matrix, r)
		colCheck = make([]blockSlot, c)
		rowCheck = make([]blockSlot, r)
		lost     []shardTask
		fatal    error
	)
	for i := range data {
		data[i] = make([]*mat.Matrix, c)
	}

	var wg sync.WaitGroup
	for _, t := range plan.tasks {
		wg.Add(1)
		go func(t shardTask) {
			defer wg.Done()
			blk, sum, err := g.runBlockTask(ctx, t, plan, p, rec.id)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				switch t.role {
				case serve.BlockData:
					data[t.bi][t.bj] = blk
				case serve.BlockColCheck:
					colCheck[t.bj] = blockSlot{block: blk, sum: sum}
				default:
					rowCheck[t.bi] = blockSlot{block: blk, sum: sum}
				}
				rec.update(func(st *serve.JobStatus) { st.BlocksDone++ })
			case errors.Is(err, errBlockLost):
				lost = append(lost, t)
			default: // bad request or cancellation: no point continuing
				if fatal == nil {
					fatal = err
				}
			}
		}(t)
	}
	wg.Wait()

	if ctx.Err() != nil {
		rec.fail(ctx, g, started, context.Cause(ctx))
		return
	}
	if fatal != nil {
		rec.fail(ctx, g, started, fatal)
		return
	}

	// Recover lost data blocks algebraically — column parity first (the
	// single-loss guarantee), row parity as the cross-check fallback;
	// recomputation is the last resort and is counted separately, because
	// the chaos gate requires it to stay zero. Lost checksum blocks need
	// no action: they exist to protect data blocks, and verification below
	// simply skips a column/row whose checksum died.
	for _, t := range lost {
		if t.role != serve.BlockData {
			continue
		}
		r0, r1 := grid.RowSpan(t.bi)
		c0, c1 := grid.ColSpan(t.bj)
		if blk := reconstructData(grid, data, colCheck, rowCheck, t); blk != nil {
			data[t.bi][t.bj] = blk
			g.m.Reconstructions.Add(1)
			rec.update(func(st *serve.JobStatus) { st.Reconstructions++; st.BlocksDone++ })
			continue
		}
		// Unrecoverable (multi-loss overlapped this block's row and
		// column): recompute on a surviving worker.
		nd := g.fallbackWorker(plan, lost)
		if nd == nil {
			rec.fail(ctx, g, started, fmt.Errorf("%w: block (%d,%d) unrecoverable and no worker left to recompute it",
				serve.ErrUnavailable, t.bi, t.bj))
			return
		}
		blk, _, err := g.runBlockTask(ctx, shardTask{role: serve.BlockData, bi: t.bi, bj: t.bj, node: nd},
			plan, p, rec.id)
		if err != nil {
			rec.fail(ctx, g, started, fmt.Errorf("recomputing block (%d,%d): %w", t.bi, t.bj, err))
			return
		}
		if blk.Rows != r1-r0 || blk.Cols != c1-c0 {
			rec.fail(ctx, g, started, fmt.Errorf("recomputed block (%d,%d) has wrong shape", t.bi, t.bj))
			return
		}
		data[t.bi][t.bj] = blk
		g.m.BlockRecomputes.Add(1)
		rec.update(func(st *serve.JobStatus) { st.Recomputes++; st.BlocksDone++ })
	}

	// Σ-verify every column and row whose checksum block survived: the
	// numeric ABFT check gates both reconstructed and directly delivered
	// blocks, so a corrupted survivor cannot silently poison the answer.
	tol := abft.BlockTol(p.N)
	for j := 0; j < c; j++ {
		if colCheck[j].sum == nil {
			continue
		}
		col := make([]*mat.Matrix, 0, r)
		for i := 0; i < r; i++ {
			col = append(col, data[i][j])
		}
		if err := abft.VerifyBlockSum(colCheck[j].sum, col, tol); err != nil {
			rec.fail(ctx, g, started, fmt.Errorf("column %d: %w", j, err))
			return
		}
	}
	for i := 0; i < r; i++ {
		if rowCheck[i].sum == nil {
			continue
		}
		if err := abft.VerifyBlockSum(rowCheck[i].sum, data[i], tol); err != nil {
			rec.fail(ctx, g, started, fmt.Errorf("row %d: %w", i, err))
			return
		}
	}

	// Assemble and fingerprint. Every block is bit-identical to its region
	// of the single-node product, so the digest matches the direct path's.
	out := mat.New(p.N, p.N)
	for i := 0; i < r; i++ {
		r0, r1 := grid.RowSpan(i)
		for j := 0; j < c; j++ {
			c0, c1 := grid.ColSpan(j)
			out.View(r0, c0, r1-r0, c1-c0).CopyFrom(data[i][j])
		}
	}
	digest := abft.BitDigest(out)
	resp := serve.Response{
		Kernel: p.Kernel.String(), N: p.N, Strategy: p.Strategy.String(),
		Outcome: "corrected",
		RunMS:   float64(time.Since(started)) / float64(time.Millisecond),
	}
	rec.finish(g, started, func(st *serve.JobStatus) {
		st.State = serve.JobDone
		st.Digest = digest
		st.Result = &resp
	})
}

// reconstructData recovers one lost data block from surviving siblings, or
// returns nil when neither its column nor its row has a complete parity
// set.
func reconstructData(grid abft.BlockGrid, data [][]*mat.Matrix, colCheck, rowCheck []blockSlot, t shardTask) *mat.Matrix {
	r0, r1 := grid.RowSpan(t.bi)
	c0, c1 := grid.ColSpan(t.bj)
	if colCheck[t.bj].block != nil {
		surv := make([]*mat.Matrix, 0, grid.Rows()-1)
		for i := 0; i < grid.Rows(); i++ {
			if i == t.bi {
				continue
			}
			if data[i][t.bj] == nil {
				surv = nil
				break
			}
			surv = append(surv, data[i][t.bj])
		}
		if surv != nil {
			if blk, err := abft.ReconstructBlock(colCheck[t.bj].block, surv, r1-r0, c1-c0); err == nil {
				return blk
			}
		}
	}
	if rowCheck[t.bi].block != nil {
		surv := make([]*mat.Matrix, 0, grid.Cols()-1)
		for j := 0; j < grid.Cols(); j++ {
			if j == t.bj {
				continue
			}
			if data[t.bi][j] == nil {
				surv = nil
				break
			}
			surv = append(surv, data[t.bi][j])
		}
		if surv != nil {
			if blk, err := abft.ReconstructBlock(rowCheck[t.bi].block, surv, r1-r0, c1-c0); err == nil {
				return blk
			}
		}
	}
	return nil
}

// fallbackWorker picks a recompute host: any planned worker that lost no
// task and is still in rotation.
func (g *Gateway) fallbackWorker(plan shardPlan, lost []shardTask) *node {
	dead := make(map[string]bool, len(lost))
	for _, t := range lost {
		dead[t.node.id] = true
	}
	for _, nd := range plan.workers {
		if !dead[nd.id] && nd.inRotation() {
			return nd
		}
	}
	return nil
}

// runBlockTask runs one block task on its planned node, retrying transient
// failures (connection errors, 503s, sheds) on the same node with the
// gateway's jittered backoff — a block is bound to its placement; losing
// the node means reconstruction, not rescheduling. Returns the unpacked
// block (and sum, for checksum roles); errBlockLost after the retry
// budget.
func (g *Gateway) runBlockTask(ctx context.Context, t shardTask, plan shardPlan, p serve.Parsed, jobID string) (*mat.Matrix, *mat.Matrix, error) {
	task := serve.BlockTask{
		JobID: jobID, Kernel: p.Kernel.String(), N: p.N, Seed: p.Seed, Role: t.role,
		RowSplits: plan.grid.RowSplits, ColSplits: plan.grid.ColSplits, BI: t.bi, BJ: t.bj,
	}
	body, err := json.Marshal(task)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", serve.ErrBadRequest, err)
	}
	nd := t.node
	var lastErr error
	for attempt := 0; attempt <= g.cfg.Retries; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, g.backoff(p.Seed^uint64(t.bi*31+t.bj), attempt)); err != nil {
				return nil, nil, err
			}
		}
		if err := nd.acquire(ctx); err != nil {
			return nil, nil, err
		}
		res, class, err := postJSON[serve.BlockResult](ctx, nd, "/v1/block", body)
		nd.release()
		switch class {
		case fcDelivered:
			g.m.BlockTasksDispatched.Add(1)
			if t.role != serve.BlockData {
				g.m.ChecksumTasks.Add(1)
			}
			return unpackBlockResult(t, plan.grid, res)
		case fcBadRequest:
			return nil, nil, err
		case fcShed:
			lastErr = err
		case fcFailed:
			lastErr = err
			if ctx.Err() != nil {
				return nil, nil, context.Cause(ctx)
			}
		}
	}
	return nil, nil, fmt.Errorf("%w: node %s: %v", errBlockLost, nd.id, lastErr)
}

// unpackBlockResult decodes a delivered result and checks its shape
// against the plan; a malformed payload is a bad response, not a lost
// node.
func unpackBlockResult(t shardTask, grid abft.BlockGrid, res serve.BlockResult) (*mat.Matrix, *mat.Matrix, error) {
	var wantR, wantC int
	switch t.role {
	case serve.BlockData:
		r0, r1 := grid.RowSpan(t.bi)
		c0, c1 := grid.ColSpan(t.bj)
		wantR, wantC = r1-r0, c1-c0
	case serve.BlockColCheck:
		c0, c1 := grid.ColSpan(t.bj)
		wantR, wantC = grid.MaxRowSpan(), c1-c0
	default:
		r0, r1 := grid.RowSpan(t.bi)
		wantR, wantC = r1-r0, grid.MaxColSpan()
	}
	if res.Rows != wantR || res.Cols != wantC {
		return nil, nil, fmt.Errorf("%w: %s block (%d,%d): got %dx%d, want %dx%d",
			serve.ErrBadRequest, t.role, t.bi, t.bj, res.Rows, res.Cols, wantR, wantC)
	}
	blk, err := abft.UnpackBlock(res.Rows, res.Cols, res.Block)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", serve.ErrBadRequest, err)
	}
	var sum *mat.Matrix
	if t.role != serve.BlockData {
		if sum, err = abft.UnpackBlock(res.Rows, res.Cols, res.Sum); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", serve.ErrBadRequest, err)
		}
	}
	return blk, sum, nil
}
