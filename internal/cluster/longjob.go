package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"coopabft/internal/serve"
)

// Long jobs: step-granular CG solves on the async jobs API.
//
// A CG job submitted via POST /v1/jobs does not pass through the
// synchronous forwarding path: the gateway dispatches it to one worker as
// a serve.LongTask, and the worker streams an encoded checkpoint back to
// PUT /v1/jobs/{id}/checkpoint every CheckpointEvery steps. The newest
// accepted snapshot is retained with the job record, so when the worker
// dies mid-solve the gateway reschedules on the next healthy capable node
// and ships that snapshot with the new dispatch — the solve resumes at
// the checkpointed step instead of starting over, and the consumed
// checkpoint-restart budget rides inside the snapshot, keeping the
// MaxRestarts bound cumulative across nodes.
//
// Each dispatch is one epoch. The checkpoint URL carries the epoch, and
// the gateway discards PUTs from any other epoch, so a zombie incarnation
// (a worker that lost its connection but kept solving) can never clobber
// the replacement's newer state. Within an epoch, steps must increase.
//
// Recovery latency is measured fault→resumed: from the gateway observing
// the worker's death to the first accepted signal from the replacement
// epoch (a checkpoint PUT or the terminal result), summed over the job's
// migrations into JobStatus.RecoveryMS and the cluster recovery_ms_sum
// counter.

// runLongJob drives one long job end to end: dispatch, relay checkpoints
// (via handleJobCheckpoint), and migrate across worker deaths until a
// terminal classification lands or the budget runs out.
func (g *Gateway) runLongJob(ctx context.Context, rec *jobRecord, p serve.Parsed, req serve.Request) {
	g.m.JobsLong.Add(1)
	started := time.Now()
	rec.update(func(st *serve.JobStatus) { st.State = serve.JobRunning })

	avoid := make(map[string]bool)
	migrations, sheds := 0, 0
	for {
		if ctx.Err() != nil {
			rec.fail(ctx, g, started, context.Cause(ctx))
			return
		}
		nd := g.pickLongNode(p, avoid)
		if nd == nil {
			rec.fail(ctx, g, started, fmt.Errorf("%w: no healthy capable node for long job", serve.ErrUnavailable))
			return
		}
		task, resumeStep := g.buildLongTask(rec, p, req)
		rec.update(func(st *serve.JobStatus) {
			st.Node = nd.id
			if migrations > 0 {
				st.ResumeStep = resumeStep
			}
		})
		body, err := json.Marshal(task)
		if err != nil {
			rec.fail(ctx, g, started, fmt.Errorf("%w: %w", serve.ErrBadRequest, err))
			return
		}
		// The call blocks for the solve's duration: a long job's POST is
		// bounded by the job context, not the hop's header timeout.
		res, class, err := postJSON[serve.LongResult](ctx, nd, longJobRoute, body)
		switch class {
		case fcDelivered:
			g.noteRecovered(rec)
			g.finishLong(rec, started, nd, p, res)
			return
		case fcBadRequest:
			g.m.BadRequests.Add(1)
			rec.fail(ctx, g, started, err)
			return
		case fcShed:
			sheds++
			if sheds > g.cfg.Retries {
				rec.fail(ctx, g, started, fmt.Errorf("%w: %v", serve.ErrOverloaded, err))
				return
			}
			if serr := sleepCtx(ctx, g.backoff(p.Seed, sheds)); serr != nil {
				rec.fail(ctx, g, started, serr)
				return
			}
		case fcFailed:
			if ctx.Err() != nil {
				rec.fail(ctx, g, started, context.Cause(ctx))
				return
			}
			migrations++
			if migrations > g.cfg.MaxMigrations {
				rec.fail(ctx, g, started, fmt.Errorf("%w: long job lost %d workers (budget %d): %v",
					serve.ErrUnavailable, migrations, g.cfg.MaxMigrations, err))
				return
			}
			avoid[nd.id] = true
			g.noteFault(rec)
			g.m.Migrations.Add(1)
			g.m.Retries.Add(1)
			g.bus.Publish(serve.Event{
				Type: serve.EventNodeDeath, Job: rec.id, Node: nd.id,
				Detail: fmt.Sprintf("worker died mid-solve; migrating (%d/%d)", migrations, g.cfg.MaxMigrations),
			})
			rec.update(func(st *serve.JobStatus) { st.Migrations = migrations })
		}
	}
}

// pickLongNode chooses the long job's worker: the first node in the
// synchronous path's placement order that is not on the avoid list (nodes
// that already died under this job) and admits work.
func (g *Gateway) pickLongNode(p serve.Parsed, avoid map[string]bool) *node {
	for _, nd := range g.placement(p) {
		if !avoid[nd.id] && nd.admits(time.Now()) {
			return nd
		}
	}
	return nil
}

// buildLongTask assembles the next incarnation's dispatch: it advances the
// job's epoch, snapshots the newest retained checkpoint, and points the
// worker's checkpoint stream back at this gateway (when SelfURL is known).
// Returns the task and the step it will resume from (0 fresh).
func (g *Gateway) buildLongTask(rec *jobRecord, p serve.Parsed, req serve.Request) (serve.LongTask, int) {
	rec.mu.Lock()
	rec.long.epoch++
	epoch := rec.long.epoch
	snap := append([]byte(nil), rec.long.snap...)
	step := rec.long.snapStep
	rec.mu.Unlock()

	t := serve.LongTask{
		JobID: rec.id, Kernel: p.Kernel.String(),
		NX: p.NX, NY: p.NY, Seed: p.Seed,
		Strategy: req.Strategy, Faults: req.Faults, FaultKind: req.FaultKind,
		CheckpointEvery: g.cfg.CheckpointEvery,
		Snapshot:        snap,
	}
	if self := g.SelfURL(); self != "" {
		t.CheckpointURL = fmt.Sprintf("%s/v1/jobs/%s/checkpoint?epoch=%d", self, rec.id, epoch)
	}
	return t, step
}

// finishLong lands a delivered long result: the job is done — aborted is a
// delivered classification here exactly as on the synchronous path, so a
// wrong answer remains structurally unreachable (the oracle gate ran on
// the worker) and "failed" is reserved for jobs the cluster itself lost.
func (g *Gateway) finishLong(rec *jobRecord, started time.Time, nd *node, p serve.Parsed, res serve.LongResult) {
	g.delivered(res.Outcome)
	resp := &serve.Response{
		Kernel: res.Kernel, N: p.Size(), Strategy: p.Strategy.String(),
		Outcome: res.Outcome, Error: res.Error,
		Corrections: res.Corrections, Injected: res.Injected, Restarts: res.RestartsTotal,
		BatchSize: 1, RunMS: res.RunMS, Node: nd.id,
	}
	rec.finish(g, started, func(st *serve.JobStatus) {
		st.State = serve.JobDone
		st.Result = resp
		if res.Steps > st.Step {
			st.Step = res.Steps
		}
		if res.ResumeStep > 0 {
			st.ResumeStep = res.ResumeStep
		}
		st.RestartsUsed = res.RestartsTotal
	})
}

// noteFault stamps the moment the gateway observed a worker death, opening
// the fault→resumed recovery-latency window (idempotent until closed).
func (g *Gateway) noteFault(rec *jobRecord) {
	rec.mu.Lock()
	if rec.long.faultAt.IsZero() {
		rec.long.faultAt = time.Now()
	}
	rec.mu.Unlock()
}

// noteRecovered closes the recovery-latency window on a terminal result,
// for the case where the replacement incarnation finished without ever
// streaming a checkpoint.
func (g *Gateway) noteRecovered(rec *jobRecord) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.long.faultAt.IsZero() {
		return
	}
	ms := float64(time.Since(rec.long.faultAt)) / float64(time.Millisecond)
	rec.status.RecoveryMS += ms
	rec.long.faultAt = time.Time{}
	g.m.RecoveryMSSum.Add(ms)
}

// acceptCheckpoint decides one checkpoint PUT's fate under the record
// lock: wrong epoch or non-advancing step is stale (discarded); an
// accepted snapshot, a copy of body, becomes the job's migration state and
// closes any open recovery-latency window. Returns whether it was stored and
// the latency recorded (0 when no window was open).
func (rec *jobRecord) acceptCheckpoint(epoch int64, step, restarts int, body []byte) (bool, float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if epoch != rec.long.epoch {
		return false, 0
	}
	if rec.long.snap != nil && step <= rec.long.snapStep {
		return false, 0
	}
	rec.long.snap = bytes.Clone(body)
	rec.long.snapStep = step
	rec.status.Step = step
	rec.status.Checkpoints++
	rec.status.RestartsUsed = restarts
	var ms float64
	if !rec.long.faultAt.IsZero() {
		ms = float64(time.Since(rec.long.faultAt)) / float64(time.Millisecond)
		rec.status.RecoveryMS += ms
		rec.long.faultAt = time.Time{}
	}
	return true, ms
}
