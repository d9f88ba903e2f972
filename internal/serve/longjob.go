package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/checkpoint"
	"coopabft/internal/core"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
)

// LongTask is one dispatch of a long-running iterative solve (CG), in wire
// form. Unlike the interactive kernel path it is step-granular: the worker
// streams an encoded checkpoint to CheckpointURL every CheckpointEvery
// steps, and a Snapshot shipped with the task resumes the solve at the
// snapshot's step — including its consumed restart budget — instead of
// starting over. The gateway uses exactly this to migrate a job off a dead
// node.
type LongTask struct {
	JobID  string `json:"job_id"`
	Kernel string `json:"kernel"`
	NX     int    `json:"nx,omitempty"`
	NY     int    `json:"ny,omitempty"`
	Seed   uint64 `json:"seed"`
	// Strategy is the paper ECC label, as on the interactive path.
	Strategy  string `json:"strategy,omitempty"`
	Faults    int    `json:"faults,omitempty"`
	FaultKind string `json:"fault_kind,omitempty"`
	// CheckpointEvery is the step interval between streamed checkpoints
	// (default 8).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// CheckpointURL, when set, receives an encoded snapshot via HTTP PUT
	// after each committed checkpoint. PUT failures are counted, not fatal:
	// losing a stream degrades migration granularity, never the solve.
	CheckpointURL string `json:"checkpoint_url,omitempty"`
	// Snapshot is an encoded checkpoint.Snapshot to resume from (nil for a
	// fresh start).
	Snapshot  []byte `json:"snapshot,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// LongResult reports one finished long-task incarnation. Outcome uses the
// ladder's corrected/restarted/aborted taxonomy; a migrated job's final
// incarnation reports the whole solve's convergence.
type LongResult struct {
	JobID   string `json:"job_id"`
	Kernel  string `json:"kernel"`
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// ResumeStep is the step this incarnation started at (0 fresh).
	ResumeStep int `json:"resume_step"`
	// Steps is the solver's iteration count at completion (absolute).
	Steps    int     `json:"steps"`
	Residual float64 `json:"residual,omitempty"`
	// Restarts counts this incarnation's local rollbacks; RestartsTotal is
	// cumulative including the budget carried in by the snapshot.
	Restarts      int `json:"restarts"`
	RestartsTotal int `json:"restarts_total"`
	// Checkpoints counts locally committed checkpoints; Streamed counts the
	// ones successfully PUT to CheckpointURL.
	Checkpoints int     `json:"checkpoints"`
	Streamed    int     `json:"streamed"`
	Corrections int     `json:"abft_corrections"`
	Injected    int     `json:"injected"`
	RunMS       float64 `json:"run_ms"`
}

// longLimits derives long-task admission bounds: the CG grid area cap
// follows the job-size cap, not the interactive one.
func (c Config) longLimits() Limits { return Limits{MaxN: c.MaxJobN, MaxFaults: c.MaxFaults} }

// parseLongTask funnels a long task through the shared admission
// entrypoint and decodes the resume snapshot, if any.
func parseLongTask(l Limits, t LongTask) (Parsed, *checkpoint.Snapshot, error) {
	p, err := ParseRequest(l, Request{
		Kernel: t.Kernel, NX: t.NX, NY: t.NY, Strategy: t.Strategy,
		Seed: t.Seed, Faults: t.Faults, FaultKind: t.FaultKind,
	})
	if err != nil {
		return p, nil, err
	}
	if p.Kernel != KernelCG {
		return p, nil, fmt.Errorf("%w: long tasks support cg only, got %s", ErrBadRequest, p.Kernel)
	}
	if t.CheckpointEvery < 0 {
		return p, nil, fmt.Errorf("%w: checkpoint_every must be >= 0", ErrBadRequest)
	}
	if len(t.Snapshot) == 0 {
		return p, nil, nil
	}
	snap, err := checkpoint.Decode(t.Snapshot)
	if err != nil {
		return p, nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return p, &snap, nil
}

// DoLong admits and executes one long task through the recovery ladder,
// streaming checkpoints off-node as it goes: ErrBadRequest for a malformed
// task, then the side routes' shared admission (acquire).
func (s *Service) DoLong(ctx context.Context, t LongTask) (LongResult, error) {
	p, resume, err := parseLongTask(s.cfg.longLimits(), t)
	if err != nil {
		return LongResult{}, s.long.reject(err)
	}
	ctx, release, err := s.acquire(ctx, &s.long, t.TimeoutMS)
	if err != nil {
		return LongResult{}, err
	}
	defer release()
	return s.runLong(ctx, t, p, resume), nil
}

// runLong drives one admitted long task under a panic guard, mirroring
// runLadder's contract: a kernel panic becomes an Aborted classification.
// The task runs on a node from the service's free list, on an arena of its
// own, under execute's lifetime rule: both go back once the result is
// built, construction failure included, and neither after the guard fired.
func (s *Service) runLong(ctx context.Context, t LongTask, p Parsed, resume *checkpoint.Snapshot) (res LongResult) {
	res = LongResult{JobID: t.JobID, Kernel: p.Kernel.String()}
	var arena mat.Arena
	var rt *core.Runtime
	defer func() {
		if pn := recover(); pn != nil {
			res.Outcome = recovery.Aborted.String()
			res.Error = fmt.Sprintf("serve: long task panicked: %v", pn)
			return
		}
		arena.Release()
		s.nodes.Put(rt, 1)
	}()
	start := time.Now()

	rt = s.takeNode(p.Strategy, p.Seed)
	rt.Arena = &arena
	w, err := recovery.NewCGWorkload(rt, p.NX, p.NY, p.Seed)
	if err != nil {
		res.Outcome = recovery.Aborted.String()
		res.Error = err.Error()
		return res
	}

	every := t.CheckpointEvery
	if every == 0 {
		every = s.cfg.CheckpointEvery
	}

	resumeStep := 0
	if resume != nil {
		resumeStep = resume.Step
	}
	s.bus.Publish(Event{Type: EventJobResumed, Job: t.JobID, Step: resumeStep})

	var streamed atomic.Int64
	onCkpt, flush := s.startCheckpointStream(ctx, t.CheckpointURL, &streamed)
	co := &recovery.Coordinator{
		RT:              rt,
		W:               w,
		Plan:            recovery.PlanInjections(w, p.Seed, p.Kind, p.Faults),
		CheckpointEvery: every,
		MaxRestarts:     maxRestarts,
		Ctx:             ctx,
		Resume:          resume,
		OnCheckpoint:    onCkpt,
		OnEvent: func(kind string, step int, detail string) {
			switch kind {
			case recovery.EventFault:
				s.bus.Publish(Event{Type: EventPanelFault, Job: t.JobID, Step: step, Detail: detail})
			case recovery.EventEscalation:
				s.bus.Publish(Event{Type: EventLadderEscalation, Job: t.JobID, Step: step, Detail: detail})
			case recovery.EventCheckpoint:
				s.bus.Publish(Event{Type: EventCheckpoint, Job: t.JobID, Step: step})
			}
		},
	}
	rep := co.Run()
	flush()
	s.countArmed(rt)

	res.Outcome = rep.Outcome.String()
	if rep.Err != nil {
		res.Error = rep.Err.Error()
	}
	res.ResumeStep = rep.ResumedFrom
	res.Restarts = rep.Restarts
	res.RestartsTotal = rep.RestartsTotal
	res.Checkpoints = rep.Checkpoints
	res.Streamed = int(streamed.Load())
	res.Corrections = rep.Corrections
	res.Injected = rep.Injected
	if sv, ok := w.(interface{ Solve() abft.CGOutcome }); ok {
		out := sv.Solve()
		res.Steps = out.Iterations
		res.Residual = out.Residual
	}
	res.RunMS = s.long.m.done(start)
	s.countOutcome(rep.Outcome)
	s.bus.Publish(Event{Type: EventJobDone, Job: t.JobID, Step: res.Steps, Detail: res.Outcome})
	return res
}

// startCheckpointStream returns the coordinator's OnCheckpoint hook and a
// flush function. The hook runs on the solve's step boundary, so it must
// not block on the network: snapshots go through a latest-wins slot to a
// single sender goroutine — a slow gateway costs checkpoint granularity
// (intermediate snapshots are superseded), never solve throughput. flush
// sends any still-pending snapshot and joins the sender.
func (s *Service) startCheckpointStream(ctx context.Context, url string, streamed *atomic.Int64) (func(checkpoint.Snapshot), func()) {
	if url == "" {
		return nil, func() {}
	}
	slot := make(chan []byte, 1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	put := func(buf []byte) {
		if err := s.putCheckpoint(ctx, url, buf); err != nil {
			s.m.CheckpointPutErrors.Add(1)
		} else {
			streamed.Add(1)
			s.m.CheckpointsStreamed.Add(1)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case buf := <-slot:
				put(buf)
			case <-stop:
				select {
				case buf := <-slot:
					put(buf)
				default:
				}
				return
			}
		}
	}()
	hook := func(snap checkpoint.Snapshot) {
		buf := checkpoint.Encode(snap)
		for {
			select {
			case slot <- buf:
				return
			default:
				// Supersede the unsent snapshot (single producer: the hook
				// only runs on the solve goroutine).
				select {
				case <-slot:
				default:
				}
			}
		}
	}
	flush := func() {
		close(stop)
		wg.Wait()
	}
	return hook, flush
}

// putCheckpoint ships one encoded snapshot to the gateway.
func (s *Service) putCheckpoint(ctx context.Context, url string, buf []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.ckptClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("serve: checkpoint PUT: status %d", resp.StatusCode)
	}
	return nil
}
