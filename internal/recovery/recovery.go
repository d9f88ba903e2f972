// Package recovery drives the paper's §4 error-handling ladder end to end:
// bifit injects DRAM faults, the memory controller's ECC corrects what it
// can (Case 1), detected-but-uncorrectable errors flow through the OS to the
// kernels' notified ABFT repair (Case 2), corruption beyond ABFT capability
// falls back to checkpoint/restart (Case 3), and faults in non-ABFT data
// trigger OS panic mode and a restart (Case 4). The Coordinator owns the
// escalation policy: bounded restart budgets, graceful degradation from
// notified to full verification when hardware notifications are lost or
// inconsistent, and a terminal typed Outcome instead of a Go panic.
package recovery

import (
	"context"
	"errors"
	"fmt"

	"coopabft/internal/bifit"
	"coopabft/internal/campaign"
	"coopabft/internal/checkpoint"
	"coopabft/internal/core"
)

// Outcome is the terminal classification of one coordinated run. Every run
// ends in exactly one of the three: there is no "wrong answer" outcome
// because success is gated on the workload's oracle check.
type Outcome int

const (
	// Corrected: the run finished with a verified-correct result without
	// rolling back — Cases 1 and 2 (and latent errors swept up by degraded
	// full verification) handled everything in place.
	Corrected Outcome = iota
	// Restarted: at least one checkpoint rollback (Case 3 or 4) was needed,
	// but the replay finished with a verified-correct result.
	Restarted
	// Aborted: the ladder ran out of rungs — the restart budget was
	// exhausted (or no checkpoint existed) while the result still failed
	// verification. The run terminates explicitly rather than looping.
	Aborted
)

// String returns the outcome label used in soak tables.
func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "corrected"
	case Restarted:
		return "restarted"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Injection schedules one fault: at hook tick Tick, corrupt element Elem of
// the workload's inject target Target with a pattern of the given Kind.
// Ticks count hook invocations monotonically across restarts, so a replayed
// step does not re-fire an already-delivered injection — each scheduled
// fault lands exactly once, mid-run.
type Injection struct {
	Tick   int
	Kind   bifit.Kind
	Target int // index into Workload.InjectTargets()
	Elem   int
}

// PlanInjections derives count injections of kind into w from seed: timing,
// target and element each come from a splitmix stream over seed, so the same
// seed injects the same faults at the same ticks. It is the one plan behind
// both a served request's faults and a soak cell's.
func PlanInjections(w Workload, seed uint64, kind bifit.Kind, count int) []Injection {
	if count <= 0 {
		return nil
	}
	targets, steps := w.InjectTargets(), w.Steps()
	next := func() uint64 { seed++; return campaign.Splitmix64(seed) }
	plan := make([]Injection, 0, count)
	for e := 0; e < count; e++ {
		ti := int(next() % uint64(len(targets)))
		plan = append(plan, Injection{
			Tick:   int(next() % uint64(steps)),
			Kind:   kind,
			Target: ti,
			Elem:   int(next() % uint64(len(targets[ti].T.Data))),
		})
	}
	return plan
}

// Report summarizes one coordinated run for the outcome tables.
type Report struct {
	Outcome      Outcome
	Injected     int // injections delivered
	HWCorrected  uint64
	Notified     uint64 // corruptions the OS exposed to ABFT (Case 2 traffic)
	Corrections  int    // elements ABFT repaired
	Degradations int    // notified→full verification fallbacks
	OSPanics     uint64 // Case 4 entries
	Restarts     int
	// RestartsTotal is the cumulative rollback count including the budget
	// carried in by Resume — the number the MaxRestarts cap is enforced
	// against, across migrations.
	RestartsTotal int
	Case3         int // restarts triggered by ABFT/verification failure
	Case4         int // restarts triggered by OS panic mode
	StepsLost     int
	// ResumedFrom is the step a Resume snapshot installed (0 fresh start).
	ResumedFrom int
	Checkpoints int
	Err         error // why the run Aborted (nil otherwise)
}

// Ladder event kinds delivered to OnEvent — the in-process feed the serving
// layer republishes on its error bus.
const (
	// EventFault: a run leg failed (ABFT escalation or OS panic) before
	// any rollback decision.
	EventFault = "fault"
	// EventEscalation: the ladder rolled back to a checkpoint and will
	// replay from the reported step.
	EventEscalation = "escalation"
	// EventCheckpoint: a checkpoint was committed at the reported step.
	EventCheckpoint = "checkpoint"
)

// errStillWrong marks an oracle failure that survived degraded verification.
var errStillWrong = errors.New("recovery: result fails verification after full sweep")

// ErrCancelled marks a run cut short by its context (deadline or
// cancellation). The run ends Aborted with this error wrapped around the
// context's cause, never with a partial result reported as success.
var ErrCancelled = errors.New("recovery: run cancelled by context")

// ctxAbort is the panic payload used to unwind out of a kernel's step loop
// when the coordinator's context expires; it never escapes runStep.
type ctxAbort struct{ cause error }

// errOSPanic marks a Case-4 panic observed after the kernel returned.
var errOSPanic = errors.New("recovery: OS entered panic mode (uncorrectable error outside ABFT data)")

// Coordinator wires one workload to the full ladder on one runtime.
type Coordinator struct {
	RT *core.Runtime
	W  Workload
	// Plan is the injection schedule (tick-sorted order not required).
	Plan []Injection
	// CheckpointEvery takes a checkpoint every that many hook ticks
	// (default 2; the tick-0 checkpoint of the pristine state is implied).
	CheckpointEvery int
	// MaxRestarts bounds Case-3/4 rollbacks before Aborted (default 3).
	MaxRestarts int
	// Ctx, when non-nil, bounds the run: once it is cancelled or past its
	// deadline the ladder aborts at the next step boundary instead of
	// computing (or escalating) further. Deadline-bound serving uses this
	// to propagate request deadlines into kernel execution.
	Ctx context.Context
	// Resume, when non-nil, seeds the run from a decoded checkpoint
	// snapshot (possibly taken on another node) instead of a fresh start:
	// the workload's registered state is installed, execution begins at the
	// snapshot's step, and the snapshot's consumed restart budget counts
	// against MaxRestarts.
	Resume *checkpoint.Snapshot
	// OnCheckpoint, when set, observes every committed checkpoint as a
	// wire-ready snapshot — the hook long-job serving uses to stream
	// checkpoints off-node. It runs on the kernel's step boundary; slow
	// observers should hand off asynchronously.
	OnCheckpoint func(checkpoint.Snapshot)
	// OnEvent, when set, observes ladder transitions (EventFault,
	// EventEscalation, EventCheckpoint) as they happen.
	OnEvent func(kind string, step int, detail string)

	ck          *checkpoint.Checkpointer
	tick        int
	lastStep    int
	seenDropped uint64
	rep         Report
}

// Run executes the workload under the escalation ladder and always returns
// a classified report — never a Go panic, never a wrong answer reported as
// success.
func (c *Coordinator) Run() Report {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 2
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 3
	}
	env := c.RT.Env()
	c.ck = checkpoint.New(env.Mem, env.Alloc)
	c.ck.MaxRestarts = c.MaxRestarts
	c.ck.Arena = env.Arena
	for _, s := range c.W.CheckpointSet() {
		c.ck.Register(s.Name, s.Data, s.Reg)
	}
	c.W.SetHook(c.onStep)

	step := 0
	if c.Resume != nil {
		if err := c.ck.Install(*c.Resume); err != nil {
			c.rep.Outcome = Aborted
			c.rep.Err = err
			c.finalize()
			return c.rep
		}
		step = c.Resume.Step
		c.rep.ResumedFrom = step
		c.lastStep = step
	}
	for {
		runErr := c.runStep(step)
		if errors.Is(runErr, ErrCancelled) {
			c.rep.Outcome = Aborted
			c.rep.Err = runErr
			c.finalize()
			return c.rep
		}
		if c.RT.M.OS.Panicked() {
			runErr = errOSPanic
		}
		if runErr == nil {
			runErr = c.finishVerify()
		}
		if runErr == nil {
			if c.rep.Restarts > 0 {
				c.rep.Outcome = Restarted
			} else {
				c.rep.Outcome = Corrected
			}
			c.finalize()
			return c.rep
		}
		// Case 3 (ABFT/verification failure) or Case 4 (OS panic): roll
		// back to the last checkpoint and replay.
		c.emit(EventFault, c.lastStep, runErr.Error())
		if errors.Is(runErr, errOSPanic) {
			c.rep.Case4++
		} else {
			c.rep.Case3++
		}
		resume, err := c.ck.Restore(c.lastStep)
		if err != nil {
			c.rep.Outcome = Aborted
			c.rep.Err = fmt.Errorf("%w (after: %w)", err, runErr)
			c.finalize()
			return c.rep
		}
		c.rep.Restarts++
		c.emit(EventEscalation, resume, fmt.Sprintf("rollback %d: replay from step %d", c.rep.Restarts, resume))
		c.cleanSlate()
		step = resume
	}
}

// runStep executes one RunFrom leg under the context guard: when the
// coordinator's context expires, onStep unwinds the kernel's step loop with
// a ctxAbort panic that is converted here into ErrCancelled. Any other
// panic is not ours and keeps propagating.
func (c *Coordinator) runStep(step int) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		ca, ok := p.(ctxAbort)
		if !ok {
			panic(p)
		}
		err = fmt.Errorf("%w: %w", ErrCancelled, ca.cause)
	}()
	return c.W.RunFrom(step)
}

// onStep is the per-step hook: checkpoint first (so snapshots are clean of
// this tick's faults), then deliver any injections scheduled for this tick.
func (c *Coordinator) onStep(step int) {
	if c.Ctx != nil {
		if err := c.Ctx.Err(); err != nil {
			panic(ctxAbort{cause: err})
		}
	}
	c.lastStep = step
	if c.tick%c.CheckpointEvery == 0 {
		c.ck.Checkpoint(step)
		c.emit(EventCheckpoint, step, "")
		if c.OnCheckpoint != nil {
			if snap, err := c.ck.Snapshot(); err == nil {
				c.OnCheckpoint(snap)
			}
		}
	}
	var targets []InjectTarget // resolved for the first injection due
	injected := false
	for _, inj := range c.Plan {
		if inj.Tick != c.tick {
			continue
		}
		if targets == nil {
			targets = c.W.InjectTargets()
		}
		if inj.Target < 0 || inj.Target >= len(targets) {
			continue
		}
		t := targets[inj.Target]
		if err := c.RT.Injector.InjectKind(t.T, inj.Elem, inj.Kind); err == nil {
			c.rep.Injected++
			injected = true
		}
	}
	if injected {
		// Evict the victim lines so the fault is observed at the next
		// demand read, like a DRAM error would be.
		c.RT.M.FlushCaches()
	}
	c.tick++
}

// finishVerify closes out a kernel run that returned cleanly: drain the
// remaining hardware notifications, degrade to a full verification sweep if
// notifications were lost or the result still fails its oracle, and gate
// success on the oracle check.
func (c *Coordinator) finishVerify() error {
	if err := c.W.DrainNotified(); err != nil {
		return err
	}
	if c.RT.M.OS.Panicked() {
		return errOSPanic
	}
	// Lost notifications (error-register overflow) mean the notified path
	// may have missed corruptions: fall back to the full sweep (§3.2.2's
	// graceful-degradation contract).
	if d := c.RT.M.Ctl.DroppedRecords(); d > c.seenDropped {
		c.seenDropped = d
		c.rep.Degradations++
		if err := c.W.FullVerify(); err != nil {
			return err
		}
		if c.RT.M.OS.Panicked() {
			return errOSPanic
		}
	}
	if err := c.W.Check(); err != nil {
		// Inconsistent result under notified verification: degrade to the
		// full sweep once, then re-check.
		c.rep.Degradations++
		if verr := c.W.FullVerify(); verr != nil {
			return verr
		}
		if c.RT.M.OS.Panicked() {
			return errOSPanic
		}
		if err := c.W.Check(); err != nil {
			return fmt.Errorf("%w: %w", errStillWrong, err)
		}
	}
	return nil
}

// cleanSlate models what a real restart does beyond restoring data: the
// job's pages are freed and re-mapped, so residual DRAM fault patterns
// under its address range are gone; stale corruption reports and panic mode
// are cleared with the old incarnation.
func (c *Coordinator) cleanSlate() {
	clear := func(base, size uint64) {
		for a := base &^ 63; a < base+size; a += 64 {
			_ = c.RT.M.OS.ClearFaultAt(a)
		}
	}
	for _, s := range c.W.CheckpointSet() {
		clear(s.Reg.Base, s.Reg.Size)
	}
	for _, t := range c.W.InjectTargets() {
		clear(t.T.Reg.Base, t.T.Reg.Size)
	}
	c.RT.M.OS.PendingCorruptions()
	c.RT.M.OS.ClearPanic()
}

// emit delivers a ladder event to the optional observer.
func (c *Coordinator) emit(kind string, step int, detail string) {
	if c.OnEvent != nil {
		c.OnEvent(kind, step, detail)
	}
}

// finalize snapshots platform counters into the report.
func (c *Coordinator) finalize() {
	c.rep.HWCorrected = c.RT.M.Ctl.Stats().CorrectedErrors
	os := c.RT.M.OS.Stats()
	c.rep.Notified = os.ExposedToABFT
	c.rep.OSPanics = os.Panics
	c.rep.Corrections = c.W.Corrections()
	st := c.ck.Stats()
	c.rep.StepsLost = st.StepsLost
	c.rep.RestartsTotal = st.Restarts
	c.rep.Checkpoints = st.Checkpoints
}
