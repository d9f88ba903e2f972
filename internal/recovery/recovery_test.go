package recovery

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"coopabft/internal/abft"
	"coopabft/internal/bifit"
	"coopabft/internal/checkpoint"
	"coopabft/internal/core"
	"coopabft/internal/machine"
	"coopabft/internal/trace"
)

func newRT(t *testing.T, s core.Strategy) *core.Runtime {
	t.Helper()
	return core.NewRuntime(machine.ScaledConfig(32), s, 7)
}

// TestCase1HardwareCorrects: a single-bit error under whole chipkill is the
// ladder's first rung — the memory controller fixes it in place and the run
// finishes without ABFT repair or rollback.
func TestCase1HardwareCorrects(t *testing.T) {
	rt := newRT(t, core.WholeChipkill)
	w, err := NewDGEMMWorkload(rt, 80, 3, abft.NotifiedVerify)
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{RT: rt, W: w,
		Plan: []Injection{{Tick: 1, Kind: bifit.SingleBit, Target: 0, Elem: 10}}}
	rep := co.Run()
	if rep.Outcome != Corrected {
		t.Fatalf("outcome = %v (err %v), want Corrected", rep.Outcome, rep.Err)
	}
	if rep.Injected != 1 {
		t.Errorf("injected = %d, want 1", rep.Injected)
	}
	if rep.HWCorrected == 0 {
		t.Error("hardware corrected nothing; the error never reached ECC")
	}
	if rep.Restarts != 0 || rep.Case3 != 0 || rep.Case4 != 0 {
		t.Errorf("Case 1 escalated: %+v", rep)
	}
}

// TestCase2NotifiedRepair: a double-bit error under SECDED-protected ABFT
// data is detected but not correctable in hardware; the OS exposes the
// address and ABFT rebuilds the element from its checksum.
func TestCase2NotifiedRepair(t *testing.T) {
	rt := newRT(t, core.PartialChipkillSECDED)
	w, err := NewDGEMMWorkload(rt, 80, 3, abft.NotifiedVerify)
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{RT: rt, W: w,
		Plan: []Injection{{Tick: 1, Kind: bifit.DoubleBitSameWord, Target: 0, Elem: 200}}}
	rep := co.Run()
	if rep.Outcome != Corrected {
		t.Fatalf("outcome = %v (err %v), want Corrected", rep.Outcome, rep.Err)
	}
	if rep.Notified == 0 {
		t.Error("OS exposed no corruption to ABFT; Case 2 path not exercised")
	}
	if rep.Corrections == 0 {
		t.Error("ABFT repaired nothing")
	}
	if rep.Restarts != 0 {
		t.Errorf("Case 2 should not roll back: %+v", rep)
	}
}

// TestFusedOnlineCorrectsSilentCorruption: under NoECC a chip failure in Cf
// is invisible to the hardware and the OS — the notified path would only
// learn about it from the end-of-run oracle. In fused mode the kernel's own
// boundary check detects and repairs it online: the run finishes Corrected
// with zero rollbacks and no OS involvement.
func TestFusedOnlineCorrectsSilentCorruption(t *testing.T) {
	rt := newRT(t, core.NoECC)
	w, err := NewDGEMMWorkload(rt, 80, 3, abft.FusedVerify)
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{RT: rt, W: w,
		Plan: []Injection{{Tick: 1, Kind: bifit.ChipFailure, Target: 0, Elem: 300}}}
	rep := co.Run()
	if rep.Outcome != Corrected {
		t.Fatalf("outcome = %v (err %v), want Corrected", rep.Outcome, rep.Err)
	}
	if rep.Corrections == 0 {
		t.Error("fused check repaired nothing")
	}
	if rep.Notified != 0 {
		t.Errorf("NoECC run saw %d OS notifications", rep.Notified)
	}
	if rep.Restarts != 0 {
		t.Errorf("online repair should not roll back: %+v", rep)
	}
}

// TestCase4PanicRestart: an uncorrectable error in NON-ABFT data (the
// Cholesky panel workspace) has no algorithmic fallback — the OS enters
// panic mode and the coordinator must restart from checkpoint.
func TestCase4PanicRestart(t *testing.T) {
	rt := newRT(t, core.WholeSECDED)
	w, err := NewCholeskyWorkload(rt, 96, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Target 3 is the unprotected workspace W (see cholWork.InjectTargets).
	co := &Coordinator{RT: rt, W: w,
		Plan: []Injection{{Tick: 1, Kind: bifit.DoubleBitSameWord, Target: 3, Elem: 40}}}
	rep := co.Run()
	if rep.Outcome != Restarted {
		t.Fatalf("outcome = %v (err %v), want Restarted", rep.Outcome, rep.Err)
	}
	if rep.OSPanics == 0 {
		t.Error("OS never entered panic mode")
	}
	if rep.Case4 == 0 {
		t.Errorf("restart not classified as Case 4: %+v", rep)
	}
	if rep.Restarts == 0 {
		t.Error("no restart recorded")
	}
}

// fakeWork is a minimal steppable workload with a hand-driven failure mode:
// at step corruptAtStep of the FIRST pass it silently corrupts state in a
// way FullVerify cannot repair, forcing the ladder onto the Case-3 rung.
type fakeWork struct {
	data    []float64
	reg     trace.Region
	hook    func(int)
	steps   int
	badStep int // -1 to disable
	fired   bool
	sticky  bool // corrupt on every pass (never recoverable)
	// sweepRepairs makes the corruption one FullVerify can undo (the
	// degrade path) instead of one only a rollback cures.
	sweepRepairs bool
	checks       int // Check() calls
	targetCalls  int // InjectTargets() calls
}

func (f *fakeWork) Name() string              { return "fake" }
func (f *fakeWork) Steps() int                { return f.steps }
func (f *fakeWork) SetHook(fn func(step int)) { f.hook = fn }

func (f *fakeWork) RunFrom(step int) error {
	for s := step; s < f.steps; s++ {
		f.hook(s)
		f.data[s] = float64(s + 1)
		if s == f.badStep && (!f.fired || f.sticky) {
			f.fired = true
			f.data[0] = -999 // silent corruption outside ABFT's reach
		}
	}
	return nil
}

func (f *fakeWork) CheckpointSet() []State {
	return []State{{Name: "fake.data", Data: f.data, Reg: f.reg}}
}
func (f *fakeWork) InjectTargets() []InjectTarget { f.targetCalls++; return []InjectTarget{} }
func (f *fakeWork) DrainNotified() error          { return nil }
func (f *fakeWork) FullVerify() error {
	if f.data[0] == -999 {
		if f.sweepRepairs {
			f.data[0] = 1
			return nil
		}
		return fmt.Errorf("fake: corruption beyond verification repair")
	}
	return nil
}
func (f *fakeWork) Check() error {
	f.checks++
	for s := 0; s < f.steps; s++ {
		if f.data[s] != float64(s+1) {
			return fmt.Errorf("fake: element %d corrupted", s)
		}
	}
	return nil
}
func (f *fakeWork) Corrections() int { return 0 }

// TestCase3RestartReplaysCorrectly: a Case-3 error (beyond ABFT) on a
// metered machine must roll back to the last checkpoint, replay the lost
// steps, and account for them accurately.
func TestCase3RestartReplaysCorrectly(t *testing.T) {
	rt := newRT(t, core.WholeChipkill)
	env := rt.Env()
	const steps = 6
	f := &fakeWork{
		data:    make([]float64, steps),
		reg:     env.Alloc("fake.data", steps, false),
		steps:   steps,
		badStep: steps - 1, // after the last checkpoint (ticks 0, 2, 4)
	}
	co := &Coordinator{RT: rt, W: f, CheckpointEvery: 2}
	rep := co.Run()
	if rep.Outcome != Restarted {
		t.Fatalf("outcome = %v (err %v), want Restarted", rep.Outcome, rep.Err)
	}
	if rep.Case3 != 1 || rep.Restarts != 1 {
		t.Errorf("Case3 = %d, Restarts = %d, want 1, 1", rep.Case3, rep.Restarts)
	}
	// Corruption at step 5, last checkpoint at step 4: exactly one step of
	// work is lost and replayed.
	if rep.StepsLost != 1 {
		t.Errorf("StepsLost = %d, want 1", rep.StepsLost)
	}
	// The replay must leave the state bit-correct.
	if err := f.Check(); err != nil {
		t.Errorf("state wrong after replay: %v", err)
	}
	// The run's traffic (checkpoints + restores) was metered on the machine.
	if res := rt.Finish(); res.SystemEnergyJ <= 0 || res.Seconds <= 0 {
		t.Errorf("metered run produced no cost: %+v", res)
	}
}

// TestOracleRunsOnEveryRequest: Workload.Check is the gate between a run and
// a "corrected" label, so the coordinator calls it on every run — exactly
// once when nothing went wrong, and a second time after the full sweep when
// the first verdict was "wrong" (the degrade path). A clean run that skipped
// it, or a degraded run that trusted the sweep, would show here.
func TestOracleRunsOnEveryRequest(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		badStep              int
		checks, degradations int
	}{
		{"clean", -1, 1, 0},
		{"degrade", 5, 2, 1},
	} {
		rt := core.NewFunctionalRuntime(machine.ScaledConfig(32), core.WholeChipkill, 7)
		const steps = 6
		f := &fakeWork{
			data:         make([]float64, steps),
			reg:          rt.Env().Alloc("fake.data", steps, false),
			steps:        steps,
			badStep:      tc.badStep,
			sweepRepairs: true,
		}
		rep := (&Coordinator{RT: rt, W: f}).Run()
		if rep.Outcome != Corrected || rep.Restarts != 0 {
			t.Errorf("%s: outcome %v with %d restarts (err %v), want corrected in place", tc.name, rep.Outcome, rep.Restarts, rep.Err)
		}
		if f.checks != tc.checks || rep.Degradations != tc.degradations {
			t.Errorf("%s: Check() ran %d times with %d degradations, want %d and %d",
				tc.name, f.checks, rep.Degradations, tc.checks, tc.degradations)
		}
	}
}

// TestInjectTargetsResolvedOnlyWhenDue: building the target list allocates
// (six slices for CG), so the step hook asks for it only on a tick that has
// an injection scheduled, not on every tick of a fault-free run.
func TestInjectTargetsResolvedOnlyWhenDue(t *testing.T) {
	for _, tc := range []struct {
		plan []Injection
		want int
	}{
		{nil, 0},
		{[]Injection{{Tick: 2}, {Tick: 2, Target: 1}, {Tick: 4}}, 2},
	} {
		rt := core.NewFunctionalRuntime(machine.ScaledConfig(32), core.WholeChipkill, 7)
		f := &fakeWork{data: make([]float64, 6), reg: rt.Env().Alloc("fake.data", 6, false), steps: 6, badStep: -1}
		if rep := (&Coordinator{RT: rt, W: f, Plan: tc.plan}).Run(); rep.Outcome != Corrected {
			t.Fatalf("outcome %v (err %v)", rep.Outcome, rep.Err)
		}
		if f.targetCalls != tc.want {
			t.Errorf("plan %v: InjectTargets called %d times over 6 ticks, want %d", tc.plan, f.targetCalls, tc.want)
		}
	}
}

// TestAbortedWhenBudgetExhausted: a fault that recurs on every replay must
// terminate in an explicit Aborted carrying the budget error — never a
// wrong answer, never an unbounded loop.
func TestAbortedWhenBudgetExhausted(t *testing.T) {
	rt := newRT(t, core.WholeChipkill)
	env := rt.Env()
	const steps = 6
	f := &fakeWork{
		data:    make([]float64, steps),
		reg:     env.Alloc("fake.data", steps, false),
		steps:   steps,
		badStep: steps - 1,
		sticky:  true,
	}
	co := &Coordinator{RT: rt, W: f, CheckpointEvery: 2, MaxRestarts: 2}
	rep := co.Run()
	if rep.Outcome != Aborted {
		t.Fatalf("outcome = %v, want Aborted", rep.Outcome)
	}
	if !errors.Is(rep.Err, checkpoint.ErrRestartBudget) {
		t.Errorf("err = %v, want ErrRestartBudget", rep.Err)
	}
	if rep.Restarts != 2 {
		t.Errorf("Restarts = %d, want the full budget of 2", rep.Restarts)
	}
}

// TestOutcomeStrings pins the labels used by the soak tables.
func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		Corrected: "corrected", Restarted: "restarted", Aborted: "aborted",
		Outcome(9): "Outcome(9)",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o, want)
		}
	}
}

// TestCtxCancelAborts: a coordinator whose context is already cancelled
// aborts at the first step boundary with the typed ErrCancelled, before
// computing anything — the deadline-propagation contract the serving path
// relies on.
func TestCtxCancelAborts(t *testing.T) {
	rt := newRT(t, core.WholeChipkill)
	w, err := NewDGEMMWorkload(rt, 80, 3, abft.NotifiedVerify)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	co := &Coordinator{RT: rt, W: w, Ctx: ctx}
	rep := co.Run()
	if rep.Outcome != Aborted {
		t.Fatalf("outcome = %v, want Aborted", rep.Outcome)
	}
	if !errors.Is(rep.Err, ErrCancelled) || !errors.Is(rep.Err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", rep.Err)
	}
	if rep.Restarts != 0 || rep.Case3 != 0 || rep.Case4 != 0 {
		t.Errorf("cancelled run escalated: %+v", rep)
	}
}

// TestCtxCancelMidRun cancels the context from inside the step stream —
// deterministically, at the third hook tick — and asserts the run is cut
// at a step boundary instead of completing or looping in restarts.
func TestCtxCancelMidRun(t *testing.T) {
	rt := newRT(t, core.WholeChipkill)
	w, err := NewDGEMMWorkload(rt, 96, 3, abft.NotifiedVerify)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wrapped := &hookCountingWorkload{Workload: w, onTick: func(n int) {
		if n == 3 {
			cancel()
		}
	}}
	co := &Coordinator{RT: rt, W: wrapped, Ctx: ctx}
	rep := co.Run()
	if rep.Outcome != Aborted {
		t.Fatalf("outcome = %v (err %v), want Aborted", rep.Outcome, rep.Err)
	}
	if !errors.Is(rep.Err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", rep.Err)
	}
	if rep.Restarts != 0 {
		t.Errorf("cancelled run rolled back %d times", rep.Restarts)
	}
}

// hookCountingWorkload chains a tick observer in front of whatever hook
// the coordinator installs, so tests can react to step progress.
type hookCountingWorkload struct {
	Workload
	onTick func(n int)
	n      int
}

func (h *hookCountingWorkload) SetHook(fn func(step int)) {
	h.Workload.SetHook(func(step int) {
		h.n++
		h.onTick(h.n)
		fn(step)
	})
}
