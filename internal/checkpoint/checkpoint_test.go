package checkpoint

import (
	"errors"
	"testing"

	"coopabft/internal/abft"
	"coopabft/internal/trace"
)

func newStandalone() (*Checkpointer, abft.Env) {
	env := abft.Standalone()
	return New(env.Mem, env.Alloc), env
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	c, _ := newStandalone()
	x := []float64{1, 2, 3}
	y := []float64{4, 5}
	c.Register("x", x, trace.Region{})
	c.Register("y", y, trace.Region{})

	c.Checkpoint(10)
	x[0], y[1] = -99, -99
	step, err := c.Restore(15)
	if err != nil {
		t.Fatal(err)
	}
	if step != 10 {
		t.Errorf("resume step = %d", step)
	}
	if x[0] != 1 || y[1] != 5 {
		t.Errorf("state not restored: %v %v", x, y)
	}
	st := c.Stats()
	if st.Checkpoints != 1 || st.Restarts != 1 || st.StepsLost != 5 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesPerCkpt != 40 {
		t.Errorf("bytes = %d", st.BytesPerCkpt)
	}
}

func TestRestoreWithoutCheckpoint(t *testing.T) {
	c, _ := newStandalone()
	c.Register("x", []float64{1}, trace.Region{})
	if _, err := c.Restore(5); err != ErrNoCheckpoint {
		t.Errorf("err = %v", err)
	}
	if c.have {
		t.Error("a snapshot is recorded before any save")
	}
}

func TestRegisterAfterCheckpointPanics(t *testing.T) {
	c, _ := newStandalone()
	c.Register("x", []float64{1}, trace.Region{})
	c.Checkpoint(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Register("y", []float64{2}, trace.Region{})
}

func TestLatestCheckpointWins(t *testing.T) {
	c, _ := newStandalone()
	x := []float64{1}
	c.Register("x", x, trace.Region{})
	c.Checkpoint(1)
	x[0] = 2
	c.Checkpoint(7)
	x[0] = 3
	step, _ := c.Restore(9)
	if step != 7 || x[0] != 2 {
		t.Errorf("step=%d x=%v", step, x)
	}
}

func TestTrafficIsMetered(t *testing.T) {
	var lines int
	env := abft.Standalone()
	env.Mem = &trace.Memory{Probe: func(addr uint64, write bool) { lines++ }}
	c := New(env.Mem, env.Alloc)
	data := make([]float64, 1024) // 8KB = 128 lines
	reg := env.Alloc("state", 1024, true)
	c.Register("state", data, reg)
	c.Checkpoint(0)
	// read 128 lines of state + write 128 lines of storage.
	if lines != 256 {
		t.Errorf("checkpoint touched %d lines, want 256", lines)
	}
	lines = 0
	if _, err := c.Restore(1); err != nil {
		t.Fatal(err)
	}
	if lines != 256 {
		t.Errorf("restore touched %d lines, want 256", lines)
	}
}

func TestCheckpointWithCGKernel(t *testing.T) {
	// End-to-end: checkpoint a CG solver mid-run, corrupt it beyond ABFT's
	// reach (simulated), restore, and finish.
	env := abft.Standalone()
	cg := abft.NewCG(env, 16, 16, 3)
	cg.CheckPeriod = 0 // ABFT disabled: checkpointing is the only defense
	c := New(env.Mem, env.Alloc)
	// For CG, checkpointing x suffices: the restart rebuilds r, z, p and ρ
	// from it (exactly what a checkpointed solver does on restart).
	x, ok := cg.VecFor("x")
	if !ok {
		t.Fatal("no x")
	}
	c.Register("x", x.Data, x.Reg)
	restored := false
	cg.OnIteration = func(iter int) {
		switch {
		case iter == 10:
			c.Checkpoint(iter)
		case iter == 20 && !restored:
			restored = true
			cg.X()[5] += 1e9 // catastrophic, undetected corruption
			if _, err := c.Restore(iter); err != nil {
				t.Fatal(err)
			}
			cg.Recover() // rebuild iteration state from the restored x
		}
	}
	out, err := cg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged || cg.TrueResidual() > 1e-6 {
		t.Fatalf("restart did not save the solve: %+v res=%g", out, cg.TrueResidual())
	}
	if c.Stats().Restarts != 1 {
		t.Errorf("restarts = %d", c.Stats().Restarts)
	}
}

func TestRestartBudgetExhaustion(t *testing.T) {
	c, _ := newStandalone()
	c.MaxRestarts = 2
	x := []float64{1, 2, 3}
	c.Register("x", x, trace.Region{})
	c.Checkpoint(0)

	for i := 0; i < 2; i++ {
		x[0] = -1
		if _, err := c.Restore(i + 1); err != nil {
			t.Fatalf("restore %d within budget failed: %v", i+1, err)
		}
		if x[0] != 1 {
			t.Fatalf("restore %d did not roll back", i+1)
		}
	}
	if _, err := c.Restore(5); !errors.Is(err, ErrRestartBudget) {
		t.Errorf("restore beyond budget: err = %v, want ErrRestartBudget", err)
	}
	if got := c.Stats().Restarts; got != 2 {
		t.Errorf("Restarts = %d, want 2 (budget-refused restore must not count)", got)
	}
}

func TestUnlimitedRestartsByDefault(t *testing.T) {
	c, _ := newStandalone()
	x := []float64{1}
	c.Register("x", x, trace.Region{})
	c.Checkpoint(0)
	for i := 0; i < 10; i++ {
		if _, err := c.Restore(i); err != nil {
			t.Fatalf("restore %d with MaxRestarts=0 failed: %v", i, err)
		}
	}
}
