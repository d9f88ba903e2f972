// Package checkpoint provides the checkpoint/restart substrate the paper
// uses as the fallback for errors neither ECC nor ABFT can correct (§4
// Cases 3–4) and as the baseline ABFT eliminates ("reduce or even eliminate
// the expensive periodic checkpoint/rollback"). Snapshots go to a tagged,
// unprotected "stable storage" region, so when a Checkpointer is bound to a
// simulated machine, checkpoint and restart traffic is metered like any
// other memory traffic and their time/energy cost emerges from the model.
package checkpoint

import (
	"errors"
	"fmt"

	"coopabft/internal/mat"
	"coopabft/internal/trace"
)

// ErrNoCheckpoint is returned by Restore when nothing has been saved.
var ErrNoCheckpoint = errors.New("checkpoint: no checkpoint taken yet")

// ErrRestartBudget is returned by Restore when MaxRestarts is exhausted —
// the signal that escalation must terminate in an Aborted outcome instead
// of looping forever on a persistent fault.
var ErrRestartBudget = errors.New("checkpoint: restart budget exhausted")

// Alloc reserves n float64s of tagged storage (the kernel Env allocator
// signature).
type Alloc func(name string, n int, abft bool) trace.Region

// target couples application state with its live region for traffic
// metering. A zero region (standalone runs) is fine — touches are no-ops.
type target struct {
	name string
	data []float64
	reg  trace.Region
}

// Stats counts checkpoint activity.
type Stats struct {
	Checkpoints   int
	Restarts      int
	BytesPerCkpt  uint64
	StepsLost     int // work discarded by restarts (steps since last save)
	LastSavedStep int
}

// Checkpointer snapshots registered state at step boundaries.
type Checkpointer struct {
	// MaxRestarts caps how many times Restore may roll back (0 = unlimited).
	// The cap bounds the recovery ladder: a fault that keeps recurring after
	// MaxRestarts replays is treated as unsurvivable.
	MaxRestarts int
	// Arena, when set before the first Checkpoint or Install, supplies the
	// shadow copies' storage (nil: the heap). Snapshot deep-copies, so what
	// leaves the node never aliases it.
	Arena *mat.Arena

	mem     *trace.Memory
	alloc   Alloc
	storage trace.Region
	targets []target
	saved   [][]float64
	stored  bool // storage and saved are allocated
	step    int
	have    bool
	stats   Stats
}

// New builds a checkpointer over the given instrumentation endpoint and
// allocator (use the kernel Env's fields; both may come from
// abft.Standalone for unmetered runs).
func New(mem *trace.Memory, alloc Alloc) *Checkpointer {
	c := new(Checkpointer)
	c.Reset(mem, alloc)
	return c
}

// Reset makes c the checkpointer New(mem, alloc) builds, over the target
// and shadow lists c grew: it is the constructor's body. Nothing from before
// the call may still be in use; the shadow copies are forgotten, not
// released (they were the old Arena's).
func (c *Checkpointer) Reset(mem *trace.Memory, alloc Alloc) {
	clear(c.targets)
	clear(c.saved)
	*c = Checkpointer{mem: mem, alloc: alloc, targets: c.targets[:0], saved: c.saved[:0]}
}

// Register adds application state to the checkpoint set. reg is the state's
// live region (zero Region for unmetered data). Must be called before the
// first Checkpoint.
func (c *Checkpointer) Register(name string, data []float64, reg trace.Region) {
	if c.have {
		panic(fmt.Sprintf("checkpoint: Register(%q) after a checkpoint was taken", name))
	}
	c.targets = append(c.targets, target{name: name, data: data, reg: reg})
	c.stats.BytesPerCkpt += uint64(len(data)) * 8
}

// ensureStorage allocates stable storage and the shadow copies once, sized
// to the state.
func (c *Checkpointer) ensureStorage() {
	if c.stored {
		return
	}
	c.stored = true
	total := 0
	for _, t := range c.targets {
		c.saved = append(c.saved, c.Arena.Floats(len(t.data)))
		total += len(t.data)
	}
	if c.alloc != nil {
		c.storage = c.alloc("checkpoint.storage", total, false)
	}
}

// Checkpoint snapshots all registered state at the given step, touching the
// live data (reads) and stable storage (writes) so the platform charges the
// traffic.
func (c *Checkpointer) Checkpoint(step int) {
	c.ensureStorage()
	off := 0
	for i, t := range c.targets {
		copy(c.saved[i], t.data)
		c.mem.TouchFloats(t.reg, 0, len(t.data), false)
		c.mem.TouchFloats(c.storage, off, len(t.data), true)
		off += len(t.data)
	}
	c.have = true
	c.step = step
	c.stats.Checkpoints++
	c.stats.LastSavedStep = step
}

// Restore rolls every target back to the last checkpoint and returns the
// step to resume from. The lost work (currentStep − savedStep) is recorded.
func (c *Checkpointer) Restore(currentStep int) (int, error) {
	if !c.have {
		return 0, ErrNoCheckpoint
	}
	if c.MaxRestarts > 0 && c.stats.Restarts >= c.MaxRestarts {
		return 0, fmt.Errorf("%w: %d restart(s) used", ErrRestartBudget, c.stats.Restarts)
	}
	off := 0
	for i, t := range c.targets {
		copy(t.data, c.saved[i])
		c.mem.TouchFloats(c.storage, off, len(t.data), false)
		c.mem.TouchFloats(t.reg, 0, len(t.data), true)
		off += len(t.data)
	}
	c.stats.Restarts++
	if currentStep > c.step {
		c.stats.StepsLost += currentStep - c.step
	}
	return c.step, nil
}

// Stats returns activity counters.
func (c *Checkpointer) Stats() Stats { return c.stats }
