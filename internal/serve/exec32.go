package serve

import (
	"errors"
	"fmt"
	"math"

	"coopabft/internal/abft"
	"coopabft/internal/campaign"
	"coopabft/internal/mat"
	"coopabft/internal/recovery"
)

// runLadder32 is the mixed-precision analogue of runLadder: it drives
// abft.GEMM32 — whose online checksums and adaptive thresholds ARE the
// verification — through the same transient-fault recovery discipline the
// float64 coordinator provides. Detected result corruption is repaired in
// place (Corrected); operand corruption is detection-only, so the attempt
// is discarded and rebuilt from the seed (Restarted), bounded by the
// maxRestarts budget; anything else is Aborted. GEMM32 runs on plain
// memory, outside the simulated-DRAM coordinator, so the fault model is the
// splitmix bit-flip plan below rather than the bifit kinds. Every attempt's
// operands, product and checksum vectors, and the oracle's temporaries, come
// from arena, which the caller releases. Every attempt resets one kernel
// object, taken from the service's list; the caller puts it back, and finds
// it nil after a panic, as runLadder's node.
func (s *Service) runLadder32(j *job, arena *mat.Arena) (rep recovery.Report, g *abft.GEMM32) {
	defer func() {
		if p := recover(); p != nil {
			rep = recovery.Report{Outcome: recovery.Aborted,
				Err: fmt.Errorf("serve: f32 kernel panicked: %v", p)}
			*arena = mat.Arena{} // as in runLadder: the buffers fall to the GC
			g = nil
		}
	}()

	g, ok := s.gemm32s.Get()
	if !ok {
		g = new(abft.GEMM32)
	}
	p := j.req
	restarts, corrections, injected := 0, 0, 0
	for {
		if err := j.ctx.Err(); err != nil {
			return recovery.Report{Outcome: recovery.Aborted, Injected: injected,
				Corrections: corrections, Restarts: restarts, RestartsTotal: restarts, Err: err}, g
		}
		if err := g.Reset(arena, p.N, p.Seed); err != nil {
			return recovery.Report{Outcome: recovery.Aborted, Err: err}, g
		}
		if restarts == 0 && p.Faults > 0 {
			// Transient model: faults strike the first incarnation only —
			// a rebuilt attempt reruns on fresh memory, like the float64
			// ladder's checkpoint replay.
			injected = armPlan32(g, p)
		}
		runErr := g.Run()
		corrections += len(g.Corrections)
		if runErr != nil {
			if !errors.Is(runErr, abft.ErrUncorrectable) {
				return recovery.Report{Outcome: recovery.Aborted, Injected: injected,
					Corrections: corrections, Restarts: restarts, RestartsTotal: restarts, Err: runErr}, g
			}
			restarts++
			if restarts > maxRestarts {
				return recovery.Report{Outcome: recovery.Aborted, Injected: injected,
					Corrections: corrections, Restarts: restarts, RestartsTotal: restarts,
					Err: fmt.Errorf("serve: f32 restart budget (%d) exhausted: %w", maxRestarts, runErr)}, g
			}
			continue
		}
		if p.Faults > 0 {
			// Chaos requests are oracle-gated like the float64 ladder: the
			// answer must match a pristine recomputation under the adaptive
			// element bound, or the request refuses rather than lie.
			if err := oracle32(g, p); err != nil {
				return recovery.Report{Outcome: recovery.Aborted, Injected: injected,
					Corrections: corrections, Restarts: restarts, RestartsTotal: restarts, Err: err}, g
			}
		}
		rep = recovery.Report{Outcome: recovery.Corrected, Injected: injected,
			Corrections: corrections, Restarts: restarts, RestartsTotal: restarts}
		if restarts > 0 {
			rep.Outcome = recovery.Restarted
		}
		return rep, g
	}
}

// armPlan32 derives the request's bit-flip schedule from its seed — the
// same splitmix stream discipline as recovery.PlanInjections, so a replayed
// seed flips the same bits at the same panels — and installs it on the run's
// OnPanel hook. Each fault flips the top exponent bit (bit 30) of one
// element of C, A, or B at the top of one panel: C flips exercise
// locate-and-repair, operand flips exercise detect-and-restart.
func armPlan32(g *abft.GEMM32, p Parsed) int {
	type flip struct {
		panel, target int
		idx           int
	}
	st := p.Seed
	next := func() uint64 { st++; return campaign.Splitmix64(st) }
	plan := make([]flip, 0, p.Faults)
	for e := 0; e < p.Faults; e++ {
		f := flip{panel: int(next() % uint64(g.Panels()))}
		f.target = int(next() % 4) // 0,1 → C (result faults dominate), 2 → A, 3 → B
		switch f.target {
		case 2:
			f.idx = int(next() % uint64(len(g.A.Data)))
		case 3:
			f.idx = int(next() % uint64(len(g.B.Data)))
		default:
			f.idx = int(next() % uint64(len(g.C.Data)))
		}
		plan = append(plan, f)
	}
	g.OnPanel = func(panel int) {
		for _, f := range plan {
			if f.panel != panel {
				continue
			}
			d := g.C.Data
			if f.target == 2 {
				d = g.A.Data
			} else if f.target == 3 {
				d = g.B.Data
			}
			d[f.idx] = math.Float32frombits(math.Float32bits(d[f.idx]) ^ (1 << 30))
		}
	}
	return len(plan)
}

// oracle32 recomputes the answer from pristine operands (regenerated from
// the seed, so injected operand corruption cannot launder itself into the
// reference) in float64 and compares under the adaptive element bound.
func oracle32(g *abft.GEMM32, p Parsed) error {
	if err := g.CheckPristine(p.Seed); err != nil {
		return fmt.Errorf("serve: f32 oracle: %w", err)
	}
	return nil
}
