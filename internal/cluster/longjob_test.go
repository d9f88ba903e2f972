package cluster

import (
	"net/http/httptest"
	"testing"
	"time"

	"coopabft/internal/checkpoint"
	"coopabft/internal/serve"
)

// longTestGateway builds a gateway with background machinery on (probes +
// event watchers), fronted by its own HTTP server so workers can stream
// checkpoints back, and a tight CheckpointEvery so migrations have fresh
// state to resume from.
func longTestGateway(t *testing.T, nodes ...NodeConfig) *Gateway {
	t.Helper()
	g, err := New(Config{
		Nodes:           nodes,
		Window:          8,
		Retries:         3,
		RetryBackoff:    time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		CheckpointEvery: 1,
		Seed:            19,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(NewHandler(g))
	t.Cleanup(ts.Close)
	g.SetSelfURL(ts.URL)
	return g
}

// TestLongJobMigratesOnWorkerDeath is the SIGKILL-mid-CG chaos gate: time a
// CG solve undisturbed (what a cold restart would cost), submit the same
// solve again as a long job, kill the worker executing it after the gateway
// has accepted a checkpoint, and require the job to finish converged on the
// other node, resumed from a step > 0, with exactly one migration and a
// fault-to-resumed latency below the undisturbed wall time: never a wrong
// answer, never a silent cold restart, and never a recovery that costs as
// much as starting over. `go test -run TestLongJobMigratesOnWorkerDeath -v`
// logs both times (EXPERIMENTS.md, migrate versus restart).
func TestLongJobMigratesOnWorkerDeath(t *testing.T) {
	nodes := map[string]*restartableNode{
		"n0": startRestartable(t, ""),
		"n1": startRestartable(t, ""),
	}
	g := longTestGateway(t,
		NodeConfig{ID: "n0", BaseURL: "http://" + nodes["n0"].addr},
		NodeConfig{ID: "n1", BaseURL: "http://" + nodes["n1"].addr},
	)
	req := serve.Request{Kernel: "cg", NX: 48, NY: 48, Seed: 3}

	t0 := time.Now()
	st, err := g.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	cold, coldWall := waitJob(t, g, st.ID), time.Since(t0)
	if cold.State != serve.JobDone || cold.Migrations != 0 || cold.Result == nil || cold.Result.Outcome != "corrected" {
		t.Fatalf("undisturbed solve: %+v", cold)
	}

	events, cancelSub := g.Bus().Subscribe(512)
	defer cancelSub()
	t0 = time.Now()
	if st, err = g.SubmitJob(req); err != nil {
		t.Fatal(err)
	}
	if !st.Long {
		t.Fatalf("CG job not admitted on the long path: %+v", st)
	}

	// Kill the executing worker only once a checkpoint has landed, so the
	// migration has state to resume from.
	var victim string
	waitFor(t, "first accepted checkpoint", func() bool {
		cur, err := g.JobStatusOf(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if terminal(cur.State) {
			t.Fatalf("job finished before the kill could land: %+v", cur)
		}
		victim = cur.Node
		return cur.Checkpoints >= 1 && cur.Step >= 1
	})
	nodes[victim].kill()
	final, killWall := waitJob(t, g, st.ID), time.Since(t0)
	t.Logf("cg 48x48 seed 3: undisturbed %d steps in %.1f ms; killed at a checkpoint, resumed from step %d, recovery %.1f ms, wall %.1f ms",
		cold.Step, ms(coldWall), final.ResumeStep, final.RecoveryMS, ms(killWall))

	if final.State != serve.JobDone {
		t.Fatalf("job state %q (error %q), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Outcome != "corrected" {
		t.Fatalf("result %+v, want corrected", final.Result)
	}
	if final.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", final.Migrations)
	}
	if final.ResumeStep <= 0 {
		t.Errorf("resume_step = %d, want > 0 (cold restart is a gate failure)", final.ResumeStep)
	}
	if final.Node == victim {
		t.Errorf("final node %s is the killed worker", victim)
	}
	if final.RecoveryMS <= 0 || final.RecoveryMS >= ms(coldWall) {
		t.Errorf("recovery_ms = %.1f, want inside (0, %.1f): migrating must beat the undisturbed solve a cold restart repeats",
			final.RecoveryMS, ms(coldWall))
	}
	if got := g.m.Migrations.Value(); got != 1 {
		t.Errorf("metrics migrations = %d, want 1", got)
	}
	if got := g.m.CheckpointsStored.Value(); got < 1 {
		t.Errorf("metrics checkpoints_stored = %d, want >= 1", got)
	}
	if g.m.RecoveryMSSum.Value() <= 0 {
		t.Error("metrics recovery_ms_sum not recorded")
	}
	if got := g.m.JobsFailed.Value(); got != 0 {
		t.Errorf("metrics jobs_failed = %d, want 0: the cluster lost a job", got)
	}

	// The error bus carried the fault story: the gateway published its own
	// node_death for the killed worker, and the replacement said in its own
	// words that it resumed from the shipped step (final.ResumeStep alone is
	// only what the gateway meant to ship).
	var sawDeath, sawResume bool
	waitFor(t, "node_death and the replacement's job_resumed on the gateway bus", func() bool {
		for {
			select {
			case e := <-events:
				if e.Type == serve.EventNodeDeath && e.Node == victim {
					sawDeath = true
				}
				if e.Type == serve.EventJobResumed && e.Job == st.ID && e.Node == final.Node {
					sawResume = true
					if e.Step != final.ResumeStep || e.Step <= 0 {
						t.Errorf("replacement %s resumed at step %d, gateway shipped step %d: cold restart", e.Node, e.Step, final.ResumeStep)
					}
				}
			default:
				return sawDeath && sawResume
			}
		}
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestLongJobEventRelay: a healthy single-node long job's fault-path
// events (job_resumed, checkpoint_committed, job_done) arrive on the
// gateway bus stamped with the worker's node ID.
func TestLongJobEventRelay(t *testing.T) {
	nd := startRestartable(t, "")
	g := longTestGateway(t, NodeConfig{ID: "w0", BaseURL: "http://" + nd.addr})

	st, err := g.SubmitJob(serve.Request{Kernel: "cg", NX: 12, NY: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "long job to finish", func() bool {
		cur, err := g.JobStatusOf(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return terminal(cur.State)
	})
	final, _ := g.JobStatusOf(st.ID)
	if final.State != serve.JobDone || final.Result == nil || final.Result.Outcome != "corrected" {
		t.Fatalf("final %+v, want done/corrected", final)
	}
	if final.Checkpoints < 1 || final.Step < 1 {
		t.Errorf("no checkpoints retained: %+v", final)
	}

	// Relay is asynchronous; wait for the terminal event to appear.
	waitFor(t, "job_done relayed onto the gateway bus", func() bool {
		for _, e := range g.Bus().Recent(0) {
			if e.Type == serve.EventJobDone && e.Job == st.ID && e.Node == "w0" {
				return true
			}
		}
		return false
	})
	var sawResume, sawCkpt bool
	for _, e := range g.Bus().Recent(0) {
		if e.Node != "w0" {
			continue
		}
		switch e.Type {
		case serve.EventJobResumed:
			sawResume = true
		case serve.EventCheckpoint:
			sawCkpt = true
		}
	}
	if !sawResume || !sawCkpt {
		t.Errorf("relay missed events: job_resumed=%v checkpoint_committed=%v", sawResume, sawCkpt)
	}
}

// TestAcceptCheckpointEpochAndStepGuards: a zombie incarnation's PUTs
// (old epoch) and non-advancing steps are discarded; fresh state lands.
func TestAcceptCheckpointEpochAndStepGuards(t *testing.T) {
	rec := &jobRecord{id: "j1"}
	rec.long.epoch = 2
	buf := checkpoint.Encode(checkpoint.Snapshot{Step: 4})

	if ok, _ := rec.acceptCheckpoint(1, 4, 0, buf); ok {
		t.Error("stale-epoch PUT accepted")
	}
	if ok, _ := rec.acceptCheckpoint(2, 4, 1, buf); !ok {
		t.Fatal("current-epoch PUT rejected")
	}
	if rec.status.Step != 4 || rec.status.Checkpoints != 1 || rec.status.RestartsUsed != 1 {
		t.Fatalf("status not updated: %+v", rec.status)
	}
	if ok, _ := rec.acceptCheckpoint(2, 4, 1, buf); ok {
		t.Error("non-advancing step accepted")
	}
	if ok, _ := rec.acceptCheckpoint(2, 8, 1, buf); !ok {
		t.Error("advancing step rejected")
	}
	if rec.status.Checkpoints != 2 {
		t.Errorf("checkpoints = %d, want 2", rec.status.Checkpoints)
	}
}
