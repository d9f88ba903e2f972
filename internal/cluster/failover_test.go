package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"coopabft/internal/bifit"
	"coopabft/internal/core"
	"coopabft/internal/serve"
	"coopabft/internal/serve/loadgen"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// failoverCluster starts three restartable nodes n0..n2.
func failoverCluster(t *testing.T) (map[string]*restartableNode, []NodeConfig) {
	t.Helper()
	nodes := map[string]*restartableNode{}
	var cfgs []NodeConfig
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("n%d", i)
		nodes[id] = startRestartable(t, "")
		cfgs = append(cfgs, NodeConfig{ID: id, BaseURL: nodes[id].url()})
	}
	return nodes, cfgs
}

// failoverGateway fronts cfgs with fast failover knobs. probeInterval < 0
// means no prober and no event watchers: nothing but a failed request tells
// the gateway that a node died.
func failoverGateway(t *testing.T, cfgs []NodeConfig, probeInterval time.Duration, breakerFailures int) *Gateway {
	t.Helper()
	g, err := New(Config{
		Nodes:           cfgs,
		Window:          8,
		Retries:         3,
		RetryBackoff:    time.Millisecond,
		ProbeInterval:   probeInterval,
		ProbeTimeout:    250 * time.Millisecond,
		BreakerFailures: breakerFailures,
		BreakerCooldown: 100 * time.Millisecond,
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// TestThreeNodeFailoverAndRejoin is the in-process version of the CI
// chaos smoke: kill the node that owns a key mid-stream, require every
// subsequent request to still classify (zero wrong answers), watch the
// probe mark it unhealthy, restart it on the same address, and require
// placement to return to it.
//
// Two gateways front the same three nodes. The probing one can learn of the
// death from its event stream or a health probe before the first post-kill
// request is even sent, in which case no request of its ever dials the dead
// node; so the live-failover path (connection refused → runner-up) is
// asserted on a second gateway with no background detection, where the
// first request after the kill must take it.
func TestThreeNodeFailoverAndRejoin(t *testing.T) {
	nodes, cfgs := failoverCluster(t)
	g := failoverGateway(t, cfgs, 25*time.Millisecond, 2)
	blind := failoverGateway(t, cfgs, -1, 2)

	doOn := func(g *Gateway, seed uint64) serve.Response {
		t.Helper()
		resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: seed, Faults: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if resp.Outcome != "corrected" && resp.Outcome != "restarted" && resp.Outcome != "aborted" {
			t.Fatalf("seed %d: wrong answer: outcome %q", seed, resp.Outcome)
		}
		return resp
	}
	do := func(seed uint64) serve.Response { t.Helper(); return doOn(g, seed) }

	owner := do(1).Node
	if o := doOn(blind, 1).Node; o != owner {
		t.Fatalf("gateways disagree on the key's owner: %s vs %s", owner, o)
	}
	victim := nodes[owner]
	victim.kill() // SIGKILL analogue: connections refused, no drain

	// With nothing to warn it, the blind gateway dials the dead owner and
	// fails over live.
	if resp := doOn(blind, 2); resp.Node == owner || resp.GatewayRetries == 0 {
		t.Errorf("blind gateway: node %s after %d retries, want a live failover off %s",
			resp.Node, resp.GatewayRetries, owner)
	}
	if blind.m.Node(owner).TransportErrors.Value() == 0 {
		t.Error("killed node recorded no transport errors")
	}

	// Every request during the outage must still classify, whether it
	// failed over live or was routed around a death already detected.
	for seed := uint64(3); seed <= 20; seed++ {
		if resp := do(seed); resp.Node == owner {
			t.Fatalf("seed %d answered by killed node %s", seed, owner)
		}
	}
	statusOf := func(id string) NodeStatus {
		for _, st := range g.Status() {
			if st.ID == id {
				return st
			}
		}
		t.Fatalf("node %s missing from status", id)
		return NodeStatus{}
	}
	waitFor(t, "probe to mark "+owner+" unhealthy", func() bool { return !statusOf(owner).Healthy })

	victim.start() // restart on the same address
	waitFor(t, "probe to mark "+owner+" healthy again", func() bool {
		st := statusOf(owner)
		return st.Healthy && st.Breaker == "closed"
	})
	// Placement returns to the owner: same key, fresh seeds.
	waitFor(t, "placement to return to "+owner, func() bool {
		return do(1000+uint64(time.Now().UnixNano()%1000)).Node == owner
	})
}

// TestSweepSurvivesOwnerDeath is the kill-mid-sweep gate: a fixed-count
// fault-injected sweep driven over HTTP through a gateway on three nodes,
// with the node that owns the gemm key killed once the gateway has delivered
// a third of the plan (inside the second gemm cell). Nothing may come back
// outside the taxonomy or as a transport error, and at least 95% of what was
// sent must complete.
//
// It runs against a probing gateway, which may learn of the death from its
// event stream before any request dials the corpse, and against a blind one
// whose breaker never opens, where every gemm request after the kill has to
// fail over live or is lost.
func TestSweepSurvivesOwnerDeath(t *testing.T) {
	sweep := loadgen.Config{
		Seed:          11,
		Requests:      30,
		Rates:         []float64{200},
		Kernels:       []serve.Kernel{serve.KernelGEMM, serve.KernelCholesky},
		Strategies:    []core.Strategy{core.WholeChipkill, core.PartialChipkillSECDED},
		N:             48,
		FaultFraction: 0.25,
		FaultKind:     bifit.ChipFailure,
		Timeout:       30 * time.Second,
	}
	const plan = 2 * 2 * 30
	for _, tc := range []struct {
		name            string
		probeInterval   time.Duration
		breakerFailures int
	}{
		{"probing", 25 * time.Millisecond, 2},
		{"blind", -1, 10 * plan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, cfgs := failoverCluster(t)
			g := failoverGateway(t, cfgs, tc.probeInterval, tc.breakerFailures)
			ts := httptest.NewServer(NewHandler(g))
			t.Cleanup(ts.Close)

			probe, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: sweep.N, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			owner := probe.Node
			before := g.m.Delivered.Value()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			struck := make(chan bool, 1)
			go func() {
				for g.m.Delivered.Value()-before < plan/3 {
					if sleepCtx(ctx, time.Millisecond) != nil {
						struck <- false
						return
					}
				}
				nodes[owner].kill()
				struck <- true
			}()
			res, err := loadgen.Run(ctx, &loadgen.HTTPClient{Base: ts.URL, Retry429: 2}, sweep)
			if err != nil {
				t.Fatal(err)
			}
			cancel()
			if !<-struck {
				t.Fatalf("sweep ended before a third of its %d requests were delivered: %s", plan, res.Table())
			}

			totals := res.Totals()
			if res.Sent() != plan {
				t.Fatalf("sent %d, want the fixed plan of %d", res.Sent(), plan)
			}
			if totals.Unclassified != 0 {
				t.Errorf("%d answers outside corrected/restarted/aborted", totals.Unclassified)
			}
			if totals.Errors != 0 {
				t.Errorf("%d transport errors reached the client", totals.Errors)
			}
			if frac := float64(res.Completed()) / float64(res.Sent()); frac < 0.95 {
				t.Errorf("completed %d of %d (%.0f%%), want >= 95%%: failover did not absorb the kill\n%s",
					res.Completed(), res.Sent(), 100*frac, res.Table())
			}
			if struckCell := res.Cells[1]; struckCell.PerNode[owner] == struckCell.Completed {
				t.Errorf("the kill missed the second gemm cell: %s answered all %d of its requests", owner, struckCell.Completed)
			}
			if tc.probeInterval < 0 && totals.Retried == 0 {
				t.Error("blind gateway delivered nothing by live failover")
			}
		})
	}
}

// TestSingleNodeClusterMatchesDirect: the acceptance gate — the same
// fixed-count seeded sweep against (a) an in-process Service and (b) a
// gateway fronting one identically-configured node yields bit-for-bit
// identical outcome tables. The gateway adds routing, never semantics.
func TestSingleNodeClusterMatchesDirect(t *testing.T) {
	sweep := loadgen.Config{
		Seed:          41,
		Requests:      10, // fixed-count: the sweep is a pure function of Seed
		Rates:         []float64{400},
		Kernels:       []serve.Kernel{serve.KernelGEMM, serve.KernelCholesky},
		Strategies:    []core.Strategy{core.WholeChipkill, core.PartialChipkillSECDED},
		N:             32,
		FaultFraction: 0.6,
		Timeout:       30 * time.Second,
	}
	svcCfg := serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second}

	direct := serve.New(svcCfg)
	defer direct.Close()
	want, err := loadgen.Run(context.Background(), direct, sweep)
	if err != nil {
		t.Fatal(err)
	}

	g := testGateway(t, NodeConfig{ID: "solo", BaseURL: serveNode(t)})
	got, err := loadgen.Run(context.Background(), g, sweep)
	if err != nil {
		t.Fatal(err)
	}

	if len(want.Cells) != len(got.Cells) {
		t.Fatalf("cell count %d vs %d", len(want.Cells), len(got.Cells))
	}
	for i := range want.Cells {
		w, c := want.Cells[i], got.Cells[i]
		type table struct {
			Sent, Completed, Corrected, Restarted, Aborted    int
			Overloaded, QueueTimeout, Errors, Unclassified    int
			InjectedReqs, FaultsLanded, Corrections, Restarts int
		}
		wt := table{w.Sent, w.Completed, w.Corrected, w.Restarted, w.Aborted,
			w.Overloaded, w.QueueTimeout, w.Errors, w.Unclassified,
			w.InjectedReqs, w.FaultsLanded, w.Corrections, w.Restarts}
		ct := table{c.Sent, c.Completed, c.Corrected, c.Restarted, c.Aborted,
			c.Overloaded, c.QueueTimeout, c.Errors, c.Unclassified,
			c.InjectedReqs, c.FaultsLanded, c.Corrections, c.Restarts}
		if wt != ct {
			t.Errorf("cell %v/%v: direct %+v vs cluster %+v",
				w.Kernel, w.Strategy, wt, ct)
		}
		if c.Retried != 0 {
			t.Errorf("cell %v/%v: single-node cluster retried %d delivered answers",
				c.Kernel, c.Strategy, c.Retried)
		}
	}
}
