package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// sortedKeys lists a map's keys in order, space-separated.
func sortedKeys(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestMetricsSnapshotKeySet pins the /debug/vars names the gateway exports,
// the per-node map's included: dashboards and the wiring smoke read them.
func TestMetricsSnapshotKeySet(t *testing.T) {
	var hits atomic.Int64
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: stubNode(t, okStub(t, &hits, "corrected"))})
	if _, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	snap := g.m.Snapshot()
	const want = "aborted bad_requests block_recomputes block_tasks_dispatched checkpoints_stale " +
		"checkpoints_stored checksum_tasks corrected delivered events_dropped events_published " +
		"events_relayed jobs_cancelled jobs_completed jobs_failed jobs_long jobs_passthrough " +
		"jobs_submitted migrations no_nodes node_deaths nodes overloaded quorum_fail " +
		"reconstructions recovery_ms_sum requests restarted retries suspect_trips suspects_per_node " +
		"suspects_total throttled unavailable verify_vote_cheap_hits votes_total"
	if got := sortedKeys(snap); got != want {
		t.Errorf("snapshot keys\n got  %s\n want %s", got, want)
	}
	n0, _ := snap["nodes"].(map[string]any)["n0"].(map[string]any)
	const wantNode = "breaker_skips breaker_trips delivered failed_503 forwarded healthy inflight " +
		"queue_depth rejected_429 suspect_trips suspects transport_errors window_skips"
	if got := sortedKeys(n0); got != wantNode {
		t.Errorf("per-node keys\n got  %s\n want %s", got, wantNode)
	}
	if got := sortedKeys(snap["suspects_per_node"].(map[string]any)); got != "n0" {
		t.Errorf("suspects_per_node keys %q", got)
	}
}

// books is what one reply leaves on its node's ledger.
type books struct {
	forwarded, delivered, rejected429, failed503, transportErrors, trips int64
	breaker                                                              string
}

func nodeBooks(g *Gateway, id string) books {
	m := g.m.Node(id)
	b := books{m.Forwarded.Value(), m.Delivered.Value(), m.Rejected429.Value(),
		m.Failed503.Value(), m.TransportErrors.Value(), m.BreakerTrips.Value(), ""}
	for _, st := range g.Status() {
		if st.ID == id {
			b.breaker = st.Breaker
		}
	}
	return b
}

// TestOneSettleRuleForEveryRoute: a node's reply lands on its ledger the
// same way whichever route asked: a synchronous kernel request, a vote
// replica, a verify task, a block task or a long job. Each route makes
// exactly one exchange here (no retries, one candidate), and one failure
// trips the breaker. Block-task replies count in the node's delivered like
// every other route's; before the gateway settled every reply in one place
// they did not.
func TestOneSettleRuleForEveryRoute(t *testing.T) {
	const n, seed = 16, 4
	c := mat.Mul(mat.Random(n, n, seed), mat.Random(n, n, seed+1))
	signed := serve.Response{Kernel: "gemm", N: n, Outcome: "corrected", Integrity: "verify-vote",
		AnswerSig: abft.BitDigest(c), Answer: abft.PackBlock(c)}
	grid, err := abft.NewBlockGrid(64, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	gemm := serve.Request{Kernel: "gemm", N: n, Seed: seed}
	routes := []struct {
		name, path string
		nodes      int
		run        func(g *Gateway)
		// under is the node the reply under test came from.
		under func(g *Gateway) *node
	}{
		{"sync kernel", "/v1/gemm", 1, func(g *Gateway) { g.Do(context.Background(), gemm) },
			func(g *Gateway) *node { return g.nodes[0] }},
		{"vote replica", "/v1/gemm", 1, func(g *Gateway) {
			req := gemm
			req.Integrity, req.Replicas = "vote", 1
			g.Do(context.Background(), req)
		}, func(g *Gateway) *node { return g.nodes[0] }},
		{"verify task", "/v1/verify", 2, func(g *Gateway) {
			req := gemm
			req.Integrity, req.Replicas = "verify-vote", 2
			g.Do(context.Background(), req)
		}, func(g *Gateway) *node { return rank(g.nodes, placementKey(serve.KernelGEMM, sizeClass(n)))[1] }},
		{"block task", "/v1/block", 1, func(g *Gateway) {
			p := serve.Parsed{Kernel: serve.KernelGEMM, N: 64, Seed: seed}
			g.runBlockTask(context.Background(), shardTask{role: serve.BlockData, node: g.nodes[0]}, shardPlan{grid: grid}, p, "j1")
		}, func(g *Gateway) *node { return g.nodes[0] }},
		{"long job", "/v1/longjob", 1, func(g *Gateway) {
			st, err := g.SubmitJob(serve.Request{Kernel: "cg", NX: 8, NY: 8, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			g.jobMu.Lock()
			rec := g.jobs[st.ID]
			g.jobMu.Unlock()
			<-rec.done
		}, func(g *Gateway) *node { return g.nodes[0] }},
	}
	replies := []struct {
		name string
		code int
		body string
		want books
	}{
		{"200", http.StatusOK, `{"outcome":"corrected","ok":true}`, books{forwarded: 1, delivered: 1, breaker: "closed"}},
		{"400", http.StatusBadRequest, `{"error":"no","kind":"bad_request"}`, books{forwarded: 1, breaker: "closed"}},
		{"429", http.StatusTooManyRequests, `{"error":"full","kind":"overloaded"}`, books{forwarded: 1, rejected429: 1, breaker: "closed"}},
		{"503", http.StatusServiceUnavailable, `{"error":"closing","kind":"unavailable"}`, books{forwarded: 1, failed503: 1, trips: 1, breaker: "open"}},
		{"undecodable 200", http.StatusOK, `{"outcome":`, books{forwarded: 1, transportErrors: 1, trips: 1, breaker: "open"}},
	}
	for _, rt := range routes {
		for _, rp := range replies {
			t.Run(rt.name+"/"+rp.name, func(t *testing.T) {
				var cfgs []NodeConfig
				for i := 0; i < rt.nodes; i++ {
					cfgs = append(cfgs, NodeConfig{ID: fmt.Sprintf("n%d", i), BaseURL: stubNode(t, func(w http.ResponseWriter, r *http.Request) {
						if r.URL.Path != rt.path {
							json.NewEncoder(w).Encode(signed) // the verify route's primary
							return
						}
						w.WriteHeader(rp.code)
						io.WriteString(w, rp.body)
					})})
				}
				g, err := New(Config{Nodes: cfgs, Retries: -1, RetryBackoff: time.Millisecond, ProbeInterval: -1,
					BreakerFailures: 1, BreakerCooldown: time.Minute, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(g.Close)
				rt.run(g)
				if got := nodeBooks(g, rt.under(g).id); got != rp.want {
					t.Errorf("books %+v, want %+v", got, rp.want)
				}
			})
		}
	}
}

// TestProbeTripCounted: a failed health probe that re-opens a half-open
// breaker is a trip like any other, and breaker_trips counts it. Before the
// breaker counted its own trips, only the dispatch loops' trips did.
func TestProbeTripCounted(t *testing.T) {
	sick := stubNode(t, func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusServiceUnavailable) })
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: sick}) // trips on 2 failures
	trips := func() int64 {
		return g.m.Snapshot()["nodes"].(map[string]any)["n0"].(map[string]any)["breaker_trips"].(int64)
	}
	for i := 0; i < 2; i++ {
		g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 16, Seed: uint64(i)})
	}
	if got := trips(); got != 1 {
		t.Fatalf("breaker_trips = %d after two 503s, want 1", got)
	}
	nd := g.byID["n0"]
	if !nd.br.allow(time.Now().Add(time.Hour)) {
		t.Fatal("no half-open trial after the cooldown")
	}
	g.probe(nd)
	if st := g.Status()[0].Breaker; st != "open" {
		t.Fatalf("breaker %s after a failed probe of the trial, want open", st)
	}
	if got := trips(); got != 2 {
		t.Errorf("breaker_trips = %d after the probe re-opened the breaker, want 2", got)
	}
}
