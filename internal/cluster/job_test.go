package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/abft"
	"coopabft/internal/mat"
	"coopabft/internal/serve"
)

// jobGateway builds a prober-less gateway with a low shard threshold, so
// modest test sizes exercise the sharded path.
func jobGateway(t *testing.T, nodes ...NodeConfig) *Gateway {
	t.Helper()
	g, err := New(Config{
		Nodes:           nodes,
		Window:          8,
		Retries:         2,
		RetryBackoff:    time.Millisecond,
		ProbeInterval:   -1,
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		ShardThreshold:  64,
		ShardBlock:      48,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// waitJob polls a job to a terminal state.
func waitJob(t *testing.T, g *Gateway, id string) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := g.JobStatusOf(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if terminal(st.State) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// directDigest computes the single-node reference answer's fingerprint.
func directDigest(n int, seed uint64) string {
	full := mat.New(n, n)
	mat.MulAddInto(full, mat.Random(n, n, seed), mat.Random(n, n, seed+1))
	return abft.BitDigest(full)
}

// TestShardedMatchesDirect: a sharded job across three real nodes delivers
// the bit-identical answer the single-node packed GEMM produces, with no
// reconstructions and no recomputes on the happy path.
func TestShardedMatchesDirect(t *testing.T) {
	g := jobGateway(t,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
		NodeConfig{ID: "n2", BaseURL: serveNode(t)},
	)
	st, err := g.SubmitJob(serve.Request{Kernel: "gemm", N: 96, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sharded || st.State != serve.JobQueued {
		t.Fatalf("submit status %+v", st)
	}
	// 2x2 grid (W-1 = 2 caps the dim): 4 data + 2 col-check + 2 row-check.
	if st.BlocksTotal != 8 {
		t.Fatalf("blocks_total = %d, want 8", st.BlocksTotal)
	}

	final := waitJob(t, g, st.ID)
	if final.State != serve.JobDone {
		t.Fatalf("state %s (err %q)", final.State, final.Error)
	}
	if final.Digest != directDigest(96, 5) {
		t.Fatalf("digest %s != direct %s", final.Digest, directDigest(96, 5))
	}
	if final.BlocksDone != 8 || final.Reconstructions != 0 || final.Recomputes != 0 {
		t.Fatalf("progress %+v", final)
	}
	if final.Result == nil || final.Result.Outcome != "corrected" {
		t.Fatalf("result %+v", final.Result)
	}
	if g.m.JobsCompleted.Value() != 1 || g.m.BlockTasksDispatched.Value() != 8 ||
		g.m.ChecksumTasks.Value() != 4 {
		t.Fatalf("metrics: completed=%d dispatched=%d checksum=%d",
			g.m.JobsCompleted.Value(), g.m.BlockTasksDispatched.Value(), g.m.ChecksumTasks.Value())
	}
}

// gatedNode wraps a real serve handler with a kill switch: once armed with
// limit k, only the first k /v1/block calls reach the service — the rest
// answer 503, the wire signature of a dying node.
type gatedNode struct {
	inner  http.Handler
	limit  atomic.Int64 // -1 = unlimited
	served atomic.Int64
}

func newGatedNode(t *testing.T) *gatedNode {
	t.Helper()
	svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	t.Cleanup(svc.Close)
	gn := &gatedNode{inner: serve.NewHandler(svc)}
	gn.limit.Store(-1)
	return gn
}

func (gn *gatedNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/block" {
		if lim := gn.limit.Load(); lim >= 0 && gn.served.Add(1) > lim {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "node dying", "kind": "closed"})
			return
		}
	}
	gn.inner.ServeHTTP(w, r)
}

// TestKillMidJobReconstructs is the kill-mid-job chaos gate in process:
// the worker holding two data blocks dies after delivering exactly one —
// mid-job, deterministically — and the job still completes with the
// bit-identical answer, recovering the lost block algebraically:
// reconstructions >= 1, recomputes == 0.
func TestKillMidJobReconstructs(t *testing.T) {
	gated := make([]*gatedNode, 3)
	cfgs := make([]NodeConfig, 3)
	ids := []string{"n0", "n1", "n2"}
	for i := range gated {
		gated[i] = newGatedNode(t)
		ts := httptest.NewServer(gated[i])
		t.Cleanup(ts.Close)
		cfgs[i] = NodeConfig{ID: ids[i], BaseURL: ts.URL}
	}
	g := jobGateway(t, cfgs...)

	// Predict the plan (same inputs as SubmitJob will use): on a 2x2 grid
	// over 3 workers, workers[1] owns data (0,1) and (1,0) — two data
	// blocks in different grid columns. Arm its gate to deliver exactly
	// one block and then die.
	const n, seed = 96, 11
	plan, err := planShards(n, g.eligibleWorkers(), g.cfg.ShardBlock, seed)
	if err != nil {
		t.Fatal(err)
	}
	victim := plan.workers[1].id
	for i, id := range ids {
		if id == victim {
			gated[i].limit.Store(1)
		}
	}

	st, err := g.SubmitJob(serve.Request{Kernel: "gemm", N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, g, st.ID)
	if final.State != serve.JobDone {
		t.Fatalf("state %s (err %q)", final.State, final.Error)
	}
	if final.Digest != directDigest(n, seed) {
		t.Fatalf("digest %s != direct after node death", final.Digest)
	}
	if final.Reconstructions != 1 || final.Recomputes != 0 {
		t.Fatalf("reconstructions=%d recomputes=%d, want 1/0",
			final.Reconstructions, final.Recomputes)
	}
	if g.m.Reconstructions.Value() != 1 || g.m.BlockRecomputes.Value() != 0 {
		t.Fatalf("gateway metrics: reconstructions=%d recomputes=%d",
			g.m.Reconstructions.Value(), g.m.BlockRecomputes.Value())
	}
}

// TestJobPassthrough: a small job rides the existing synchronous path
// unchanged and relays the node's classified response.
func TestJobPassthrough(t *testing.T) {
	g := jobGateway(t, NodeConfig{ID: "solo", BaseURL: serveNode(t)})
	st, err := g.SubmitJob(serve.Request{Kernel: "gemm", N: 32, Seed: 3, Faults: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sharded {
		t.Fatal("n=32 job sharded below threshold")
	}
	final := waitJob(t, g, st.ID)
	if final.State != serve.JobDone || final.Result == nil {
		t.Fatalf("final %+v", final)
	}
	ok := map[string]bool{"corrected": true, "restarted": true, "aborted": true}
	if !ok[final.Result.Outcome] || final.Result.Node != "solo" {
		t.Fatalf("result %+v", final.Result)
	}
	if g.m.JobsPassthrough.Value() != 1 {
		t.Errorf("jobs_passthrough = %d, want 1", g.m.JobsPassthrough.Value())
	}
}

// TestJobRouteKeepsWhatWasAsked: the shard and long routes compute f64 with
// no integrity tier, so a job asking for f32 or a vote passes through the
// synchronous path and reports what was asked, even at a size that shards
// and on a kernel that runs long.
func TestJobRouteKeepsWhatWasAsked(t *testing.T) {
	g := jobGateway(t,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
		NodeConfig{ID: "n2", BaseURL: serveNode(t)},
	)
	for _, c := range []struct {
		req              serve.Request
		dtype, integrity string
		replicas         int
	}{
		{serve.Request{Kernel: "gemm", N: 96, Seed: 1, Dtype: "f32"}, "f32", "", 0},
		{serve.Request{Kernel: "gemm", N: 96, Seed: 2, Integrity: "vote", Replicas: 3}, "", "vote", 3},
		{serve.Request{Kernel: "gemm", N: 96, Seed: 3, Integrity: "verify-vote"}, "", "verify-vote", 3},
		{serve.Request{Kernel: "cg", NX: 8, NY: 8, Seed: 4, Integrity: "vote"}, "", "vote", 3},
	} {
		st, err := g.SubmitJob(c.req)
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if st.Sharded || st.Long {
			t.Errorf("%+v routed sharded=%v long=%v, want passthrough", c.req, st.Sharded, st.Long)
		}
		final := waitJob(t, g, st.ID)
		if final.State != serve.JobDone || final.Result == nil {
			t.Fatalf("%+v: final %+v", c.req, final)
		}
		r := final.Result
		if r.Dtype != c.dtype || r.Integrity != c.integrity || r.VoteReplicas != c.replicas {
			t.Errorf("%+v answered dtype %q integrity %q vote_replicas %d, want %q %q %d",
				c.req, r.Dtype, r.Integrity, r.VoteReplicas, c.dtype, c.integrity, c.replicas)
		}
	}
	if n := g.m.JobsPassthrough.Value(); n != 4 {
		t.Errorf("jobs_passthrough = %d, want 4", n)
	}
}

// TestJobRejections: sharded jobs refuse fault injection; bad requests are
// typed through the shared entrypoint.
func TestJobRejections(t *testing.T) {
	g := jobGateway(t,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
		NodeConfig{ID: "n2", BaseURL: serveNode(t)},
	)
	if _, err := g.SubmitJob(serve.Request{Kernel: "gemm", N: 96, Faults: 1}); !errors.Is(err, serve.ErrBadRequest) {
		t.Errorf("sharded faults: err = %v, want ErrBadRequest", err)
	}
	if _, err := g.SubmitJob(serve.Request{Kernel: "lu", N: 96}); !errors.Is(err, serve.ErrBadRequest) {
		t.Errorf("unknown kernel: err = %v, want ErrBadRequest", err)
	}
	if _, err := g.SubmitJob(serve.Request{Kernel: "gemm", N: 1 << 20}); !errors.Is(err, serve.ErrBadRequest) {
		t.Errorf("oversized: err = %v, want ErrBadRequest", err)
	}
}

// TestJobCancel: cancelling a running sharded job unwinds its block tasks
// and lands in "cancelled".
func TestJobCancel(t *testing.T) {
	hang := func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() }
	g := jobGateway(t,
		NodeConfig{ID: "n0", BaseURL: stubNode(t, hang)},
		NodeConfig{ID: "n1", BaseURL: stubNode(t, hang)},
		NodeConfig{ID: "n2", BaseURL: stubNode(t, hang)},
	)
	st, err := g.SubmitJob(serve.Request{Kernel: "gemm", N: 96, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.CancelJob(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, g, st.ID)
	if final.State != serve.JobCancelled {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if g.m.JobsCancelled.Value() != 1 {
		t.Errorf("jobs_cancelled = %d, want 1", g.m.JobsCancelled.Value())
	}
	if _, err := g.CancelJob("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel ghost: err = %v, want ErrUnknownJob", err)
	}
}

// TestJobsHTTPAPI walks the versioned jobs surface: submit (202), poll,
// 404s, and the 400 mapping.
func TestJobsHTTPAPI(t *testing.T) {
	g := jobGateway(t, NodeConfig{ID: "solo", BaseURL: serveNode(t)})
	ts := httptest.NewServer(NewHandler(g))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"kernel": "gemm", "n": 32, "seed": 4}`)))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" || st.State != serve.JobQueued {
		t.Fatalf("submit: status %d body %+v", resp.StatusCode, st)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if terminal(st.State) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != serve.JobDone || st.Result == nil {
		t.Fatalf("final %+v", st)
	}

	resp, _ = http.Get(ts.URL + "/v1/jobs/ghost")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("get ghost: status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/ghost", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("delete ghost: status %d, want 404", resp.StatusCode)
	}
	resp, _ = http.Post(ts.URL+"/v1/jobs", "application/json",
		bytes.NewReader([]byte(`{"kernel": "qr", "n": 32}`)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kernel: status %d, want 400", resp.StatusCode)
	}
}
