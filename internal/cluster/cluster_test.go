package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/core"
	"coopabft/internal/serve"
)

// testGateway builds a prober-less gateway (tests drive probes manually)
// with fast failover knobs.
func testGateway(t *testing.T, nodes ...NodeConfig) *Gateway {
	t.Helper()
	g, err := New(Config{
		Nodes:           nodes,
		Window:          8,
		Retries:         3,
		RetryBackoff:    time.Millisecond,
		ProbeInterval:   -1, // no background prober: deterministic tests
		BreakerFailures: 2,
		BreakerCooldown: 50 * time.Millisecond,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// serveNode starts a real in-process abftd-equivalent (serve.Service
// behind serve.NewHandler) and returns its base URL.
func serveNode(t *testing.T) string {
	t.Helper()
	svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts.URL
}

// stubNode starts an httptest server with a canned handler.
func stubNode(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func okStub(t *testing.T, hits *atomic.Int64, outcome string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		json.NewEncoder(w).Encode(serve.Response{Kernel: "gemm", N: 48, Outcome: outcome})
	}
}

// TestGatewayEndToEnd: a two-node cluster of real serve nodes classifies
// fault-injected requests across kernels; responses are node-stamped.
func TestGatewayEndToEnd(t *testing.T) {
	g := testGateway(t,
		NodeConfig{ID: "n0", BaseURL: serveNode(t)},
		NodeConfig{ID: "n1", BaseURL: serveNode(t)},
	)
	ok := map[string]bool{"corrected": true, "restarted": true, "aborted": true}
	seen := map[string]bool{}
	for i, req := range []serve.Request{
		{Kernel: "gemm", N: 48, Seed: 11, Faults: 1},
		{Kernel: "gemm", N: 96, Seed: 12, Faults: 2, FaultKind: "chip-failure", Strategy: "P_CK+No_ECC"},
		{Kernel: "gemm", N: 48, Seed: 15, Faults: 1, VerifyMode: "fused"},
		{Kernel: "cholesky", N: 32, Seed: 13, Faults: 1, Strategy: "W_SD"},
		{Kernel: "cg", NX: 8, NY: 8, Seed: 14},
	} {
		resp, err := g.Do(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !ok[resp.Outcome] {
			t.Fatalf("request %d: outcome %q outside taxonomy", i, resp.Outcome)
		}
		if req.VerifyMode != "" && resp.VerifyMode != req.VerifyMode {
			t.Errorf("request %d: verify mode %q not echoed through the gateway (got %q)",
				i, req.VerifyMode, resp.VerifyMode)
		}
		if resp.Node == "" {
			t.Errorf("request %d: response not node-stamped", i)
		}
		seen[resp.Node] = true
	}
	if g.m.Delivered.Value() != 5 {
		t.Errorf("delivered = %d, want 5", g.m.Delivered.Value())
	}
	// The gateway applies the nodes' admission taxonomy locally: the
	// gemm-only fused mode is rejected before placement for other kernels.
	if _, err := g.Do(context.Background(),
		serve.Request{Kernel: "cholesky", N: 32, Seed: 16, VerifyMode: "fused"}); !errors.Is(err, serve.ErrBadRequest) {
		t.Errorf("fused cholesky through gateway: err = %v, want ErrBadRequest", err)
	}
	for id := range seen {
		if id != "n0" && id != "n1" {
			t.Errorf("unknown node id %q", id)
		}
	}
}

// TestGatewayRefusesOverflowingGrid: a CG grid whose side product wraps a
// 64-bit int is a 400 at the gateway, on the sync route and the jobs API,
// and never reaches a node.
func TestGatewayRefusesOverflowingGrid(t *testing.T) {
	var hits atomic.Int64
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: stubNode(t, okStub(t, &hits, "corrected"))})
	for _, grid := range [][2]int{{4, 1 << 62}, {1 << 32, 1 << 32}, {1 << 33, 1 << 31}} {
		req := serve.Request{Kernel: "cg", NX: grid[0], NY: grid[1], Seed: 1}
		if _, err := g.Do(context.Background(), req); !errors.Is(err, serve.ErrBadRequest) {
			t.Errorf("Do cg %dx%d: err = %v, want ErrBadRequest", grid[0], grid[1], err)
		}
		if _, err := g.SubmitJob(req); !errors.Is(err, serve.ErrBadRequest) {
			t.Errorf("SubmitJob cg %dx%d: err = %v, want ErrBadRequest", grid[0], grid[1], err)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("node saw %d requests, want 0", n)
	}
}

// TestCapabilityRouting: a request's strategy only lands on nodes that
// advertise it — the cluster-level malloc_ecc contract.
func TestCapabilityRouting(t *testing.T) {
	var ckHits, allHits atomic.Int64
	g := testGateway(t,
		NodeConfig{ID: "ck-only", BaseURL: stubNode(t, okStub(t, &ckHits, "corrected")),
			Strategies: []core.Strategy{core.WholeChipkill}},
		NodeConfig{ID: "any", BaseURL: stubNode(t, okStub(t, &allHits, "corrected"))},
	)
	// Strategies the ck-only node does not advertise must all go to "any",
	// across many size classes so some would otherwise rank ck-only first.
	for n := 8; n <= 128; n += 8 {
		resp, err := g.Do(context.Background(),
			serve.Request{Kernel: "gemm", N: n, Strategy: "P_CK+P_SD", Seed: uint64(n)})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if resp.Node != "any" {
			t.Fatalf("n=%d: P_CK+P_SD landed on %q", n, resp.Node)
		}
	}
	if ckHits.Load() != 0 {
		t.Errorf("capability-incompatible node saw %d requests", ckHits.Load())
	}
	// And a strategy nobody advertises is a typed capability miss.
	gNone := testGateway(t, NodeConfig{ID: "ck-only", BaseURL: stubNode(t, okStub(t, &ckHits, "corrected")),
		Strategies: []core.Strategy{core.WholeChipkill}})
	if _, err := gNone.Do(context.Background(),
		serve.Request{Kernel: "gemm", N: 48, Strategy: "No_ECC"}); !errors.Is(err, serve.ErrNoNodes) {
		t.Errorf("err = %v, want serve.ErrNoNodes", err)
	}
}

// TestFailoverOn503: the first-ranked node answering 503 fails over to the
// runner-up; the response records the retry and the breaker counts the
// faults.
func TestFailoverOn503(t *testing.T) {
	var sickHits, okHits atomic.Int64
	sick := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		sickHits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "queue timeout", "kind": "queue_timeout"})
	})
	okURL := stubNode(t, okStub(t, &okHits, "corrected"))

	// Name the nodes so the sick one ranks first for this key: try both
	// assignments and keep the one where "a" wins the n=48 gemm key.
	nodes := mkNodes("a", "b")
	first := rank(nodes, placementKey(serve.KernelGEMM, sizeClass(48)))[0].id
	cfgs := []NodeConfig{{ID: first, BaseURL: sick}}
	other := "a"
	if first == "a" {
		other = "b"
	}
	cfgs = append(cfgs, NodeConfig{ID: other, BaseURL: okURL})
	g := testGateway(t, cfgs...)

	resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 1})
	if err != nil {
		t.Fatalf("failover Do: %v", err)
	}
	if resp.Node != other || resp.GatewayRetries != 1 {
		t.Fatalf("resp node %q retries %d, want %q/1", resp.Node, resp.GatewayRetries, other)
	}
	if sickHits.Load() != 1 || okHits.Load() != 1 {
		t.Errorf("hits sick=%d ok=%d, want 1/1", sickHits.Load(), okHits.Load())
	}
	if g.m.Retries.Value() != 1 {
		t.Errorf("retries counter = %d, want 1", g.m.Retries.Value())
	}

	// A second 503 trips the sick node's breaker (threshold 2): the next
	// request skips it without a wasted forward.
	if _, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	before := sickHits.Load()
	if _, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if sickHits.Load() != before {
		t.Errorf("breaker-open node still saw a forward")
	}
	if g.m.Node(first).BreakerTrips.Value() == 0 {
		t.Error("breaker trip not counted")
	}
}

// TestDeliveredNeverRetried: an aborted classification is a delivered
// answer — the gateway must return it as-is, not shop for a better one.
func TestDeliveredNeverRetried(t *testing.T) {
	var aHits, bHits atomic.Int64
	g := testGateway(t,
		NodeConfig{ID: "a", BaseURL: stubNode(t, okStub(t, &aHits, "aborted"))},
		NodeConfig{ID: "b", BaseURL: stubNode(t, okStub(t, &bHits, "corrected"))},
	)
	resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != "aborted" && resp.Outcome != "corrected" {
		t.Fatalf("outcome %q", resp.Outcome)
	}
	if resp.GatewayRetries != 0 {
		t.Errorf("delivered answer was retried %d times", resp.GatewayRetries)
	}
	if aHits.Load()+bHits.Load() != 1 {
		t.Errorf("one request produced %d forwards", aHits.Load()+bHits.Load())
	}
}

// TestWindowSpill: a full outstanding window on the ranked winner spills
// the next request to the runner-up instead of queueing behind it.
func TestWindowSpill(t *testing.T) {
	release := make(chan struct{})
	var slowHits, fastHits atomic.Int64
	slow := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		slowHits.Add(1)
		<-release
		json.NewEncoder(w).Encode(serve.Response{Kernel: "gemm", N: 48, Outcome: "corrected"})
	})
	fast := stubNode(t, okStub(t, &fastHits, "corrected"))

	nodes := mkNodes("a", "b")
	first := rank(nodes, placementKey(serve.KernelGEMM, sizeClass(48)))[0].id
	other := "a"
	if first == "a" {
		other = "b"
	}
	g, err := New(Config{
		Nodes: []NodeConfig{
			{ID: first, BaseURL: slow},
			{ID: other, BaseURL: fast},
		},
		Window:        1,
		Retries:       2,
		RetryBackoff:  time.Millisecond,
		ProbeInterval: -1,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	defer close(release)

	// Park one request on the winner, filling its window of 1.
	parked := make(chan error, 1)
	go func() {
		_, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 5})
		parked <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for slowHits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never reached the slow node")
		}
		time.Sleep(time.Millisecond)
	}
	// The next request finds the window full and spills.
	resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 6})
	if err != nil {
		t.Fatalf("spill Do: %v", err)
	}
	if resp.Node != other {
		t.Errorf("spilled to %q, want %q", resp.Node, other)
	}
	if g.m.Node(first).WindowSkips.Value() == 0 {
		t.Error("window skip not counted")
	}
	release <- struct{}{}
	if err := <-parked; err != nil {
		t.Errorf("parked request: %v", err)
	}
}

// TestAllWindowsFullIsOverloaded: both windows pinned → typed overload,
// mapped to 429 on the wire.
func TestAllWindowsFullIsOverloaded(t *testing.T) {
	release := make(chan struct{})
	slowHandler := func(w http.ResponseWriter, r *http.Request) {
		<-release
		json.NewEncoder(w).Encode(serve.Response{Kernel: "gemm", N: 48, Outcome: "corrected"})
	}
	g, err := New(Config{
		Nodes: []NodeConfig{
			{ID: "a", BaseURL: stubNode(t, slowHandler)},
			{ID: "b", BaseURL: stubNode(t, slowHandler)},
		},
		Window:        1,
		Retries:       2,
		RetryBackoff:  time.Millisecond,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	defer close(release)

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(seed uint64) {
			_, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: seed})
			done <- err
		}(uint64(i))
	}
	deadline := time.Now().Add(2 * time.Second)
	for g.m.Node("a").Inflight.Value()+g.m.Node("b").Inflight.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("windows never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 9}); !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if g.m.Overloaded.Value() != 1 {
		t.Errorf("overloaded counter = %d, want 1", g.m.Overloaded.Value())
	}
	release <- struct{}{}
	release <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("parked request: %v", err)
		}
	}
}

// TestDrainRejoin: draining a node moves new placements to its peer;
// rejoin restores it.
func TestDrainRejoin(t *testing.T) {
	var aHits, bHits atomic.Int64
	g := testGateway(t,
		NodeConfig{ID: "a", BaseURL: stubNode(t, okStub(t, &aHits, "corrected"))},
		NodeConfig{ID: "b", BaseURL: stubNode(t, okStub(t, &bHits, "corrected"))},
	)
	winner := rank(g.nodes, placementKey(serve.KernelGEMM, sizeClass(48)))[0].id
	if err := g.Drain(winner); err != nil {
		t.Fatal(err)
	}
	resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node == winner {
		t.Fatalf("draining node %q still placed", winner)
	}
	if err := g.Rejoin(winner); err != nil {
		t.Fatal(err)
	}
	resp, err = g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 48, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Node != winner {
		t.Errorf("rejoined node %q not placed (got %q)", winner, resp.Node)
	}
	if err := g.Drain("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("Drain(nope) = %v, want ErrUnknownNode", err)
	}
}

// TestGatewayAPI walks the HTTP surface: kernel routes, healthz node
// status, admin drain/rejoin, and the error mapping.
func TestGatewayAPI(t *testing.T) {
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: serveNode(t)})
	h := NewHandler(g)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/gemm", "application/json",
		bytes.NewReader([]byte(`{"n": 32, "seed": 3, "faults": 1}`)))
	if err != nil {
		t.Fatal(err)
	}
	var body serve.Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || body.Node != "n0" {
		t.Fatalf("status %d node %q", resp.StatusCode, body.Node)
	}

	// Bad strategy → 400 with the typed envelope.
	resp, err = http.Post(ts.URL+"/v1/gemm", "application/json",
		bytes.NewReader([]byte(`{"strategy": "TripleModular"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var e struct{ Kind string }
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || e.Kind != "bad_request" {
		t.Errorf("bad strategy: status %d kind %q", resp.StatusCode, e.Kind)
	}

	// One JSON value and whitespace: a tail is a 400, as on a node, and an
	// empty body is still the all-defaults request.
	for body, want := range map[string]int{
		`{"n": 32, "seed": 3} x`:     http.StatusBadRequest,
		`{"n": 32, "seed": 3}{}`:     http.StatusBadRequest,
		"{\"n\": 32, \"seed\": 3}\n": http.StatusOK,
		"":                           http.StatusOK,
	} {
		resp, err = http.Post(ts.URL+"/v1/gemm", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}

	// healthz lists the node.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string       `json:"status"`
		Nodes  []NodeStatus `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || len(hz.Nodes) != 1 || hz.Nodes[0].ID != "n0" || !hz.Nodes[0].Healthy {
		t.Errorf("healthz = %+v", hz)
	}

	// Admin drain → draining visible → rejoin.
	resp, err = http.Post(ts.URL+"/admin/drain?node=n0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status %d", resp.StatusCode)
	}
	if st := g.Status(); !st[0].Draining {
		t.Error("drain not visible in status")
	}
	resp, _ = http.Post(ts.URL+"/admin/rejoin?node=n0", "", nil)
	resp.Body.Close()
	if st := g.Status(); st[0].Draining {
		t.Error("rejoin not visible in status")
	}
	// Unknown node → 404.
	resp, _ = http.Post(ts.URL+"/admin/drain?node=ghost", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("drain ghost: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsSnapshotShape: the /debug/vars payload stays numeric and
// carries the per-node breakdown.
func TestMetricsSnapshotShape(t *testing.T) {
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: serveNode(t)})
	if _, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	snap := g.m.Snapshot()
	if snap["requests"] != int64(1) || snap["delivered"] != int64(1) {
		t.Errorf("snapshot totals %v", snap)
	}
	nodes, ok := snap["nodes"].(map[string]any)
	if !ok || len(nodes) != 1 {
		t.Fatalf("snapshot nodes = %v", snap["nodes"])
	}
	n0 := nodes["n0"].(map[string]any)
	if n0["delivered"] != int64(1) || n0["inflight"] != int64(0) {
		t.Errorf("node snapshot %v", n0)
	}
}

// restartableNode is a serve node on a fixed address that can be killed
// (connection-refused, like a SIGKILLed abftd) and restarted on the same
// address — the failover/rejoin fixture.
type restartableNode struct {
	t    *testing.T
	addr string
	svc  *serve.Service
	srv  *http.Server
}

func startRestartable(t *testing.T, addr string) *restartableNode {
	t.Helper()
	if addr == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr = ln.Addr().String()
		ln.Close()
	}
	n := &restartableNode{t: t, addr: addr}
	n.start()
	t.Cleanup(n.kill)
	return n
}

func (n *restartableNode) start() {
	n.t.Helper()
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		n.t.Fatalf("listen %s: %v", n.addr, err)
	}
	n.svc = serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	n.srv = &http.Server{Handler: serve.NewHandler(n.svc)}
	go n.srv.Serve(ln)
}

func (n *restartableNode) kill() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
	if n.svc != nil {
		n.svc.Close()
		n.svc = nil
	}
}

func (n *restartableNode) url() string { return "http://" + n.addr }
