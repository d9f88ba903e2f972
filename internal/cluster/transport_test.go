package cluster

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/serve"
)

// TestGatewayReusesWindowConnections: Window callers forwarding at once to
// one worker need Window connections, and the transport keeps that many idle
// between forwards, so the worker accepts no more than Window however long
// the callers run. With two idle connections per host (http.DefaultTransport),
// every forward past the second that finishes closes its connection and the
// next one redials: 66 accepts for this run.
func TestGatewayReusesWindowConnections(t *testing.T) {
	const window, perCaller = 8, 300
	svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	ts := httptest.NewUnstartedServer(serve.NewHandler(svc))
	var accepted atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() { ts.Close(); svc.Close() })

	g, err := New(Config{Nodes: []NodeConfig{{ID: "n0", BaseURL: ts.URL}}, Window: window, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)

	var wg sync.WaitGroup
	errs := make(chan error, window)
	for c := 0; c < window; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				req := serve.Request{Kernel: "gemm", N: 16, Dtype: "f32", Seed: uint64(c*perCaller + i)}
				if _, err := g.Do(context.Background(), req); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d callers x %d forwards: worker accepted %d connections", window, perCaller, accepted.Load())
	if n := accepted.Load(); n > window {
		t.Errorf("worker accepted %d connections from the gateway, window is %d", n, window)
	}
}

// TestNewRefusesUnparsableBaseURL: every request's URL is a copy of the
// node's base parsed in New, so a base that does not parse stops New instead
// of failing every forward.
func TestNewRefusesUnparsableBaseURL(t *testing.T) {
	for _, base := range []string{"127.0.0.1:8321", "http://[::1"} {
		if _, err := New(Config{Nodes: []NodeConfig{{ID: "n0", BaseURL: base}}, ProbeInterval: -1}); err == nil {
			t.Errorf("New accepted BaseURL %q", base)
		}
	}
}

// hungNode accepts connections and reads requests but never answers: every
// exchange with it hangs before its response headers.
func hungNode(t *testing.T) string {
	t.Helper()
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(func() { close(release); ts.Close() })
	return ts.URL
}

// TestHungWorkerBounded: a worker that accepts a forward and never writes its
// headers is cut by the forwarding transport's response-header timeout. The
// forward ends as a transport error, charged to the node's TransportErrors
// and its breaker, and fails over to the next node. The hung node is placed
// first by taking its ID from the request's rendezvous order.
func TestHungWorkerBounded(t *testing.T) {
	req := serve.Request{Kernel: "gemm", N: 16, Seed: 5}
	hung, good := hungNode(t), serveNode(t)
	first, second := "a", "b"
	probe := testGateway(t, NodeConfig{ID: first, BaseURL: good}, NodeConfig{ID: second, BaseURL: good})
	p, err := serve.ParseRequest(probe.jobLimits(), req)
	if err != nil {
		t.Fatal(err)
	}
	if probe.placement(p)[0].id != first {
		first, second = second, first
	}

	g := testGateway(t, NodeConfig{ID: first, BaseURL: hung}, NodeConfig{ID: second, BaseURL: good})
	g.fwd.ResponseHeaderTimeout = 100 * time.Millisecond
	// Without the header timeout only this deadline would end the forward,
	// and Do would fail instead of failing over.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	resp, err := g.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("answered by %s after %d retries in %v", resp.Node, resp.GatewayRetries, time.Since(start))
	if resp.Node != second || resp.GatewayRetries != 1 {
		t.Errorf("answered by %s after %d retries, want %s after 1", resp.Node, resp.GatewayRetries, second)
	}
	hm := g.m.Node(first)
	if hm.TransportErrors.Value() != 1 || hm.Delivered.Value() != 0 {
		t.Errorf("hung node: transport_errors %d delivered %d, want 1 and 0",
			hm.TransportErrors.Value(), hm.Delivered.Value())
	}
	br := g.byID[first].br
	if st := br.snapshot(); st != breakerClosed || br.consecFails != 1 {
		t.Errorf("hung node's breaker: %v with %d failures, want closed with 1", st, br.consecFails)
	}
}

// TestLongJobOutlivesHeaderTimeout: a long-job POST whose worker answers only
// after the forwarding transport's response-header timeout is not cut, since
// it rides the long transport, which has none.
func TestLongJobOutlivesHeaderTimeout(t *testing.T) {
	const timeout = 50 * time.Millisecond
	var calls atomic.Int64
	slow := stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/longjob" {
			http.NotFound(w, r)
			return
		}
		calls.Add(1)
		time.Sleep(4 * timeout)
		serve.WriteJSON(w, http.StatusOK, serve.LongResult{Kernel: "cg", Outcome: "corrected", Steps: 3})
	})
	g := testGateway(t, NodeConfig{ID: "slow", BaseURL: slow})
	g.fwd.ResponseHeaderTimeout = timeout
	st, err := g.SubmitJob(serve.Request{Kernel: "cg", NX: 8, NY: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Long {
		t.Fatalf("CG job not admitted on the long path: %+v", st)
	}
	final := waitJob(t, g, st.ID)
	if final.State != serve.JobDone || calls.Load() != 1 || g.m.Node("slow").TransportErrors.Value() != 0 {
		t.Errorf("long job %+v after %d calls, %d transport errors; want done after 1 call, none",
			final, calls.Load(), g.m.Node("slow").TransportErrors.Value())
	}
}

// TestWarmForwardAllocationBudget: a warm f32 n=16 request through the
// gateway and one loopback worker, both ends of the exchange in this process,
// reads ≈ 9.2 KB now that the forward is one RoundTrip on the gateway's
// transport. Through http.Client (redirect header copy, request fork and
// timer for its Timeout, gzip negotiation) it read ≈ 11.4 KB. The median of
// 20 warm requests must stay under 10 KiB.
func TestWarmForwardAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the allocation count of the HTTP exchanges")
	}
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: serveNode(t)})
	req := serve.Request{Kernel: "gemm", N: 16, Dtype: "f32", Seed: 9}
	do := func() {
		if resp, err := g.Do(context.Background(), req); err != nil || resp.Outcome != "corrected" {
			t.Fatalf("%+v, %v", resp, err)
		}
	}
	for i := 0; i < 4; i++ {
		do()
	}
	per := make([]uint64, 20)
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		do()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	t.Logf("warm f32 n=16 forward: %d B allocated (median of %d; min %d, max %d)", per[len(per)/2], len(per), per[0], per[len(per)-1])
	if per[len(per)/2] >= 10<<10 {
		t.Errorf("warm f32 n=16 forward allocates %d B, budget is 10 KiB", per[len(per)/2])
	}
}
