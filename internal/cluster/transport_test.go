package cluster

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
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
// of failing every forward; and the node hop speaks plain http only, so an
// https base stops New too.
func TestNewRefusesUnparsableBaseURL(t *testing.T) {
	for _, base := range []string{"127.0.0.1:8321", "http://[::1", "https://127.0.0.1:8321"} {
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
// headers is cut by its node hop's headerTimeout, which bounds every windowed
// exchange. The forward ends as a transport error, charged to the node's
// TransportErrors and its breaker, and fails over to the next node. The hung
// node is placed first by taking its ID from the request's rendezvous order.
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
	g.byID[first].hop.headerTimeout = 100 * time.Millisecond
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
// after its node hop's headerTimeout is not cut, since the hop sends a long
// job's POST unwindowed, and an unwindowed exchange waits for its reply
// without that bound.
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
	g.byID["slow"].hop.headerTimeout = timeout
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
// read ≈ 5.0 KB once the forward was one write and one read on the node's
// hop, and 4264 B at its last reading in that form. As one RoundTrip on an
// http.Transport (its read and write loops' handoffs, two request copies,
// the reply's header map and cancel plumbing) it read ≈ 8.6 KB, and through
// http.Client (redirect header copy, request fork and timer for its
// Timeout, gzip negotiation) ≈ 11.4 KB. It read 3176 B once the worker's
// handler decoded into and encoded from a recycled exchange and ran the
// request on its own goroutine, and the gateway encoded the forward into a
// recycled body from a recycled Request and decoded the reply into a
// recycled Response. It reads 2592 B now: both bodies are decoded by their
// recycled body's decoder rather than json.Unmarshal, the placement order is
// computed once, and the worker's Do makes no Done channel for a request
// that finds a free slot; most of what is left is the worker's net/http
// server reading the request. The median of 20 warm requests must stay under
// 2700 B (the reading plus 108 B), which json.Unmarshal's decoder state
// (≈ 200 B) back on either body would exceed. ctx is context.Background(), whose Done
// is nil, so the hop's per-exchange context.AfterFunc is not read here.
func TestWarmForwardAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the allocation count of the HTTP exchanges")
	}
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: serveNode(t)})
	req := serve.Request{Kernel: "gemm", N: 16, Dtype: "f32", Seed: 9}
	median, least, most := warmBytes(func() {
		if resp, err := g.Do(context.Background(), req); err != nil || resp.Outcome != "corrected" {
			t.Fatalf("%+v, %v", resp, err)
		}
	})
	t.Logf("warm f32 n=16 forward: %d B allocated (median of 20; min %d, max %d)", median, least, most)
	if median >= 2700 {
		t.Errorf("warm f32 n=16 forward allocates %d B, budget is 2700 B", median)
	}
}

// countingServer starts h behind an httptest server that counts the
// connections it accepts and lets the caller adjust its config first.
func countingServer(t *testing.T, h http.Handler, config func(*http.Server)) (string, *atomic.Int64) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	var accepted atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	if config != nil {
		config(ts.Config)
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts.URL, &accepted
}

// TestWarmHopCallerCancelIsNotANodeFault: a caller whose context ends
// mid-forward has given up; the node did nothing wrong. The worker holds each
// impatient caller's reply until that request ends, so the caller's 1 ms
// deadline always expires mid-exchange. Two such callers against a healthy
// worker leave its transport errors at 0 and its breaker closed with no
// failure, so a patient request right after is served. Each used to book a transport
// error and a breaker failure, and two opened testGateway's breaker: the
// patient request was refused with "every eligible replica is parked".
func TestWarmHopCallerCancelIsNotANodeFault(t *testing.T) {
	svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	t.Cleanup(svc.Close)
	h := serve.NewHandler(svc)
	var hold atomic.Bool
	hold.Store(true)
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: stubNode(t, func(w http.ResponseWriter, r *http.Request) {
		if hold.Load() {
			_, _ = io.Copy(io.Discard, r.Body) // net/http watches the connection once the body is read
			<-r.Context().Done()
			return
		}
		h.ServeHTTP(w, r)
	})})
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := g.Do(ctx, serve.Request{Kernel: "gemm", N: 128, Seed: uint64(i)})
		cancel()
		if err == nil {
			t.Fatal("a held forward was answered: the caller never gave up")
		}
	}
	hold.Store(false)
	nm, br := g.m.Node("n0"), g.byID["n0"].br
	if nm.TransportErrors.Value() != 0 || br.snapshot() != breakerClosed || br.consecFails != 0 {
		t.Errorf("after two callers gave up: transport_errors %d, breaker %v with %d failures; want 0, closed with 0",
			nm.TransportErrors.Value(), br.snapshot(), br.consecFails)
	}
	if resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 16, Seed: 3}); err != nil || resp.Node != "n0" {
		t.Fatalf("patient request: %+v, %v", resp, err)
	}
}

// TestWarmHopForwardEndsWithCallerContext: cancelling the caller of a forward
// to a hung node ends the forward at once, closes its connection, so the node's
// handler sees its request context end, and never puts that connection back
// for the next forward, which dials a new one.
func TestWarmHopForwardEndsWithCallerContext(t *testing.T) {
	var calls atomic.Int64
	handlerSawCancel := make(chan struct{})
	url, accepted := countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // net/http watches the connection once the body is read
		if calls.Add(1) == 1 {
			<-r.Context().Done()
			close(handlerSawCancel)
			return
		}
		serve.WriteJSON(w, http.StatusOK, serve.Response{Kernel: "gemm", N: 16, Outcome: "corrected"})
	}), nil)
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: url})
	req := serve.Request{Kernel: "gemm", N: 16, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	if resp, err := g.Do(ctx, req); err == nil {
		t.Fatalf("a hung node answered: %+v", resp)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("forward ended %v after its caller started, cancelled at 50ms", d)
	}
	select {
	case <-handlerSawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("the hung handler's request context did not end")
	}
	if resp, err := g.Do(context.Background(), req); err != nil || resp.Node != "n0" {
		t.Fatalf("forward after the cancel: %+v, %v", resp, err)
	}
	if n := accepted.Load(); n != 2 {
		t.Errorf("worker accepted %d connections for a cancelled forward and the next; want 2", n)
	}
}

// TestWarmHopStaleKeepAliveRedials: a worker closes a connection idle for
// 20 ms, so the gateway's second forward, 100 ms after the first, finds its
// pooled connection closed. That costs the forward nothing: it is delivered
// by the same node without a failover or a transport error.
func TestWarmHopStaleKeepAliveRedials(t *testing.T) {
	svc := serve.New(serve.Config{MaxConcurrency: 2, QueueDepth: 64, QueueTimeout: 30 * time.Second})
	t.Cleanup(svc.Close)
	url, accepted := countingServer(t, serve.NewHandler(svc), func(s *http.Server) { s.IdleTimeout = 20 * time.Millisecond })
	g := testGateway(t, NodeConfig{ID: "n0", BaseURL: url})
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := g.Do(context.Background(), serve.Request{Kernel: "gemm", N: 16, Dtype: "f32", Seed: uint64(i)})
		if err != nil || resp.Node != "n0" || resp.GatewayRetries != 0 {
			t.Fatalf("forward %d: %+v, %v", i, resp, err)
		}
	}
	t.Logf("worker accepted %d connections", accepted.Load())
	if te := g.m.Node("n0").TransportErrors.Value(); te != 0 {
		t.Errorf("transport_errors %d, want 0", te)
	}
}

// TestWarmHopKeepsOnlyReusableConnections: after a reply framed by its
// Content-Length or chunked, the connection serves the next forward; after a
// reply carrying Connection: close, or one declaring more than
// serve.ReplyLimit (a transport error, which fails over nowhere here), the
// next forward dials anew. The node is a raw HTTP/1.1 responder that never
// closes a connection itself, so every dial counted is the hop's decision.
func TestWarmHopKeepsOnlyReusableConnections(t *testing.T) {
	const ok = `{"kernel":"gemm","n":16,"outcome":"corrected"}`
	framed := func(header string) string {
		return "HTTP/1.1 200 OK\r\n" + header + "Content-Type: application/json\r\nContent-Length: " +
			strconv.Itoa(len(ok)) + "\r\n\r\n" + ok
	}
	for _, c := range []struct {
		name, first string
		wantErr     bool
		accepted    int64
	}{
		{"content-length", framed(""), false, 1},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"a\r\n" + ok[:10] + "\r\n" + strconv.FormatInt(int64(len(ok)-10), 16) + "\r\n" + ok[10:] + "\r\n0\r\n\r\n", false, 1},
		{"connection-close", framed("Connection: close\r\n"), false, 2},
		{"over-limit", "HTTP/1.1 200 OK\r\nContent-Length: 67108865\r\n\r\n", true, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			url, accepted := rawNode(t, c.first, framed(""))
			g := testGateway(t, NodeConfig{ID: "n0", BaseURL: url})
			req := serve.Request{Kernel: "gemm", N: 16, Seed: 1}
			if resp, err := g.Do(context.Background(), req); (err != nil) != c.wantErr {
				t.Fatalf("first forward: %+v, %v", resp, err)
			} else if err != nil && !errors.Is(err, serve.ErrUnavailable) {
				t.Fatalf("first forward: %v, want unavailable", err)
			}
			if resp, err := g.Do(context.Background(), req); err != nil || resp.Outcome != "corrected" {
				t.Fatalf("second forward: %+v, %v", resp, err)
			}
			if n := accepted.Load(); n != c.accepted {
				t.Errorf("node accepted %d connections, want %d", n, c.accepted)
			}
		})
	}
}

// rawNode answers the first request it reads with first and every later one
// with rest, byte for byte, and never closes a connection before its peer.
func rawNode(t *testing.T, first, rest string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted, served atomic.Int64
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					_, _ = io.Copy(io.Discard, req.Body)
					reply := rest
					if served.Add(1) == 1 {
						reply = first
					}
					if _, err := io.WriteString(c, reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String(), &accepted
}
