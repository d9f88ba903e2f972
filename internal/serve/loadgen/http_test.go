package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/serve"
)

// shedThenServe builds a handler that 429s the first n requests with the
// given Retry-After header, then answers 200 with a classified response.
func shedThenServe(n int, retryAfter string) (http.Handler, *atomic.Int64) {
	var hits atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "overloaded", "kind": "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(serve.Response{Kernel: "gemm", N: 16, Outcome: "corrected"})
	})
	return h, &hits
}

// TestRetryAfterHonored: a 429 with Retry-After delays the resend by the
// header value, and the retried request succeeds.
func TestRetryAfterHonored(t *testing.T) {
	h, hits := shedThenServe(1, "1") // 1 second, below the cap
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &HTTPClient{Base: ts.URL, Retry429: 1, RetryAfterCap: 5 * time.Second}
	t0 := time.Now()
	resp, err := c.Do(context.Background(), serve.Request{Kernel: "gemm", N: 16})
	if err != nil {
		t.Fatalf("Do after retry: %v", err)
	}
	if resp.Outcome != "corrected" {
		t.Errorf("outcome %q", resp.Outcome)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2", got)
	}
	if waited := time.Since(t0); waited < 900*time.Millisecond {
		t.Errorf("resent after %v, want >= ~1s (Retry-After honored)", waited)
	}
}

// TestRetryAfterCapped: an abusive Retry-After is clamped to RetryAfterCap
// instead of parking the generator.
func TestRetryAfterCapped(t *testing.T) {
	h, hits := shedThenServe(1, "3600")
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &HTTPClient{Base: ts.URL, Retry429: 1, RetryAfterCap: 50 * time.Millisecond}
	t0 := time.Now()
	if _, err := c.Do(context.Background(), serve.Request{Kernel: "gemm", N: 16}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if waited := time.Since(t0); waited > 2*time.Second {
		t.Errorf("waited %v despite 50ms cap", waited)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2", got)
	}
}

// TestRetryAfterHTTPDate: the HTTP-date form of Retry-After parses too.
func TestRetryAfterHTTPDate(t *testing.T) {
	when := time.Now().Add(time.Hour).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(when, 80*time.Millisecond); d != 80*time.Millisecond {
		t.Errorf("HTTP-date an hour out: parsed %v, want capped 80ms", d)
	}
	if d := parseRetryAfter("2", time.Minute); d != 2*time.Second {
		t.Errorf("delta-seconds: parsed %v, want 2s", d)
	}
	if d := parseRetryAfter("garbage", time.Minute); d != 100*time.Millisecond {
		t.Errorf("malformed header: parsed %v, want the 100ms default", d)
	}
	if d := parseRetryAfter("", 50*time.Millisecond); d != 50*time.Millisecond {
		t.Errorf("missing header: parsed %v, want capped default", d)
	}
}

// TestRetry429DisabledKeeps429AsData: the open-loop default returns the
// typed ErrOverloaded immediately — no hidden retries skewing the sweep.
func TestRetry429DisabledKeeps429AsData(t *testing.T) {
	h, hits := shedThenServe(99, "1")
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &HTTPClient{Base: ts.URL}
	t0 := time.Now()
	_, err := c.Do(context.Background(), serve.Request{Kernel: "gemm", N: 16})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if waited := time.Since(t0); waited > time.Second {
		t.Errorf("blocked %v with retries disabled", waited)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1", got)
	}
}

// TestRetryBudgetExhausted: a persistently shedding server still comes
// back as ErrOverloaded once the retry budget runs out.
func TestRetryBudgetExhausted(t *testing.T) {
	h, hits := shedThenServe(99, "0")
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := &HTTPClient{Base: ts.URL, Retry429: 2, RetryAfterCap: 10 * time.Millisecond}
	_, err := c.Do(context.Background(), serve.Request{Kernel: "gemm", N: 16})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (1 + 2 retries)", got)
	}
}

// TestWireTallyMatchesInProcess: a sweep through a Doer that returns a typed
// error tallies exactly as the same sweep through HTTPClient against a
// server that writes it, for every typed error either server writes. Before
// the kind table, every 503 read back as a queue timeout, so a draining
// daemon's closed and a gateway's no_nodes, no_quorum and unavailable were
// QueueTimeout over the wire and Errors in process.
func TestWireTallyMatchesInProcess(t *testing.T) {
	cfg := Config{Seed: 3, Requests: 2, Rates: []float64{500}}
	for _, err := range []error{
		serve.ErrBadRequest, &serve.ThrottleError{RetryAfter: time.Second}, &serve.ShedError{}, serve.ErrOverloaded,
		serve.ErrQueueTimeout, serve.ErrClosed, serve.ErrNoNodes, serve.ErrNoQuorum, serve.ErrUnavailable,
		errors.New("kernel exploded"),
	} {
		d := doerFunc(func(context.Context, serve.Request) (serve.Response, error) { return serve.Response{}, err })
		want, werr := Run(context.Background(), d, cfg)
		ts := httptest.NewServer(serve.HandleRequest("", http.StatusOK, d.Do))
		got, gerr := Run(context.Background(), &HTTPClient{Base: ts.URL}, cfg)
		ts.Close()
		if werr != nil || gerr != nil {
			t.Fatalf("%v: sweeps failed: %v, %v", err, werr, gerr)
		}
		if w, g := want.Totals(), got.Totals(); w != g || w == (Outcomes{}) {
			t.Errorf("%v: tallied in process %+v, over the wire %+v", err, w, g)
		}
	}
}

// TestReplyOverOneMiB: a verify-vote answer is n²·8 bytes, base64 in JSON,
// so from n = 314 a worker's reply is over 1 MiB. The client reads replies
// under serve.ReplyLimit, as the gateway does; under a 1 MiB cap this reply
// was cut short and counted as an error.
func TestReplyOverOneMiB(t *testing.T) {
	svc := serve.New(serve.Config{MaxN: 320, Parallelism: 1})
	defer svc.Close()
	ts := httptest.NewServer(serve.NewHandler(svc))
	defer ts.Close()
	resp, err := (&HTTPClient{Base: ts.URL}).Do(context.Background(),
		serve.Request{Kernel: "gemm", N: 320, Seed: 5, Integrity: "verify-vote"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 320*320*8 || resp.Outcome != "corrected" {
		t.Fatalf("outcome %q with a %d-byte answer, want corrected with %d bytes", resp.Outcome, len(resp.Answer), 320*320*8)
	}
}

// TestRetrySleepRespectsContext: cancelling mid-backoff unblocks Do.
func TestRetrySleepRespectsContext(t *testing.T) {
	h, _ := shedThenServe(99, "30")
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := &HTTPClient{Base: ts.URL, Retry429: 1, RetryAfterCap: time.Minute}
	t0 := time.Now()
	_, err := c.Do(ctx, serve.Request{Kernel: "gemm", N: 16})
	if err == nil {
		t.Fatal("expected an error from a cancelled backoff")
	}
	if waited := time.Since(t0); waited > 5*time.Second {
		t.Errorf("Do blocked %v past cancellation", waited)
	}
}
