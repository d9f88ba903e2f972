package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestAPIKernelRoutes drives each /v1/<kernel> route end to end through
// the real service and checks the classified JSON response.
func TestAPIKernelRoutes(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 2, QueueDepth: 8})
	h := NewHandler(s)

	for path, body := range map[string]string{
		"/v1/gemm":     `{"n": 32, "seed": 3, "strategy": "W_CK"}`,
		"/v1/cholesky": `{"n": 32, "seed": 4, "faults": 1}`,
		"/v1/cg":       `{"nx": 8, "ny": 8, "seed": 5}`,
	} {
		rec := post(t, h, path, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", path, rec.Code, rec.Body)
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: bad JSON: %v", path, err)
		}
		if !okOutcomes[resp.Outcome] {
			t.Errorf("%s: outcome %q outside taxonomy", path, resp.Outcome)
		}
		if want := strings.TrimPrefix(path, "/v1/"); resp.Kernel != want {
			t.Errorf("%s: kernel %q, want %q", path, resp.Kernel, want)
		}
	}
}

// TestAPIEmptyBodyUsesDefaults: POST with no body is a valid default
// request (the path supplies the kernel).
func TestAPIEmptyBodyUsesDefaults(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4})
	rec := post(t, NewHandler(s), "/v1/gemm", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
}

// TestAPIStrictBody: a body is one JSON value and whitespace. The routes used
// to read with json.Decoder, which stops at the end of the first value and
// never looks at what follows; now anything after it but whitespace is a 400
// on every route, and a body of nothing (or nothing but whitespace) is still
// the all-defaults request on the kernel routes and still a 400 on the task
// routes, which have no defaults.
func TestAPIStrictBody(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4})
	h := NewHandler(s)
	verify, err := json.Marshal(VerifyTask{Kernel: "gemm", N: 8, Seed: 3, Ce: make([]float64, 8), Cr: make([]float64, 8)})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]string{
		"/v1/gemm":    `{"n": 16, "seed": 3}`,
		"/v1/block":   `{"kernel": "gemm", "n": 8, "seed": 3, "role": "data", "row_splits": [0, 8], "col_splits": [0, 8]}`,
		"/v1/verify":  string(verify), // refuted, which is a 200
		"/v1/longjob": `{"job_id": "j", "kernel": "cg", "nx": 4, "ny": 4, "seed": 3}`,
	}
	for path, body := range bodies {
		if rec := post(t, h, path, body+" \n\t\r\n"); rec.Code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, body %s", path, rec.Code, rec.Body)
		}
		for _, tail := range []string{"x", "{}", body, "\n\n]", "\u00a0"} {
			rec := post(t, h, path, body+tail)
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != http.StatusBadRequest || err != nil || e.Kind != "bad_request" {
				t.Errorf("%s with %q after its JSON value: status %d, body %s; want a bad_request 400", path, tail, rec.Code, rec.Body)
			}
		}
		want := http.StatusBadRequest
		if path == "/v1/gemm" {
			want = http.StatusOK
		}
		for _, empty := range []string{"", " \n\t"} {
			if rec := post(t, h, path, empty); rec.Code != want {
				t.Errorf("%s with body %q: status %d, want %d", path, empty, rec.Code, want)
			}
		}
	}
}

// TestAPIBadRequests maps validation failures to 400 with the typed kind.
func TestAPIBadRequests(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 4})
	h := NewHandler(s)
	for _, body := range []string{
		`{"n": 2}`,
		`{"strategy": "TripleModular"}`,
		`{"faults": 1, "fault_kind": "gamma-ray"}`,
		`not json at all`,
	} {
		rec := post(t, h, "/v1/gemm", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "bad_request" {
			t.Errorf("body %q: error envelope %s (err %v)", body, rec.Body, err)
		}
	}
	// Unknown kernels are a routing miss, not a service call.
	if rec := post(t, NewHandler(s), "/v1/fft", "{}"); rec.Code != http.StatusNotFound {
		t.Errorf("/v1/fft: status %d, want 404", rec.Code)
	}
	// GET on a kernel route is a method mismatch.
	req := httptest.NewRequest(http.MethodGet, "/v1/gemm", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/gemm: status %d, want 405", rec.Code)
	}
}

// TestAPIOverloadIs429: with every slot pinned and the queue stuffed, the
// route answers 429 with Retry-After, the typed wire form of
// ErrOverloaded.
func TestAPIOverloadIs429(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 1, QueueTimeout: time.Minute})
	h := NewHandler(s)
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	// Park a request in the queue (depth 1) so it is full; the parked
	// handler runs in a goroutine since it blocks. Admission is observed
	// through the accepted counter and queue occupancy so the fill is
	// deterministic.
	type parked struct{ rec *httptest.ResponseRecorder }
	park := func() chan parked {
		ch := make(chan parked, 1)
		go func() {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/gemm",
				bytes.NewReader([]byte(`{"n": 16, "timeout_ms": 2000}`)))
			h.ServeHTTP(rec, req)
			ch <- parked{rec}
		}()
		return ch
	}
	waitFor := func(cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("service did not reach the expected fill state")
			}
			time.Sleep(time.Millisecond)
		}
	}
	release := []chan parked{park()}
	// The job admitted and parked in the depth-1 queue.
	waitFor(func() bool { return s.m.Accepted.Value() >= 1 && s.sched.Len() == 1 })
	rec := post(t, h, "/v1/gemm", `{"n": 16}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Kind != "overloaded" {
		t.Errorf("error envelope %s (err %v)", rec.Body, err)
	}
	for _, ch := range release {
		p := <-ch // parked handlers resolve as 503 queue timeouts
		if p.rec.Code != http.StatusServiceUnavailable {
			t.Errorf("parked request: status %d, want 503", p.rec.Code)
		}
	}
}

// TestAPIHealthz checks the liveness payload.
func TestAPIHealthz(t *testing.T) {
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: 2})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var payload map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if payload["status"] != "ok" {
		t.Errorf("payload %v", payload)
	}
}
