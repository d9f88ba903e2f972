package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coopabft/internal/core"
	"coopabft/internal/serve"
)

// TestGatewayErrorKinds drives every typed error the gateway's own request
// paths produce through its real handler, from the condition that produces
// it: the status, kind and Retry-After a client sees, and the typed error
// serve.ReadError makes of the reply. A node's own kind never leaks through:
// a shedding node makes the gateway overloaded, a node in queue timeout
// makes it unavailable.
func TestGatewayErrorKinds(t *testing.T) {
	var hits atomic.Int64
	ok := stubNode(t, okStub(t, &hits, "corrected"))
	replying := func(code int, kind string) string {
		return stubNode(t, func(w http.ResponseWriter, r *http.Request) { serve.WriteErr(w, code, kind, "stub "+kind) })
	}
	// A parked handler that never reads its body cannot see its client leave,
	// so it is released before its server closes.
	release := make(chan struct{})
	parked := stubNode(t, func(w http.ResponseWriter, r *http.Request) { <-release })
	t.Cleanup(func() { close(release) })
	gateway := func(cfg Config) http.Handler {
		cfg.Retries, cfg.RetryBackoff, cfg.ProbeInterval, cfg.Seed = -1, time.Millisecond, -1, 7
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return NewHandler(g)
	}
	nodes := func(url string, strategies ...core.Strategy) []NodeConfig {
		return []NodeConfig{{ID: "n0", BaseURL: url, Strategies: strategies}}
	}
	for _, c := range []struct {
		name       string
		h          http.Handler
		path, body string
		primed     bool // the same request goes first, to use up what the case runs out of
		status     int
		kind       string
		retryAfter string
		is         error
	}{
		{"bad_request", gateway(Config{Nodes: nodes(ok)}), "/v1/gemm", `{"strategy":"TripleModular"}`, false,
			400, "bad_request", "", serve.ErrBadRequest},
		{"throttled", gateway(Config{Nodes: nodes(ok), TenantRate: 0.001, TenantBurst: 1}), "/v1/gemm", `{"n":16}`, true,
			429, "throttled", "1000", &serve.ThrottleError{}},
		{"overloaded", gateway(Config{Nodes: nodes(replying(429, "shed"))}), "/v1/gemm", `{"n":16}`, false,
			429, "overloaded", "1", serve.ErrOverloaded},
		{"no_nodes", gateway(Config{Nodes: nodes(ok, core.WholeChipkill)}), "/v1/gemm", `{"n":16,"strategy":"No_ECC"}`, false,
			503, "no_nodes", "", serve.ErrNoNodes},
		{"no_quorum", gateway(Config{Nodes: nodes(ok)}), "/v1/gemm", `{"n":16,"integrity":"vote","replicas":3}`, false,
			503, "no_quorum", "1", serve.ErrNoQuorum},
		{"unavailable", gateway(Config{Nodes: nodes(replying(503, "queue_timeout"))}), "/v1/gemm", `{"n":16}`, false,
			503, "unavailable", "", serve.ErrUnavailable},
		{"jobs accepted", gateway(Config{Nodes: nodes(ok)}), "/v1/jobs", `{"kernel":"gemm","n":16}`, false,
			202, "", "", nil},
		{"jobs bad_request", gateway(Config{Nodes: nodes(ok)}), "/v1/jobs", `{"kernel":"fft"}`, false,
			400, "bad_request", "", serve.ErrBadRequest},
		{"jobs overloaded", gateway(Config{Nodes: nodes(parked), MaxJobs: 1}), "/v1/jobs", `{"kernel":"gemm","n":16}`, true,
			429, "overloaded", "1", serve.ErrOverloaded},
	} {
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			return rec
		}
		if c.primed {
			post()
		}
		rec := post()
		var e struct{ Kind string }
		_ = json.Unmarshal(rec.Body.Bytes(), &e)
		if rec.Code != c.status || e.Kind != c.kind || rec.Header().Get("Retry-After") != c.retryAfter {
			t.Errorf("%s: %d kind %q Retry-After %q, want %d %q %q (body %s)", c.name,
				rec.Code, e.Kind, rec.Header().Get("Retry-After"), c.status, c.kind, c.retryAfter, rec.Body)
		}
		if c.is != nil {
			if err := serve.ReadError(rec.Code, rec.Header(), rec.Body.Bytes()); !errors.Is(err, c.is) {
				t.Errorf("%s: read back as %v, not the gateway's typed error", c.name, err)
			}
		}
	}
}

// TestGatewayStrictBody is TestAPIStrictBody's twin on the gateway: a body is
// one JSON value and whitespace on its request route and its jobs route,
// both read by serve.DecodeBody. The jobs route used to read with
// json.Decoder and admitted {"kernel":"gemm"}x as a job.
func TestGatewayStrictBody(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(NewHandler(testGateway(t, NodeConfig{ID: "n0", BaseURL: stubNode(t, okStub(t, &hits, "corrected"))})))
	defer ts.Close()
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for path, c := range map[string]struct {
		body  string
		ok    int
		empty int // an empty body: the all-defaults request, which has no kernel on the jobs route
	}{
		"/v1/gemm": {`{"n": 16, "seed": 3}`, http.StatusOK, http.StatusOK},
		"/v1/jobs": {`{"kernel": "gemm", "n": 16, "seed": 3}`, http.StatusAccepted, http.StatusBadRequest},
	} {
		if code, body := post(path, c.body+" \n\t\r\n"); code != c.ok {
			t.Errorf("%s with trailing whitespace: status %d, body %s", path, code, body)
		}
		for _, tail := range []string{"x", "{}", c.body, "\n\n]", "\u00a0"} {
			code, body := post(path, c.body+tail)
			var e struct{ Kind string }
			if err := json.Unmarshal([]byte(body), &e); code != http.StatusBadRequest || err != nil || e.Kind != "bad_request" {
				t.Errorf("%s with %q after its JSON value: status %d, body %s; want a bad_request 400", path, tail, code, body)
			}
		}
		for _, empty := range []string{"", " \n\t"} {
			if code, _ := post(path, empty); code != c.empty {
				t.Errorf("%s with body %q: status %d, want %d", path, empty, code, c.empty)
			}
		}
	}
}
