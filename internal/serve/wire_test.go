package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestWireContract pins every typed error either server writes, byte for
// byte, as each wrote it before the kind table existed (the workers'
// writeResult, the gateway's handleKernel and handleJobSubmit switches):
// status, envelope, Retry-After and Connection. Each reply goes through
// HandleRequest, the one handler of a Request body on both servers, and is
// read back through ReadError to an error that says what the server said and
// errors.Is the kind's typed error and no other row's.
func TestWireContract(t *testing.T) {
	throttle := &ThrottleError{Tenant: "flood", RetryAfter: 1500 * time.Millisecond}
	cases := []struct {
		route      string // worker and gateway answer 200, jobs 202
		err        error
		status     int
		kind       string
		retryAfter string
		close      bool
		is         error // nil: untyped, like internal
	}{
		{"worker", fmt.Errorf("%w: n=2 below 8", ErrBadRequest), 400, "bad_request", "", false, ErrBadRequest},
		{"worker", throttle, 429, "throttled", "2", false, &ThrottleError{}},
		{"worker", &ShedError{Tenant: "spec", Evicted: true}, 429, "shed", "1", false, &ShedError{}},
		{"worker", ErrOverloaded, 429, "overloaded", "1", false, ErrOverloaded},
		{"worker", fmt.Errorf("%w (waited 5s)", ErrQueueTimeout), 503, "queue_timeout", "", false, ErrQueueTimeout},
		{"worker", ErrClosed, 503, "closed", "", true, ErrClosed},
		{"worker", errors.New("serve: kernel panicked"), 500, "internal", "", false, nil},

		{"gateway", fmt.Errorf("%w: unknown strategy", ErrBadRequest), 400, "bad_request", "", false, ErrBadRequest},
		{"gateway", &ThrottleError{Tenant: "flood", RetryAfter: 250 * time.Millisecond}, 429, "throttled", "1", false, &ThrottleError{}},
		{"gateway", fmt.Errorf("%w: %v", ErrOverloaded, "every eligible replica's window is full"), 429, "overloaded", "1", false, ErrOverloaded},
		{"gateway", fmt.Errorf("%w: %s", ErrNoNodes, "No_ECC"), 503, "no_nodes", "", false, ErrNoNodes},
		{"gateway", fmt.Errorf("%w: integrity vote needs 3 distinct healthy capable nodes, have 2", ErrNoQuorum), 503, "no_quorum", "1", false, ErrNoQuorum},
		{"gateway", fmt.Errorf("%w after 3 attempts: %v", ErrUnavailable, "node n0: connection refused"), 503, "unavailable", "", false, ErrUnavailable},
		{"gateway", errors.New("cluster: something unforeseen"), 500, "internal", "", false, nil},

		{"jobs", nil, 202, "", "", false, nil},
		{"jobs", fmt.Errorf("%w: unknown kernel", ErrBadRequest), 400, "bad_request", "", false, ErrBadRequest},
		{"jobs", fmt.Errorf("%w: 128 jobs in flight", ErrOverloaded), 429, "overloaded", "1", false, ErrOverloaded},
		{"jobs", errors.New("cluster: something unforeseen"), 500, "internal", "", false, nil},
	}
	for _, c := range cases {
		name := c.kind
		if c.err == nil {
			name = "accepted"
		}
		t.Run(c.route+"/"+name, func(t *testing.T) {
			status := http.StatusOK
			if c.route == "jobs" {
				status = http.StatusAccepted
			}
			h := HandleRequest("", status, func(context.Context, Request) (JobStatus, error) {
				return JobStatus{ID: "j000001", State: JobQueued}, c.err
			})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"kernel":"gemm"}`)))

			want := `{"id":"j000001","state":"queued","kernel":"","n":0,"sharded":false,"queue_ms":0,"run_ms":0}` + "\n"
			if c.err != nil {
				want = fmt.Sprintf(`{"error":%q,"kind":%q}`+"\n", c.err.Error(), c.kind)
			}
			wantClose := ""
			if c.close {
				wantClose = "close"
			}
			if rec.Code != c.status || rec.Body.String() != want || rec.Header().Get("Content-Type") != "application/json" ||
				rec.Header().Get("Retry-After") != c.retryAfter || rec.Header().Get("Connection") != wantClose {
				t.Fatalf("wrote %d %q Retry-After %q Connection %q Content-Type %q\nwant %d %q Retry-After %q Connection %q",
					rec.Code, rec.Body, rec.Header().Get("Retry-After"), rec.Header().Get("Connection"), rec.Header().Get("Content-Type"),
					c.status, want, c.retryAfter, wantClose)
			}
			if c.err == nil {
				return
			}

			got := ReadError(rec.Code, rec.Header(), rec.Body.Bytes())
			if got.Error() != c.err.Error() {
				t.Errorf("read back as %q, want the server's message %q", got, c.err)
			}
			for _, k := range errorKinds {
				want := c.is != nil && errors.Is(c.is, k.is)
				if k.is != nil && errors.Is(got, k.is) != want {
					t.Errorf("read back with errors.Is(%s) = %v, want %v", k.kind, !want, want)
				}
			}
			var th *ThrottleError
			if errors.As(got, &th) && th.RetryAfter.String() != c.retryAfter+"s" {
				t.Errorf("throttle read back with RetryAfter %v, want the header's %ss", th.RetryAfter, c.retryAfter)
			}
		})
	}
}

// TestReadErrorFallsBackByStatus: a kind the contract does not list under
// its status reads as the status's generic kind, and a status it does not
// list at all as an untyped error; either message names the status.
func TestReadErrorFallsBackByStatus(t *testing.T) {
	for _, c := range []struct {
		status  int
		payload string
		is      error
		msg     string
	}{
		{429, `{"error":"busy","kind":"brownout"}`, ErrOverloaded, "HTTP 429: busy"},
		{503, `{"error":"down","kind":"maintenance"}`, ErrUnavailable, "HTTP 503: down"},
		{503, "upstream connect error\n", ErrUnavailable, "HTTP 503: upstream connect error"},
		{400, `{"error":"no","kind":"overloaded"}`, ErrBadRequest, "HTTP 400: no"},
		{404, `{"error":"cluster: unknown job \"j9\"","kind":"unknown_job"}`, nil, `HTTP 404: cluster: unknown job "j9"`},
		{502, "", nil, "HTTP 502: "},
	} {
		got := ReadError(c.status, http.Header{}, []byte(c.payload))
		if got.Error() != c.msg {
			t.Errorf("%d %q: read as %q, want %q", c.status, c.payload, got, c.msg)
		}
		for _, k := range errorKinds {
			if k.is != nil && errors.Is(got, k.is) != (k.is == c.is) {
				t.Errorf("%d %q: errors.Is(%s) = %v", c.status, c.payload, k.kind, errors.Is(got, k.is))
			}
		}
	}
}

// TestWriteJSONSetsContentLength: a JSON reply carries its Content-Length
// however large it is, so net/http, which chunks a reply written in pieces
// past its 2 KiB buffer, sends even a verify-vote primary's answer framed by
// its length; and a value that does not encode is answered with its status
// and an empty body.
func TestWriteJSONSetsContentLength(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/bad" {
			WriteJSON(w, http.StatusTeapot, func() {})
			return
		}
		WriteJSON(w, http.StatusOK, map[string]string{"answer": strings.Repeat("x", 64<<10)})
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || len(body) < 64<<10 {
		t.Errorf("%d-byte reply sent with Content-Length %d, Transfer-Encoding %v", len(body), resp.ContentLength, resp.TransferEncoding)
	}
	resp, err = http.Get(ts.URL + "/bad")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot || len(body) != 0 {
		t.Errorf("unencodable value answered %d with %q, want %d and no body", resp.StatusCode, body, http.StatusTeapot)
	}
}
