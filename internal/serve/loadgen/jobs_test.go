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

// fakeJobsServer is a scripted gateway: submit returns the queued status,
// each poll advances through the given sequence (sticking on the last).
type fakeJobsServer struct {
	mu    atomic.Int64 // poll count
	steps []serve.JobStatus
}

func (f *fakeJobsServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		json.NewDecoder(r.Body).Decode(&req)
		if req.Kernel != "gemm" {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": "bad kernel", "kind": "bad_request"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "j000001", State: serve.JobQueued, Kernel: "gemm", N: req.N})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != "j000001" {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no such job", "kind": "unknown_job"})
			return
		}
		i := int(f.mu.Add(1)) - 1
		if i >= len(f.steps) {
			i = len(f.steps) - 1
		}
		json.NewEncoder(w).Encode(f.steps[i])
	})
	return mux
}

// TestRunJobsHappyPath: the loop submits, polls through running to done,
// verifies the digest against the local reference, and the gate passes.
func TestRunJobsHappyPath(t *testing.T) {
	const n, seed = 32, uint64(9)
	done := serve.JobStatus{
		ID: "j000001", State: serve.JobDone, Kernel: "gemm", N: n, Sharded: true,
		BlocksTotal: 8, BlocksDone: 8, Digest: referenceDigest(n, seed),
	}
	f := &fakeJobsServer{steps: []serve.JobStatus{
		{ID: "j000001", State: serve.JobRunning, Kernel: "gemm", N: n, Sharded: true, BlocksTotal: 8, BlocksDone: 3},
		done,
	}}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	rep, err := RunJobs(context.Background(), &HTTPClient{Base: ts.URL},
		JobsConfig{N: n, Seed: seed, Verify: true, Poll: time.Millisecond})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if rep.Done != 1 || rep.Sharded != 1 || rep.DigestMismatch != 0 {
		t.Fatalf("report %+v", rep)
	}
	if got := f.mu.Load(); got != 2 {
		t.Errorf("polled %d times, want 2 (running, then done)", got)
	}
	if err := rep.Gate(); err != nil {
		t.Errorf("gate: %v", err)
	}
}

// TestRunJobsDigestMismatch: a done job with a wrong digest fails
// verification and the gate.
func TestRunJobsDigestMismatch(t *testing.T) {
	f := &fakeJobsServer{steps: []serve.JobStatus{{
		ID: "j000001", State: serve.JobDone, Kernel: "gemm", N: 32, Sharded: true, Digest: "deadbeefdeadbeef",
	}}}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	rep, err := RunJobs(context.Background(), &HTTPClient{Base: ts.URL},
		JobsConfig{N: 32, Seed: 3, Verify: true, Poll: time.Millisecond})
	if err != nil {
		t.Fatalf("RunJobs aborted the sweep: %v", err)
	}
	if rep.DigestMismatch != 1 {
		t.Fatalf("report %+v, want 1 digest mismatch", rep)
	}
	if err := rep.Gate(); !errors.Is(err, ErrJobFailed) {
		t.Errorf("gate = %v, want ErrJobFailed", err)
	}
}

// TestRunJobsFailedJob: a job that ends failed is tallied and trips the
// gate without aborting the sweep.
func TestRunJobsFailedJob(t *testing.T) {
	f := &fakeJobsServer{steps: []serve.JobStatus{{
		ID: "j000001", State: serve.JobFailed, Kernel: "gemm", N: 32, Error: "node lost",
	}}}
	ts := httptest.NewServer(f.handler())
	defer ts.Close()

	rep, err := RunJobs(context.Background(), &HTTPClient{Base: ts.URL},
		JobsConfig{N: 32, Poll: time.Millisecond})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if rep.Failed != 1 || rep.Done != 0 {
		t.Fatalf("report %+v", rep)
	}
	if err := rep.Gate(); !errors.Is(err, ErrJobFailed) {
		t.Errorf("gate = %v, want ErrJobFailed", err)
	}
}

// TestBadKernelNeverDialed is the regression test for the Kernel(%d)
// wire-leak: an unknown kernel must come back as a local ErrBadRequest
// from both the sync client and the jobs client, with zero HTTP requests
// issued — the raw string never reaches URL construction.
func TestBadKernelNeverDialed(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	c := &HTTPClient{Base: ts.URL}
	for _, kernel := range []string{"lu", "", "gemm/../admin", "Kernel(42)"} {
		if _, err := c.Do(context.Background(), serve.Request{Kernel: kernel, N: 16}); !errors.Is(err, serve.ErrBadRequest) {
			t.Errorf("Do(%q) err = %v, want ErrBadRequest", kernel, err)
		}
		if _, err := c.SubmitJob(context.Background(), serve.Request{Kernel: kernel, N: 16}); !errors.Is(err, serve.ErrBadRequest) {
			t.Errorf("SubmitJob(%q) err = %v, want ErrBadRequest", kernel, err)
		}
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("server saw %d requests for invalid kernels, want 0", got)
	}
}

// TestKernelCaseNormalized: ParseKernel is case-insensitive, so the URL is
// built from the canonical wire name, not the caller's spelling.
func TestKernelCaseNormalized(t *testing.T) {
	var path atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path.Store(r.URL.Path)
		json.NewEncoder(w).Encode(serve.Response{Kernel: "gemm", N: 16, Outcome: "corrected"})
	}))
	defer ts.Close()

	c := &HTTPClient{Base: ts.URL}
	if _, err := c.Do(context.Background(), serve.Request{Kernel: "GEMM", N: 16}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got := path.Load(); got != "/v1/gemm" {
		t.Errorf("dialed %v, want /v1/gemm", got)
	}
}

// TestShedPollBacksOffAndRecovers: 429s from the status route are shed
// signals, not failures — the loop waits out the Retry-After hint and the
// job still finishes done.
func TestShedPollBacksOffAndRecovers(t *testing.T) {
	var polls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "j000001", State: serve.JobQueued, Kernel: "gemm", N: 16})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "admission queue full", "kind": "overloaded"})
			return
		}
		json.NewEncoder(w).Encode(serve.JobStatus{ID: "j000001", State: serve.JobDone, Kernel: "gemm", N: 16})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := RunJobs(context.Background(), &HTTPClient{Base: ts.URL},
		JobsConfig{N: 16, Poll: time.Millisecond, PollMax: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	if rep.Done != 1 || rep.Failed != 0 {
		t.Fatalf("report %+v, want the shed job to finish done", rep)
	}
	if got := polls.Load(); got < 3 {
		t.Errorf("polls = %d, want >= 3 (two sheds plus the terminal)", got)
	}
}

// TestNextPollDelay: backoff roughly doubles, is deterministic for a given
// seed, and clamps into [Poll, PollMax].
func TestNextPollDelay(t *testing.T) {
	cfg := JobsConfig{Poll: 10 * time.Millisecond, PollMax: 100 * time.Millisecond}.withDefaults()
	d := nextPollDelay(cfg.Poll, cfg, 7)
	if d < 15*time.Millisecond || d > 25*time.Millisecond {
		t.Errorf("first backoff %v outside 2x±25%% of 10ms", d)
	}
	if again := nextPollDelay(cfg.Poll, cfg, 7); again != d {
		t.Errorf("backoff not deterministic: %v then %v", d, again)
	}
	for i := 0; i < 10; i++ {
		d = nextPollDelay(d, cfg, 7)
	}
	if d != cfg.PollMax {
		t.Errorf("backoff settled at %v, want clamp at PollMax %v", d, cfg.PollMax)
	}
}
