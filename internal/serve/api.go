package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// maxBodyBytes bounds request bodies; compute requests are tiny JSON.
const maxBodyBytes = 1 << 16

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// Kind is a stable machine-readable discriminator:
	// bad_request|throttled|shed|overloaded|queue_timeout|closed|internal.
	// Throttled means the tenant exceeded its own quota (back off for
	// Retry-After); shed means speculative work was sacrificed to overload
	// (resubmit when load drops, or as protected); overloaded is the
	// untyped legacy form.
	Kind string `json:"kind"`
}

// RetryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func RetryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// NewHandler exposes the service's request path:
//
//	POST /v1/gemm      run FT-DGEMM
//	POST /v1/cholesky  run FT-Cholesky
//	POST /v1/cg        run FT-CG
//	POST /v1/block     run one sharded-job block task
//	POST /v1/verify    run one replicated verification pass (verify-vote)
//	POST /v1/longjob   run one long-task incarnation (CG, checkpoint-streaming)
//	GET  /v1/events    stream the error bus as NDJSON (?replay=N)
//	GET  /healthz      liveness + queue snapshot
//
// Debug endpoints (/debug/vars, /debug/pprof) are the daemon's business —
// it decides what to expose on which listener.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	for _, k := range Kernels {
		mux.HandleFunc("POST /v1/"+k.String(), s.handleKernel(k.String()))
	}
	mux.HandleFunc("POST /v1/block", handleTask(blockMaxBodyBytes, s.DoBlock))
	mux.HandleFunc("POST /v1/verify", handleTask(verifyMaxBodyBytes(s.cfg.MaxN), s.DoVerify))
	mux.HandleFunc("POST /v1/longjob", handleTask(longMaxBodyBytes, s.DoLong))
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleKernel decodes the JSON body (an empty one is the all-defaults
// request; one with anything but whitespace after its JSON value is a 400),
// forces the kernel from the route, and answers through writeResult.
func (s *Service) handleKernel(kernel string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := DecodeBody(r.Body, r.ContentLength, maxBodyBytes, &req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
			return
		}
		req.Kernel = kernel
		resp, err := s.Do(r.Context(), req)
		writeResult(w, resp, err)
	}
}

// Side-route body limits. Block-task grid splits scale with the job size; a
// long task may ship a snapshot with the CG state vectors (x and b), which
// scale with MaxJobN²/16 grid areas.
const (
	blockMaxBodyBytes = 1 << 20
	longMaxBodyBytes  = 64 << 20
)

// verifyMaxBodyBytes bounds a verification task on a worker admitting n up
// to maxN: its two projections are 2·maxN numbers (16·maxN bytes as
// floats), each at most 24 bytes of JSON and a separator, plus 1 KiB for
// the scalar fields.
func verifyMaxBodyBytes(maxN int) int64 { return int64(2*maxN*25 + 1<<10) }

// handleTask is the side routes' one HTTP handler: decode a task of at most
// limit bytes, run it through do, answer through writeResult.
func handleTask[T, R any](limit int64, do func(context.Context, T) (R, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var task T
		if err := DecodeBody(r.Body, r.ContentLength, limit, &task); err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
			return
		}
		res, err := do(r.Context(), task)
		writeResult(w, res, err)
	}
}

// writeResult answers one request or task: 200 with res, or the service's
// typed error mapped onto its HTTP status and envelope kind — the one such
// mapping, shared by every route.
func writeResult(w http.ResponseWriter, res any, err error) {
	var throttle *ThrottleError
	var shed *ShedError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrBadRequest):
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
	case errors.As(err, &throttle):
		w.Header().Set("Retry-After", RetryAfterSeconds(throttle.RetryAfter))
		writeErr(w, http.StatusTooManyRequests, "throttled", err.Error())
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "shed", err.Error())
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "overloaded", err.Error())
	case errors.Is(err, ErrQueueTimeout):
		writeErr(w, http.StatusServiceUnavailable, "queue_timeout", err.Error())
	case errors.Is(err, ErrClosed):
		w.Header().Set("Connection", "close")
		writeErr(w, http.StatusServiceUnavailable, "closed", err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// handleEvents streams the service's error bus (push-on-fault: the gateway
// holds one of these open per node instead of relying on probe cadence).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	ServeEventStream(w, r, s.bus, s.quit)
}

// handleHealthz reports liveness with a small load snapshot, so probes and
// the load generator's readiness wait share one endpoint.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": s.m.QueueDepth.Value(),
		"running":     s.m.Running.Value(),
		"inflight":    s.m.Inflight.Value(),
		"queue_cap":   s.m.QueueCap.Value(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, kind, msg string) {
	writeJSON(w, code, errorBody{Error: msg, Kind: kind})
}
