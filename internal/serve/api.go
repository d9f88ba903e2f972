package serve

import (
	"context"
	"errors"
	"io"
	"net/http"

	"coopabft/internal/mat"
)

// maxBodyBytes bounds request bodies; compute requests are tiny JSON.
const maxBodyBytes = 1 << 16

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
		mux.HandleFunc("POST /v1/"+k.String(), HandleRequest(k.String(), http.StatusOK, s.Do))
	}
	mux.HandleFunc("POST /v1/block", handleTask(blockMaxBodyBytes, s.DoBlock))
	mux.HandleFunc("POST /v1/verify", handleTask(verifyMaxBodyBytes(s.cfg.MaxN), s.DoVerify))
	mux.HandleFunc("POST /v1/longjob", handleTask(longMaxBodyBytes, s.DoLong))
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// HandleRequest is the one handler of a Request body, on both servers:
// decode the body (an empty one is the all-defaults request; one with
// anything but whitespace after its JSON value is a 400), force the kernel
// from the route when kernel is set, run the request through do, and answer
// with status or the error through WriteResult.
func HandleRequest[R any](kernel string, status int, do func(context.Context, Request) (R, error)) http.HandlerFunc {
	return handle(maxBodyBytes, true, status, func(ctx context.Context, req Request) (R, error) {
		if kernel != "" {
			req.Kernel = kernel
		}
		return do(ctx, req)
	})
}

// exchange is what one HTTP exchange decodes and answers: the request or
// task, and its result. A route keeps its exchanges on a free list and
// decodes into and encodes from them where they lie, so neither escapes to
// the heap per exchange nor is boxed into an interface.
type exchange[T, R any] struct {
	in  T
	out R
}

// maxIdleExchanges bounds each route's idle exchanges: as many as the
// exchanges it serves at once, the ten requests a worker admits by default
// (MaxConcurrency 2 executing, QueueDepth 8 queued) or a gateway's node
// windows' worth, and more than either under cmd/abftbench's load.
const maxIdleExchanges = 64

// handle is the handler behind every route that decodes a body: decode at
// most limit bytes into a recycled exchange (an all-whitespace body is the
// zero T where emptyOK, a 400 otherwise), run it through do, and answer
// with status or the error through WriteResult. A Response's packed answer
// goes back to the answer list once it is written, and the exchange, zeroed,
// to the route's list; an exchange whose do panicked is left to the GC.
func handle[T, R any](limit int64, emptyOK bool, status int, do func(context.Context, T) (R, error)) http.HandlerFunc {
	idle := mat.NewFreeList[*exchange[T, R]](maxIdleExchanges)
	return func(w http.ResponseWriter, r *http.Request) {
		x, ok := idle.Get()
		if !ok {
			x = new(exchange[T, R])
		}
		if err := DecodeBody(r.Body, r.ContentLength, limit, &x.in); err != nil && !(emptyOK && errors.Is(err, io.EOF)) {
			WriteErr(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		} else {
			var err error
			x.out, err = do(r.Context(), x.in)
			WriteResult(w, status, &x.out, err)
			if resp, ok := any(&x.out).(*Response); ok {
				resp.Answer.Release()
			}
		}
		*x = exchange[T, R]{}
		idle.Put(x, 1)
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
// limit bytes, run it through do, answer through WriteResult.
func handleTask[T, R any](limit int64, do func(context.Context, T) (R, error)) http.HandlerFunc {
	return handle(limit, false, http.StatusOK, do)
}

// handleEvents streams the service's error bus (push-on-fault: the gateway
// holds one of these open per node instead of relying on probe cadence).
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	ServeEventStream(w, r, s.bus, s.quit)
}

// handleHealthz reports liveness with a small load snapshot, so probes and
// the load generator's readiness wait share one endpoint.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queue_depth": s.m.QueueDepth.Value(),
		"running":     s.m.Running.Value(),
		"inflight":    s.m.Inflight.Value(),
		"queue_cap":   s.m.QueueCap.Value(),
	})
}
