package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"coopabft/internal/serve"
)

// maxBodyBytes bounds request bodies, mirroring the node-side limit.
const maxBodyBytes = 1 << 16

// errorBody matches the serve layer's JSON error envelope, so a client
// cannot tell a gateway rejection from a node rejection by shape.
type errorBody struct {
	Error string `json:"error"`
	// Kind is a stable machine-readable discriminator:
	// bad_request|overloaded|unavailable|no_nodes|no_quorum|internal|
	// unknown_node.
	Kind string `json:"kind"`
}

// NewHandler exposes the gateway's request path — the same wire surface as
// a single abftd node, so clients and the load generator drive a cluster
// exactly like one daemon — plus the cluster's own status and admin
// endpoints:
//
//	POST /v1/gemm, /v1/cholesky, /v1/cg   forwarded compute requests
//	POST   /v1/jobs                       submit an async job (202 + status)
//	GET    /v1/jobs/{id}                  poll a job's status/result
//	DELETE /v1/jobs/{id}                  cancel a job
//	PUT    /v1/jobs/{id}/checkpoint       long-job snapshot upload (workers)
//	GET  /v1/events                       cluster-wide error bus (NDJSON)
//	GET  /healthz                         gateway liveness + per-node status
//	POST /admin/drain?node=ID             take a node out of placement
//	POST /admin/rejoin?node=ID            return a drained node to placement
//
// Debug endpoints (/debug/vars, /debug/pprof) are the daemon's business.
func NewHandler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	for _, k := range serve.Kernels {
		mux.HandleFunc("POST /v1/"+k.String(), g.handleKernel(k.String()))
	}
	mux.HandleFunc("POST /v1/jobs", g.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobCancel)
	mux.HandleFunc("PUT /v1/jobs/{id}/checkpoint", g.handleJobCheckpoint)
	mux.HandleFunc("GET /v1/events", g.handleEvents)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("POST /admin/drain", g.handleAdmin(g.Drain, "draining"))
	mux.HandleFunc("POST /admin/rejoin", g.handleAdmin(g.Rejoin, "rejoined"))
	return mux
}

// handleKernel decodes the JSON body, forces the kernel from the route,
// and maps the gateway's typed errors onto HTTP status codes.
func (g *Gateway) handleKernel(kernel string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		if err := serve.DecodeBody(r.Body, r.ContentLength, maxBodyBytes, &req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
			return
		}
		req.Kernel = kernel

		resp, err := g.Do(r.Context(), req)
		var throttle *serve.ThrottleError
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, resp)
		case errors.Is(err, serve.ErrBadRequest):
			writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		case errors.As(err, &throttle):
			w.Header().Set("Retry-After", serve.RetryAfterSeconds(throttle.RetryAfter))
			writeErr(w, http.StatusTooManyRequests, "throttled", err.Error())
		case errors.Is(err, serve.ErrOverloaded):
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "overloaded", err.Error())
		case errors.Is(err, ErrNoNodes):
			writeErr(w, http.StatusServiceUnavailable, "no_nodes", err.Error())
		case errors.Is(err, ErrNoQuorum):
			// Quorum insufficiency is transient capacity, not shape: tell
			// the client when to come back, like an overload.
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable, "no_quorum", err.Error())
		case errors.Is(err, ErrUnavailable):
			writeErr(w, http.StatusServiceUnavailable, "unavailable", err.Error())
		default:
			writeErr(w, http.StatusInternalServerError, "internal", err.Error())
		}
	}
}

// handleHealthz reports gateway liveness plus every node's live state, so
// one probe answers "is the cluster up" and "which replicas are in
// rotation".
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"nodes":  g.Status(),
	})
}

// handleAdmin wraps Drain/Rejoin as POST /admin/<op>?node=ID.
func (g *Gateway) handleAdmin(op func(string) error, verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("node")
		if id == "" {
			writeErr(w, http.StatusBadRequest, "bad_request", "missing node query parameter")
			return
		}
		if err := op(id); err != nil {
			writeErr(w, http.StatusNotFound, "unknown_node", err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"node": id, "status": verb})
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, kind, msg string) {
	writeJSON(w, code, errorBody{Error: msg, Kind: kind})
}
