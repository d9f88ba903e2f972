package cluster

import (
	"context"
	"net/http"

	"coopabft/internal/serve"
)

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
// Requests and job submissions are read and answered as a node does
// (serve.HandleRequest), so a client cannot tell a gateway rejection from a
// node rejection by shape. Debug endpoints (/debug/vars, /debug/pprof) are
// the daemon's business.
func NewHandler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	for _, k := range serve.Kernels {
		mux.HandleFunc("POST /v1/"+k.String(), serve.HandleRequest(k.String(), http.StatusOK, g.Do))
	}
	mux.HandleFunc("POST /v1/jobs", serve.HandleRequest("", http.StatusAccepted,
		func(_ context.Context, req serve.Request) (serve.JobStatus, error) { return g.SubmitJob(req) }))
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobCancel)
	mux.HandleFunc("PUT /v1/jobs/{id}/checkpoint", g.handleJobCheckpoint)
	mux.HandleFunc("GET /v1/events", g.handleEvents)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("POST /admin/drain", g.handleAdmin(g.Drain, "draining"))
	mux.HandleFunc("POST /admin/rejoin", g.handleAdmin(g.Rejoin, "rejoined"))
	return mux
}

// handleHealthz reports gateway liveness plus every node's live state, so
// one probe answers "is the cluster up" and "which replicas are in
// rotation".
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"nodes":  g.Status(),
	})
}

// handleAdmin wraps Drain/Rejoin as POST /admin/<op>?node=ID.
func (g *Gateway) handleAdmin(op func(string) error, verb string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("node")
		if id == "" {
			serve.WriteErr(w, http.StatusBadRequest, "bad_request", "missing node query parameter")
			return
		}
		if err := op(id); err != nil {
			serve.WriteErr(w, http.StatusNotFound, "unknown_node", err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]string{"node": id, "status": verb})
	}
}
