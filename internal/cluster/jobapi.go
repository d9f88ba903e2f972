package cluster

import (
	"net/http"
	"strconv"

	"coopabft/internal/checkpoint"
	"coopabft/internal/serve"
)

// Jobs API handlers. Routes (wired in NewHandler):
//
//	POST   /v1/jobs                  submit → 202 Accepted + JobStatus
//	GET    /v1/jobs/{id}             poll → 200 + JobStatus (404 after eviction)
//	DELETE /v1/jobs/{id}             cancel → 200 + JobStatus at call time
//	PUT    /v1/jobs/{id}/checkpoint  store a long job's streamed snapshot
//
// The wire contract — JobStatus's shape and its field-stability
// guarantees — is documented on serve.JobStatus, next to the types.
// Submission is serve.HandleRequest over SubmitJob: the body is a
// serve.Request (the same shape the sync kernel routes take, kernel named in
// the body).

// handleJobGet returns a job's current status.
func (g *Gateway) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := g.JobStatusOf(r.PathValue("id"))
	if err != nil {
		serve.WriteErr(w, http.StatusNotFound, "unknown_job", err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, st)
}

// handleJobCancel requests cancellation and returns the status at call
// time; clients poll GET for the terminal state.
func (g *Gateway) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	st, err := g.CancelJob(r.PathValue("id"))
	if err != nil {
		serve.WriteErr(w, http.StatusNotFound, "unknown_job", err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, st)
}

// handleJobCheckpoint receives one streamed snapshot from a long job's
// worker (PUT /v1/jobs/{id}/checkpoint?epoch=N). The body must decode as
// a checkpoint snapshot — the gateway never retains bytes it could not
// resume from. Stale PUTs (old epoch, non-advancing step) answer 200 with
// stored:false: the worker's stream is healthy, its snapshot just lost
// the race, so the worker must not count it as a transport failure.
func (g *Gateway) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.jobMu.Lock()
	rec, ok := g.jobs[id]
	g.jobMu.Unlock()
	if !ok {
		serve.WriteErr(w, http.StatusNotFound, "unknown_job", "no such job: "+id)
		return
	}
	epoch, err := strconv.ParseInt(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		serve.WriteErr(w, http.StatusBadRequest, "bad_request", "epoch must be an integer")
		return
	}
	body, err := serve.ReadBody(r.Body, r.ContentLength, serve.ReplyLimit)
	if err != nil {
		serve.WriteErr(w, http.StatusBadRequest, "bad_request", "reading snapshot: "+err.Error())
		return
	}
	defer serve.PutBody(body)
	snap, err := checkpoint.Decode(body.Bytes())
	if err != nil {
		serve.WriteErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	stored, recoveredMS := rec.acceptCheckpoint(epoch, snap.Step, snap.Restarts, body.Bytes())
	if !stored {
		g.m.CheckpointsStale.Add(1)
		serve.WriteJSON(w, http.StatusOK, map[string]any{"stored": false})
		return
	}
	g.m.CheckpointsStored.Add(1)
	if recoveredMS > 0 {
		g.m.RecoveryMSSum.Add(recoveredMS)
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"stored": true, "step": snap.Step})
}

// handleEvents re-exports the gateway's error bus — every node's fault
// events with Node stamped, plus the gateway's own node_death
// publications — as the same NDJSON stream the workers serve.
func (g *Gateway) handleEvents(w http.ResponseWriter, r *http.Request) {
	serve.ServeEventStream(w, r, g.bus, g.quit)
}
