package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// healthPayload is the slice of abftd's /healthz body the prober reads:
// liveness plus the queue depth the serve layer exports (the same value
// appears as serve.queue_depth in the node's /debug/vars).
type healthPayload struct {
	Status     string `json:"status"`
	QueueDepth int64  `json:"queue_depth"`
}

// probeLoop probes one node every ProbeInterval until Close.
func (g *Gateway) probeLoop(nd *node) {
	defer g.probeWG.Done()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			g.probe(nd)
		case <-g.quit:
			return
		}
	}
}

// probe hits a node's /healthz once: a 200 "ok" marks the node healthy,
// refreshes its backpressure gauges, and — via the breaker — lets a
// restarted node rejoin rotation without sacrificing a live request.
// Anything else marks it unhealthy so placement routes around it before
// the breaker's failure threshold is even reached.
func (g *Gateway) probe(nd *node) {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	defer cancel()
	ok := false
	var hp healthPayload
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.base+"/healthz", nil)
	if err == nil {
		if resp, rerr := g.long.RoundTrip(req); rerr == nil {
			payload, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK &&
				json.Unmarshal(payload, &hp) == nil && hp.Status == "ok" {
				ok = true
			}
		}
	}
	if ok {
		nd.m.Healthy.Set(1)
		nd.m.QueueDepth.Set(hp.QueueDepth)
	} else {
		nd.m.Healthy.Set(0)
	}
	nd.br.onProbe(time.Now(), ok)
}
