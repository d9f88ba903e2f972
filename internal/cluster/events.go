package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"coopabft/internal/serve"
)

// Error-bus relay: the gateway holds one GET /v1/events stream open per
// node and republishes every event onto its own bus with Node stamped, so
// a subscriber at the gateway sees cluster-wide fault traffic (panel
// faults, ladder escalations, checkpoint commits) pushed at fault time.
//
// The stream doubles as push-on-fault death detection, complementing the
// probe loop's pull cadence: a node that never granted the subscription
// (older build, still booting, connection refused) is merely unsupported
// and stays probe-governed — but an established stream that drops means
// the worker process went away, so the gateway marks the node unhealthy
// and publishes node_death immediately instead of waiting out the next
// probe interval.

// watchLoop keeps one node's event subscription alive until Close,
// reconnecting after drops.
func (g *Gateway) watchLoop(nd *node) {
	defer g.probeWG.Done()
	for {
		g.watchOnce(nd)
		select {
		case <-g.quit:
			return
		case <-time.After(g.watchRetry()):
		}
	}
}

// watchRetry paces reconnection attempts; it rides the probe interval so a
// cluster tuned for fast detection also re-subscribes fast.
func (g *Gateway) watchRetry() time.Duration {
	if g.cfg.ProbeInterval > 0 {
		return g.cfg.ProbeInterval
	}
	return 250 * time.Millisecond
}

// watchOnce opens one stream and relays it until it ends.
func (g *Gateway) watchOnce(nd *node) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-g.quit:
			cancel() // unblock the body read on shutdown
		case <-done:
		}
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.base+"/v1/events", nil)
	if err != nil {
		return
	}
	resp, err := g.long.RoundTrip(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	// Established means a real event stream: 200 with the NDJSON content
	// type. Anything else (an older build's 404, a fake that answers every
	// route with JSON) is unsupported, not a subscription — its ending must
	// not read as a death.
	if resp.StatusCode != http.StatusOK ||
		resp.Header.Get("Content-Type") != "application/x-ndjson" {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev serve.Event
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		ev.Node = nd.id
		g.bus.Publish(ev) // restamps Seq on the gateway's sequence
		g.m.EventsRelayed.Add(1)
	}

	select {
	case <-g.quit:
		return // shutdown tore the stream down; not a death
	default:
	}
	nd.m.Healthy.Set(0)
	g.m.NodeDeaths.Add(1)
	g.bus.Publish(serve.Event{Type: serve.EventNodeDeath, Node: nd.id, Detail: "event stream dropped"})
}
