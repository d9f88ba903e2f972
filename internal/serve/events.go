package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Event types carried on the error bus. Workers publish fault-path events
// as they happen; the gateway relays every node's stream onto its own bus
// (stamping Node), so subscribers see cluster-wide fault traffic pushed at
// fault time instead of discovered by the next health probe.
const (
	// EventPanelFault: a run leg failed inside the ladder (ABFT escalation
	// or OS panic) before any rollback decision.
	EventPanelFault = "panel_fault"
	// EventLadderEscalation: the ladder rolled back to a checkpoint and is
	// replaying from the reported step.
	EventLadderEscalation = "ladder_escalation"
	// EventCheckpoint: a checkpoint was committed at the reported step.
	EventCheckpoint = "checkpoint_committed"
	// EventJobResumed: a long job started executing, at Step 0 (fresh) or
	// the shipped snapshot's step (after a migration).
	EventJobResumed = "job_resumed"
	// EventJobDone: a long job reached a terminal classification.
	EventJobDone = "job_done"
	// EventNodeDeath: the gateway lost a node's event stream or saw its
	// transport die — published by the gateway, not by workers.
	EventNodeDeath = "node_death"
)

// Event is one typed fault-path occurrence on the bus.
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeMS int64  `json:"time_ms"` // unix milliseconds at publish
	Type   string `json:"type"`
	Job    string `json:"job,omitempty"`
	Node   string `json:"node,omitempty"`
	Step   int    `json:"step,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Bus is the in-process error bus: a bounded replay ring plus non-blocking
// fan-out to subscribers. Publish never blocks the compute path — a slow
// subscriber loses events (counted), it does not stall a solve.
type Bus struct {
	mu      sync.Mutex
	seq     uint64
	ring    []Event
	n       int // ring occupancy
	next    int // ring write cursor
	subs    map[int]chan Event
	subID   int
	dropped int64
}

// eventBuffer is the replay ring's capacity, a node's and the gateway's
// alike.
const eventBuffer = 256

// NewBus builds a bus with an eventBuffer-event replay ring.
func NewBus() *Bus {
	return &Bus{ring: make([]Event, eventBuffer), subs: map[int]chan Event{}}
}

// Publish stamps the event (Seq, TimeMS) and delivers it to the ring and
// every subscriber that has buffer room. Returns the stamped event.
func (b *Bus) Publish(e Event) Event {
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	if e.TimeMS == 0 {
		e.TimeMS = time.Now().UnixMilli()
	}
	b.ring[b.next] = e
	b.next = (b.next + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	for _, ch := range b.subs {
		select {
		case ch <- e:
		default:
			b.dropped++
		}
	}
	b.mu.Unlock()
	return e
}

// Subscribe registers a buffered listener; cancel unregisters it. Events
// that overflow the buffer are dropped (and counted), never blocked on.
func (b *Bus) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 64
	}
	ch := make(chan Event, buf)
	b.mu.Lock()
	b.subID++
	id := b.subID
	b.subs[id] = ch
	b.mu.Unlock()
	return ch, func() {
		b.mu.Lock()
		delete(b.subs, id)
		b.mu.Unlock()
	}
}

// Recent returns up to n most-recent events, oldest first.
func (b *Bus) Recent(n int) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n <= 0 || n > b.n {
		n = b.n
	}
	out := make([]Event, 0, n)
	start := b.next - n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

// Dropped reports events lost to slow subscribers.
func (b *Bus) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Published reports the total events published.
func (b *Bus) Published() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// AddVars adds the bus's counters to a /debug/vars map as events_published
// and events_dropped; a nil bus adds nothing.
func (b *Bus) AddVars(out map[string]any) {
	if b == nil {
		return
	}
	out["events_published"] = b.Published()
	out["events_dropped"] = b.Dropped()
}

// ServeEventStream streams a bus as newline-delimited JSON until the client
// disconnects or quit closes. ?replay=N prepends up to N buffered events
// (default 0); live events follow, deduplicated against the replay by
// sequence number. Both the worker's /v1/events and the gateway's re-export
// use this handler body.
func ServeEventStream(w http.ResponseWriter, r *http.Request, b *Bus, quit <-chan struct{}) {
	replay := 0
	if v := r.URL.Query().Get("replay"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteErr(w, http.StatusBadRequest, "bad_request", "replay must be a non-negative integer")
			return
		}
		replay = n
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)

	// Subscribe before replaying so no event falls between the two.
	ch, cancel := b.Subscribe(256)
	defer cancel()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var lastSeq uint64
	for _, e := range b.Recent(replay) {
		_ = enc.Encode(e)
		lastSeq = e.Seq
	}
	bw.Flush()
	if fl != nil {
		fl.Flush()
	}
	for {
		select {
		case e := <-ch:
			if e.Seq <= lastSeq {
				continue
			}
			lastSeq = e.Seq
			if err := enc.Encode(e); err != nil {
				return
			}
			bw.Flush()
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		case <-quit:
			return
		}
	}
}
