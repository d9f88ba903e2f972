package cluster

import (
	"expvar"
	"math"
	"sync"
	"time"
)

// The elevated-aborted trip: once the last abortWindow delivered outcomes
// are at least abortTrip aborted, the breaker opens.
const (
	abortWindow = 20
	abortTrip   = 0.9
)

// breakerState is the classic three-state circuit: closed (traffic flows),
// open (node parked), half-open (one trial in flight).
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "breaker(?)"
	}
}

// breaker is a per-node circuit breaker. It trips on consecutive
// connection/503 failures or on an elevated aborted rate over a sliding
// window of delivered outcomes (a node whose ladder keeps giving up is
// sick even though its answers are typed), parks the node for a cooldown,
// then admits a single trial — a successful health probe or one live
// request — to close again. Delivered classifications are never failures:
// an aborted answer feeds the rate window but does not count as a
// connection fault. Every trip, whatever fed it, counts in trips: the
// node's breaker_trips.
type breaker struct {
	mu          sync.Mutex
	state       breakerState
	consecFails int
	openedAt    time.Time
	trips       *expvar.Int

	// Sliding outcome window for the aborted-rate trip.
	ring  [abortWindow]bool // true = aborted
	ringN int               // filled entries
	ringI int               // next write slot

	// Cumulative minority-vote count for the integrity tier's suspect
	// trip. Deliberately NOT reset by honest deliveries: a Byzantine node
	// answers most requests plausibly (transport-healthy, oracle-typed),
	// so consecutive-style accounting would let interleaved honest work
	// launder its lies forever. It does DECAY — one suspect forgiven per
	// suspectDecay consecutive honest deliveries — so a rare honest minority
	// loss (replica set split across a marginal answer) cannot accumulate
	// into a trip over weeks of clean traffic. Decay is far slower than any
	// plausible lie rate: a liar gains at most 1/suspectDecay forgiveness
	// per delivery, so it still trips in O(suspectTrip·suspectDecay)
	// requests at the margin.
	suspects     int
	sinceSuspect int // honest deliveries since the last suspect/decay event

	failLimit    int
	cooldown     time.Duration
	suspectTrip  int
	suspectDecay int
}

func newBreaker(failLimit int, cooldown time.Duration, suspectTrip, suspectDecay int, trips *expvar.Int) *breaker {
	return &breaker{
		failLimit:    failLimit,
		cooldown:     cooldown,
		suspectTrip:  suspectTrip,
		suspectDecay: suspectDecay,
		trips:        trips,
	}
}

// allow reports whether a live request may be forwarded now. An open
// breaker whose cooldown has elapsed grants exactly one half-open trial;
// further requests wait for the trial's verdict.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // half-open: the trial is already out
		return false
	}
}

// onDelivered records a classified answer. A delivery closes a HALF-OPEN
// breaker (it is the trial's verdict) and clears the consecutive-failure
// count; aborted outcomes feed the sliding rate window, which trips once it
// is full and the aborted fraction reaches abortTrip.
//
// A delivery landing on an OPEN breaker is ignored: it is an in-flight
// request from before the trip, and letting it re-close the circuit would
// bypass the cooldown entirely — in particular, a suspect-tripped breaker
// (Byzantine quarantine) would be re-opened for traffic by the very node's
// own concurrent answers. Only the half-open trial or a health probe may
// close an open breaker.
func (b *breaker) onDelivered(now time.Time, aborted bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails = 0
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerClosed
		b.resetRing()
	case breakerOpen:
		return
	}
	if b.suspects > 0 && b.suspectDecay > 0 {
		b.sinceSuspect++
		if b.sinceSuspect >= b.suspectDecay {
			b.sinceSuspect = 0
			b.suspects--
		}
	}
	b.ring[b.ringI] = aborted
	b.ringI = (b.ringI + 1) % len(b.ring)
	if b.ringN < len(b.ring) {
		b.ringN++
	}
	if b.ringN == len(b.ring) {
		abortedN := 0
		for _, a := range b.ring {
			if a {
				abortedN++
			}
		}
		if abortedN >= int(math.Ceil(abortTrip*abortWindow)) {
			b.trip(now)
		}
	}
}

// onFailure records a connection failure or 503. A failed half-open trial
// re-opens immediately; otherwise the consecutive-failure threshold
// applies.
func (b *breaker) onFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecFails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.consecFails >= b.failLimit) {
		b.trip(now)
	}
}

// onSuspect records a vote election this node lost — it delivered a
// well-formed answer the replica majority proved wrong. The tally is
// cumulative across deliveries (see the field comment) and trips the
// breaker at suspectTrip, resetting only then. Returns true when this
// suspect tripped the breaker.
func (b *breaker) onSuspect(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.suspects++
	b.sinceSuspect = 0
	if b.suspects >= b.suspectTrip {
		b.suspects = 0
		b.trip(now)
		return true
	}
	return false
}

// onProbe feeds health-probe results: a successful probe of an open node
// past its cooldown closes the breaker (the probe is the trial, so a
// restarted node rejoins without sacrificing a live request); a failed
// probe of a half-open node re-opens it.
func (b *breaker) onProbe(now time.Time, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case ok && b.state == breakerHalfOpen:
		b.state = breakerClosed
		b.consecFails = 0
		b.resetRing()
	case ok && b.state == breakerOpen && now.Sub(b.openedAt) >= b.cooldown:
		b.state = breakerClosed
		b.consecFails = 0
		b.resetRing()
	case !ok && b.state == breakerHalfOpen:
		b.trip(now)
	}
}

// trip opens the breaker. Callers hold b.mu.
func (b *breaker) trip(now time.Time) {
	b.state = breakerOpen
	b.openedAt = now
	b.consecFails = 0
	b.trips.Add(1)
	b.resetRing()
}

// resetRing clears the outcome window. Callers hold b.mu.
func (b *breaker) resetRing() {
	b.ringN, b.ringI = 0, 0
}

// snapshot returns the state.
func (b *breaker) snapshot() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
