package cluster

import (
	"expvar"
	"testing"
	"time"
)

func testBreaker() (*breaker, *expvar.Int) {
	trips := new(expvar.Int)
	return newBreaker(3, time.Second, 3, 16, trips), trips
}

// TestBreakerConsecutiveFailuresOpen: the failure threshold opens the
// circuit; deliveries in between reset the count.
func TestBreakerConsecutiveFailuresOpen(t *testing.T) {
	b, trips := testBreaker()
	now := time.Unix(1000, 0)
	b.onFailure(now)
	b.onFailure(now)
	b.onDelivered(now, false) // resets the streak
	b.onFailure(now)
	b.onFailure(now)
	if st := b.snapshot(); st != breakerClosed {
		t.Fatalf("state %v after interleaved failures, want closed", st)
	}
	b.onFailure(now)
	if st := b.snapshot(); st != breakerOpen || trips.Value() != 1 {
		t.Fatalf("state %v trips %d after the third consecutive failure, want open/1", st, trips.Value())
	}
	if b.allow(now.Add(500 * time.Millisecond)) {
		t.Error("open breaker allowed a request before cooldown")
	}
}

// TestBreakerHalfOpenTrial: after the cooldown exactly one trial flows; a
// delivery closes, a failure re-opens.
func TestBreakerHalfOpenTrial(t *testing.T) {
	b, trips := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		b.onFailure(now)
	}
	later := now.Add(2 * time.Second)
	if !b.allow(later) {
		t.Fatal("cooldown elapsed but no trial granted")
	}
	if b.allow(later) {
		t.Fatal("second trial granted while half-open")
	}
	b.onDelivered(later, false)
	if st := b.snapshot(); st != breakerClosed {
		t.Fatalf("state %v after successful trial, want closed", st)
	}

	// Now a failed trial: trip again, wait, fail the trial.
	for i := 0; i < 3; i++ {
		b.onFailure(later)
	}
	again := later.Add(2 * time.Second)
	if !b.allow(again) {
		t.Fatal("no second trial")
	}
	b.onFailure(again)
	if st := b.snapshot(); st != breakerOpen || trips.Value() != 3 {
		t.Fatalf("state %v trips %d after a failed half-open trial, want open/3", st, trips.Value())
	}
}

// TestBreakerAbortRateTrips: a full window of mostly-aborted deliveries
// opens the circuit even though every answer was typed.
func TestBreakerAbortRateTrips(t *testing.T) {
	b, trips := testBreaker() // window 20, trip at 90%
	now := time.Unix(1000, 0)
	for i := 0; i < abortWindow-3; i++ {
		b.onDelivered(now, true)
	}
	b.onDelivered(now, false)
	b.onDelivered(now, false)
	if st := b.snapshot(); st != breakerClosed {
		t.Fatal("tripped before the window filled")
	}
	b.onDelivered(now, true) // 18/20 aborted = 90%
	if st := b.snapshot(); st != breakerOpen || trips.Value() != 1 {
		t.Fatalf("state %v trips %d after the abort-rate threshold, want open/1", st, trips.Value())
	}
}

// TestBreakerHealthyAbortMixStaysClosed: scattered aborts below the
// threshold never trip.
func TestBreakerHealthyAbortMixStaysClosed(t *testing.T) {
	b, trips := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 40; i++ {
		b.onDelivered(now, i%2 == 0) // 50% aborted < 90%
	}
	if st := b.snapshot(); st != breakerClosed || trips.Value() != 0 {
		t.Fatalf("state %v trips %d under 50%% aborts, want closed/0", st, trips.Value())
	}
}

// TestBreakerInFlightDeliveryDoesNotReclose: a delivery landing on an OPEN
// breaker (an in-flight request from before the trip) must not close the
// circuit — re-closing would bypass the cooldown, and for suspect trips it
// would let a Byzantine node's own concurrent answers lift its quarantine.
func TestBreakerInFlightDeliveryDoesNotReclose(t *testing.T) {
	b, _ := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		b.onSuspect(now) // suspect trip: quarantine
	}
	if st := b.snapshot(); st != breakerOpen {
		t.Fatal("suspect accumulation did not trip")
	}
	b.onDelivered(now.Add(10*time.Millisecond), false) // in-flight honest answer
	if st := b.snapshot(); st != breakerOpen {
		t.Fatal("in-flight delivery re-closed an open breaker (cooldown bypass)")
	}
	if b.allow(now.Add(100 * time.Millisecond)) {
		t.Fatal("quarantined node admitted traffic before cooldown")
	}
	// Recovery still works through the sanctioned path: half-open trial.
	later := now.Add(2 * time.Second)
	if !b.allow(later) {
		t.Fatal("no trial after cooldown")
	}
	b.onDelivered(later, false)
	if st := b.snapshot(); st != breakerClosed {
		t.Fatal("successful trial did not close")
	}
}

// TestBreakerSuspectDecay: honest deliveries forgive accumulated suspects
// at one per suspectDecay, so sparse minority losses never build to a trip,
// while a steady liar still trips.
func TestBreakerSuspectDecay(t *testing.T) {
	b := newBreaker(3, time.Second, 3, 4, new(expvar.Int)) // decay every 4 deliveries
	now := time.Unix(1000, 0)
	// Two suspects, then enough honest traffic to decay both.
	b.onSuspect(now)
	b.onSuspect(now)
	for i := 0; i < 8; i++ {
		b.onDelivered(now, false)
	}
	if b.suspects != 0 {
		t.Fatalf("suspects = %d after decay traffic, want 0", b.suspects)
	}
	// A third suspect alone must not trip now.
	if b.onSuspect(now) {
		t.Fatal("tripped on a suspect that decay should have isolated")
	}
	// A steady liar outpaces decay: suspects arrive faster than one per
	// four deliveries.
	b2 := newBreaker(3, time.Second, 3, 4, new(expvar.Int))
	tripped := false
	for i := 0; i < 6 && !tripped; i++ {
		b2.onDelivered(now, false)
		tripped = b2.onSuspect(now)
	}
	if !tripped {
		t.Fatal("steady liar never tripped despite decay")
	}
}

// TestBreakerProbeCloses: a successful probe past the cooldown closes an
// open breaker (the restart-rejoin path), and a failed probe of a
// half-open breaker re-opens it.
func TestBreakerProbeCloses(t *testing.T) {
	b, _ := testBreaker()
	now := time.Unix(1000, 0)
	for i := 0; i < 3; i++ {
		b.onFailure(now)
	}
	b.onProbe(now.Add(100*time.Millisecond), true) // before cooldown: ignored
	if st := b.snapshot(); st != breakerOpen {
		t.Fatal("probe before cooldown must not close")
	}
	b.onProbe(now.Add(2*time.Second), true)
	if st := b.snapshot(); st != breakerClosed {
		t.Fatal("probe after cooldown should close")
	}

	for i := 0; i < 3; i++ {
		b.onFailure(now.Add(3 * time.Second))
	}
	trialAt := now.Add(5 * time.Second)
	if !b.allow(trialAt) {
		t.Fatal("no trial after second cooldown")
	}
	b.onProbe(trialAt, false) // probe sees it dead while a trial is out
	if st := b.snapshot(); st != breakerOpen {
		t.Fatal("failed probe of half-open breaker should re-open")
	}
}
