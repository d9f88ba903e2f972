package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"os"
	"reflect"
	"testing"
	"time"
)

// fillCounters sets every exported expvar field of the struct v points to,
// nested ledgers included, to a distinct value: 1, 2, 3, … for Ints and the
// next count plus a half for Floats, so a swapped key or a Float rendered
// as an Int shows in the bytes.
func fillCounters(v any, next *int64) {
	s := reflect.ValueOf(v).Elem()
	for i := 0; i < s.NumField(); i++ {
		if !s.Type().Field(i).IsExported() {
			continue
		}
		switch f := s.Field(i).Addr().Interface().(type) {
		case *expvar.Int:
			*next++
			f.Set(*next)
		case *expvar.Float:
			*next++
			f.Set(float64(*next) + 0.5)
		default:
			fillCounters(f, next)
		}
	}
}

// checkGolden compares the JSON of a /debug/vars snapshot, indented, with
// testdata/<name>. A mismatch prints the whole rendering; if the change is
// meant, that text is the new file.
func checkGolden(t *testing.T, name string, snap map[string]any) {
	t.Helper()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := json.Indent(&got, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	got.WriteByte('\n')
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("snapshot differs from testdata/%s; got:\n%s", name, got.Bytes())
	}
}

// TestMetricsGolden pins the worker's whole /debug/vars "serve" payload:
// every key, its value's JSON type and its bytes, with every counter, the
// three route ledgers, two tenant ledgers and the error bus set. The zero
// Metrics is pinned too: no tenants key and no bus keys until there are any.
func TestMetricsGolden(t *testing.T) {
	var zero Metrics
	checkGolden(t, "metrics_zero.golden.json", zero.Snapshot())

	var m Metrics
	var next int64
	fillCounters(&m, &next)
	fillCounters(m.Tenant("gold"), &next)
	fillCounters(m.Tenant("flood"), &next)
	m.bus = NewBus()
	_, cancel := m.bus.Subscribe(1)
	defer cancel()
	for i := 0; i < 3; i++ {
		m.bus.Publish(Event{Type: "golden", TimeMS: 1})
	}
	checkGolden(t, "metrics.golden.json", m.Snapshot())
}

// TestAdmissionLedgerIdentity: every admitted request ends exactly one
// way, so with no long tasks and no shutdown
//
//	accepted = corrected + restarted + aborted + queue_timeouts + evicted
//
// A queued speculative request evicted by a protected arrival is the term
// an "outcomes = accepted − queue timeouts" reading misses: it was
// accepted, it counts in shed, it is never classified, and it is not a
// door rejection. Evictions are counted from the replies, since no counter
// holds them alone.
func TestAdmissionLedgerIdentity(t *testing.T) {
	const depth, protected = 6, 4
	s := newTestService(t, Config{MaxConcurrency: 1, QueueDepth: depth, QueueTimeout: time.Minute})
	m := s.Metrics()
	s.sem <- struct{}{} // hold the one execution slot: nothing leaves the queue

	replies := make(chan error, 4*depth)
	sent := 0
	send := func(req Request) {
		sent++
		req.Kernel, req.N, req.Seed = "gemm", 16, uint64(sent)
		go func() {
			_, err := s.Do(context.Background(), req)
			replies <- err
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	settled := func() int64 { return m.Accepted.Value() + m.Rejected.Value() }

	// Nothing leaves the queue while the slot is held: speculative work
	// fills it until one is shed at the door.
	for m.Rejected.Value() == 0 {
		before := settled()
		send(Request{Priority: "speculative"})
		waitFor("a speculative request to settle", func() bool { return settled() > before })
	}
	// Each protected arrival at the full queue evicts one speculative
	// request; the last one's deadline then expires in the queue.
	for i := 0; i < protected; i++ {
		before := m.Accepted.Value()
		req := Request{Priority: "protected"}
		if i == protected-1 {
			req.TimeoutMS = 1
		}
		send(req)
		waitFor("a protected request to be admitted", func() bool { return m.Accepted.Value() > before })
	}
	waitFor("the queued deadline to expire", func() bool { return m.QueueTimeouts.Value() == 1 })
	<-s.sem

	var evicted, doorSheds, answered int64
	for i := 0; i < sent; i++ {
		var shed *ShedError
		switch err := <-replies; {
		case err == nil:
			answered++
		case errors.As(err, &shed) && shed.Evicted:
			evicted++
		case errors.As(err, &shed):
			doorSheds++
		case !errors.Is(err, ErrQueueTimeout):
			t.Errorf("unexpected reply error: %v", err)
		}
	}
	if evicted != protected {
		t.Errorf("%d evictions, want one per protected arrival (%d)", evicted, protected)
	}
	outcomes := m.Corrected.Value() + m.Restarted.Value() + m.Aborted.Value()
	if outcomes != answered {
		t.Errorf("outcome counters %d, answered replies %d", outcomes, answered)
	}
	if got, want := m.Accepted.Value(), outcomes+m.QueueTimeouts.Value()+evicted; got != want {
		t.Errorf("accepted %d, want corrected+restarted+aborted+queue_timeouts+evicted = %d+%d+%d = %d",
			got, outcomes, m.QueueTimeouts.Value(), evicted, want)
	}
	if m.Rejected.Value() != doorSheds || m.Shed.Value() != doorSheds+evicted {
		t.Errorf("rejected %d, shed %d; want door sheds %d, and those plus evictions %d",
			m.Rejected.Value(), m.Shed.Value(), doorSheds, doorSheds+evicted)
	}
}
