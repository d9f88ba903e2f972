package cluster

import (
	"bytes"
	"encoding/json"
	"expvar"
	"os"
	"reflect"
	"testing"

	"coopabft/internal/serve"
)

// fillCounters sets every exported expvar field of the struct v points to
// to a distinct value: 1, 2, 3, … for Ints and the next count plus a half
// for Floats, so a swapped key or a Float rendered as an Int shows in the
// bytes.
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

// TestMetricsGolden pins the gateway's whole /debug/vars "cluster" payload:
// every key, its value's JSON type and its bytes, with every counter, two
// node ledgers (and the suspects_per_node view derived from them) and the
// error bus set. The zero Metrics is pinned too: empty node maps, no bus
// keys.
func TestMetricsGolden(t *testing.T) {
	var zero Metrics
	checkGolden(t, "metrics_zero.golden.json", zero.Snapshot())

	var m Metrics
	var next int64
	fillCounters(&m, &next)
	fillCounters(m.Node("n0"), &next)
	fillCounters(m.Node("n1"), &next)
	bus := serve.NewBus()
	m.bus = bus
	_, cancel := bus.Subscribe(1)
	defer cancel()
	for i := 0; i < 3; i++ {
		bus.Publish(serve.Event{Type: "golden", TimeMS: 1})
	}
	checkGolden(t, "metrics.golden.json", m.Snapshot())
}
