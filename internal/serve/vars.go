package serve

import (
	"expvar"
	"reflect"
	"sync"
)

// Vars renders the counters of the struct v points to as a flat
// /debug/vars map. A metric is declared once, by its field's tag: an
// expvar.Int field tagged `var:"accepted"` renders as "accepted" (int64),
// an expvar.Float as float64, and a tagged struct field renders its own
// fields with its tag as their key prefix. Untagged fields are skipped.
func Vars(v any) map[string]any {
	out := map[string]any{}
	addVars(out, "", reflect.ValueOf(v).Elem())
	return out
}

func addVars(out map[string]any, prefix string, s reflect.Value) {
	for i := 0; i < s.NumField(); i++ {
		key, ok := s.Type().Field(i).Tag.Lookup("var")
		if !ok {
			continue
		}
		switch f := s.Field(i).Addr().Interface().(type) {
		case *expvar.Int:
			out[prefix+key] = f.Value()
		case *expvar.Float:
			out[prefix+key] = f.Value()
		default:
			addVars(out, prefix+key, s.Field(i))
		}
	}
}

// maxLedgers bounds every Ledgers family: a name may be the client's to
// choose (a tenant), so without a cap the map is the client's to grow.
const maxLedgers = 1024

// otherLedger is the ledger every name first seen after the cap shares. A
// client may name itself "_other"; it then counts there too.
const otherLedger = "_other"

// Ledgers is a keyed family of one ledger type, created on first use. The
// first maxLedgers names get a ledger each; later ones are counted together
// under otherLedger, so totals stay exact and memory bounded. The zero
// value is ready to use.
type Ledgers[T any] struct {
	mu sync.Mutex
	m  map[string]*T
}

// Get returns (creating on first use) the named ledger.
func (l *Ledgers[T]) Get(name string) *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[string]*T)
	}
	t, ok := l.m[name]
	if !ok && len(l.m) >= maxLedgers {
		name = otherLedger
		t, ok = l.m[name]
	}
	if !ok {
		t = new(T)
		l.m[name] = t
	}
	return t
}

// Each calls fn on every ledger, under the family's lock.
func (l *Ledgers[T]) Each(fn func(name string, t *T)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, t := range l.m {
		fn(name, t)
	}
}

// Snapshot renders the family as name → Vars of its ledger.
func (l *Ledgers[T]) Snapshot() map[string]any {
	out := map[string]any{}
	l.Each(func(name string, t *T) { out[name] = Vars(t) })
	return out
}
