package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"coopabft/internal/trace"
)

func sampleSnapshot() Snapshot {
	return Snapshot{
		Step:     42,
		Restarts: 2,
		Regions: []SnapRegion{
			{Name: "cg.x", Data: []float64{1.5, -0.25, math.Pi, math.Copysign(0, -1)}},
			{Name: "cg.b", Data: []float64{math.Inf(1), math.Inf(-1), math.NaN()}},
			{Name: "empty", Data: nil},
		},
	}
}

// Round trip must be bit-exact for every float, including negative zero,
// infinities, and NaN payloads.
func TestCodecRoundTripBitExact(t *testing.T) {
	want := sampleSnapshot()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != want.Step || got.Restarts != want.Restarts {
		t.Errorf("header = (%d,%d), want (%d,%d)", got.Step, got.Restarts, want.Step, want.Restarts)
	}
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("got %d regions, want %d", len(got.Regions), len(want.Regions))
	}
	for i, r := range want.Regions {
		g := got.Regions[i]
		if g.Name != r.Name {
			t.Errorf("region %d name = %q, want %q", i, g.Name, r.Name)
		}
		if len(g.Data) != len(r.Data) {
			t.Fatalf("region %q has %d floats, want %d", r.Name, len(g.Data), len(r.Data))
		}
		for k := range r.Data {
			if math.Float64bits(g.Data[k]) != math.Float64bits(r.Data[k]) {
				t.Errorf("region %q[%d] = %x, want %x", r.Name, k,
					math.Float64bits(g.Data[k]), math.Float64bits(r.Data[k]))
			}
		}
	}
}

// Every truncation point of a valid encoding must yield a typed error, and
// never panic.
func TestDecodeTruncatedAtEveryLength(t *testing.T) {
	full := Encode(sampleSnapshot())
	for n := 0; n < len(full); n++ {
		_, err := Decode(full[:n])
		if err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", n, len(full))
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("Decode of %d bytes: err = %v, want ErrBadSnapshot", n, err)
		}
	}
}

// Any single-byte corruption must be caught by the checksum (or an earlier
// structural check) as a typed error.
func TestDecodeCorruptedByte(t *testing.T) {
	full := Encode(sampleSnapshot())
	for n := 0; n < len(full); n++ {
		mut := append([]byte(nil), full...)
		mut[n] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", n)
		} else if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("flip at byte %d: err = %v, want typed", n, err)
		}
	}
}

func TestDecodeWrongVersion(t *testing.T) {
	full := Encode(sampleSnapshot())
	full[4], full[5] = 0xFF, 0x7F
	if _, err := Decode(full); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("err = %v, want ErrSnapshotVersion", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, buf := range [][]byte{nil, []byte("x"), []byte("ABCPjunkjunkjunkjunkjunkjunkjunk")} {
		if _, err := Decode(buf); !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("Decode(%q): err = %v, want a typed snapshot error", buf, err)
		}
	}
}

// FuzzCheckpointDecode feeds Decode what a gateway accepts from the network
// on PUT /v1/jobs/{id}/checkpoint. It must refuse with one of its two typed
// errors or return a snapshot whose encoding decodes to the same snapshot
// (to the same bytes, unless the input set the reserved field, which Decode
// does not read); and a buffer it accepts must be refused once any byte of
// its checksum trailer or of a length field (region count, name length,
// float count) is flipped.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(Encode(sampleSnapshot()), byte(0x40))
	f.Add(Encode(Snapshot{}), byte(1))
	f.Fuzz(func(t *testing.T, buf []byte, flip byte) {
		s, err := Decode(buf)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		again := Encode(s)
		if buf[6] == 0 && buf[7] == 0 && !bytes.Equal(again, buf) {
			t.Fatalf("accepted %d bytes that are not the encoding of what they decode to", len(buf))
		}
		if s2, err := Decode(again); err != nil || !bytes.Equal(Encode(s2), again) {
			t.Fatalf("re-encoded snapshot decodes to a different one (err %v)", err)
		}
		if flip == 0 {
			return
		}
		guarded := []int{20, 21, 22, 23} // region count
		off := 24
		for _, r := range s.Regions {
			for i := 0; i < 4; i++ { // name length
				guarded = append(guarded, off+i)
			}
			off += 4 + len(r.Name)
			for i := 0; i < 8; i++ { // float count
				guarded = append(guarded, off+i)
			}
			off += 8 + 8*len(r.Data)
		}
		for i := 0; i < 8; i++ { // trailer
			guarded = append(guarded, off+i)
		}
		if off+8 != len(buf) {
			t.Fatalf("accepted %d bytes, regions and trailer account for %d", len(buf), off+8)
		}
		mut := append([]byte(nil), buf...)
		for _, at := range guarded {
			mut[at] ^= flip
			if _, err := Decode(mut); err == nil {
				t.Fatalf("byte %d of %d flipped by %#x and still accepted", at, len(buf), flip)
			}
			mut[at] ^= flip
		}
	})
}

func TestSnapshotBeforeCheckpoint(t *testing.T) {
	c, _ := newStandalone()
	c.Register("x", []float64{1}, trace.Region{})
	if _, err := c.Snapshot(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

// Snapshot → Encode → Decode → Install into a fresh Checkpointer must
// restore the live data and saved step, and the restart budget consumed on
// the first node must carry: a migrated job cannot buy itself a fresh
// MaxRestarts by changing hosts.
func TestRestartBudgetSurvivesMigration(t *testing.T) {
	a, _ := newStandalone()
	a.MaxRestarts = 3
	ax := []float64{1, 2, 3}
	a.Register("x", ax, trace.Region{})
	a.Checkpoint(7)
	for i := 0; i < 2; i++ {
		if _, err := a.Restore(9); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wire := Encode(snap)
	dec, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}

	b, _ := newStandalone()
	b.MaxRestarts = 3
	bx := []float64{0, 0, 0}
	b.Register("x", bx, trace.Region{})
	if err := b.Install(dec); err != nil {
		t.Fatal(err)
	}
	if bx[0] != 1 || bx[2] != 3 {
		t.Errorf("live data not installed: %v", bx)
	}
	if !b.HasCheckpoint() {
		t.Error("HasCheckpoint false after Install")
	}

	// One restart remains of the carried budget of 3.
	step, err := b.Restore(11)
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 {
		t.Errorf("resume step = %d, want 7", step)
	}
	if _, err := b.Restore(12); !errors.Is(err, ErrRestartBudget) {
		t.Fatalf("fourth restart: err = %v, want ErrRestartBudget", err)
	}
	if got := b.Stats().Restarts; got != 3 {
		t.Errorf("cumulative restarts = %d, want 3", got)
	}
}

func TestInstallMismatch(t *testing.T) {
	snap := Snapshot{Step: 1, Regions: []SnapRegion{{Name: "x", Data: []float64{1, 2}}}}
	cases := []struct {
		name string
		prep func(c *Checkpointer)
	}{
		{"missing region", func(c *Checkpointer) {
			c.Register("x", []float64{0, 0}, trace.Region{})
			c.Register("y", []float64{0}, trace.Region{})
		}},
		{"wrong name", func(c *Checkpointer) {
			c.Register("z", []float64{0, 0}, trace.Region{})
		}},
		{"wrong length", func(c *Checkpointer) {
			c.Register("x", []float64{0, 0, 0}, trace.Region{})
		}},
	}
	for _, tc := range cases {
		c, _ := newStandalone()
		tc.prep(c)
		if err := c.Install(snap); !errors.Is(err, ErrSnapshotMismatch) {
			t.Errorf("%s: err = %v, want ErrSnapshotMismatch", tc.name, err)
		}
	}
}
