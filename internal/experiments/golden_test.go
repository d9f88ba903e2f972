package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// workersEcho matches the lines that echo the campaign's worker count, the
// one field of the output that depends on how it was run, not on what ran.
var workersEcho = regexp.MustCompile(`(?m)^\s*"Workers": \d+,\n`)

// TestSmallOutputGolden is the reproduction as a gate: every registered
// experiment at test scale, encoded as `paperfigs -small -format json`
// encodes them, must equal testdata/small.golden.json with the Workers echo
// left out. A change that moves a paper number, a soak outcome or a
// simulator figure fails here and has to regenerate the file, and say so:
//
//	go run ./cmd/paperfigs -small -format json | grep -v '"Workers":' > internal/experiments/testdata/small.golden.json
func TestSmallOutputGolden(t *testing.T) {
	out := map[string]any{}
	for _, name := range Names() {
		exp, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(context.Background(), WithSmall())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = res.Data
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/small.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if g := workersEcho.ReplaceAll(got.Bytes(), nil); !bytes.Equal(g, want) {
		gl, wl := bytes.Split(g, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output differs from testdata/small.golden.json first at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/small.golden.json %d", len(gl), len(wl))
	}
}
