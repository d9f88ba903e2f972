package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// floatsOf reads b as little-endian float64 bit patterns; a trailing partial
// value is dropped.
func floatsOf(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

// bytesOf is floatsOf's inverse.
func bytesOf(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// FuzzParseVerifyTask: for any kernel name, size, seeds and probe values,
// parseVerifyTask never panics, refuses only with ErrBadRequest, and accepts
// exactly the gemm tasks of an admitted size (0 meaning the default 64) that
// carry one value per row in each projection. An accepted task crosses the
// wire within its route's body limit with exact bits, or, when a value is
// NaN or ±Inf, not at all: json refuses it, which is why the gateway refuses
// such a product itself. DoVerify answers every accepted task with a
// verdict, never an error, and a NaN never passes.
func FuzzParseVerifyTask(f *testing.F) {
	l := testLimits()
	s := New(Config{MaxConcurrency: 1, QueueTimeout: time.Minute, MaxN: l.MaxN, MaxFaults: l.MaxFaults})
	f.Cleanup(s.Close)
	// The longest JSON number a float64 encodes to, in every slot of a
	// maximal task: the body limit's worst case.
	worst := make([]float64, l.MaxN)
	for i := range worst {
		worst[i] = -1.2345678901234567e-308
	}
	f.Add("gemm", l.MaxN, uint64(math.MaxUint64), uint64(math.MaxUint64), bytesOf(worst), bytesOf(worst))
	f.Fuzz(func(t *testing.T, kernel string, n int, seed, probeSeed uint64, ce, cr []byte) {
		task := VerifyTask{Kernel: kernel, N: n, Seed: seed, ProbeSeed: probeSeed, Ce: floatsOf(ce), Cr: floatsOf(cr)}
		p, err := parseVerifyTask(l, task)
		size := n
		if size == 0 {
			size = 64
		}
		want := strings.EqualFold(kernel, "gemm") && size >= 8 && size <= l.MaxN &&
			len(task.Ce) == size && len(task.Cr) == size
		if (err == nil) != want {
			t.Fatalf("kernel %q n=%d with %d and %d values: err = %v, want accepted = %v", kernel, n, len(task.Ce), len(task.Cr), err, want)
		}
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal is not ErrBadRequest: %v", err)
			}
			return
		}
		if p.N != size || p.Seed != seed {
			t.Fatalf("parsed n=%d seed=%d, want %d and %d", p.N, p.Seed, size, seed)
		}
		finite := true
		for _, v := range append(append([]float64(nil), task.Ce...), task.Cr...) {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		body, jerr := json.Marshal(task)
		if (jerr == nil) != finite {
			t.Fatalf("json.Marshal of a task with finite values = %v: err = %v", finite, jerr)
		}
		if jerr == nil {
			if int64(len(body)) > verifyMaxBodyBytes(l.MaxN) {
				t.Fatalf("an admitted task is %d bytes, over its route's %d-byte limit", len(body), verifyMaxBodyBytes(l.MaxN))
			}
			var back VerifyTask
			if err := DecodeBody(bytes.NewReader(body), int64(len(body)), verifyMaxBodyBytes(l.MaxN), &back); err != nil {
				t.Fatal(err)
			}
			if back.Kernel != task.Kernel || back.N != task.N || back.Seed != seed || back.ProbeSeed != probeSeed ||
				!bytes.Equal(bytesOf(back.Ce), bytesOf(task.Ce)) || !bytes.Equal(bytesOf(back.Cr), bytesOf(task.Cr)) {
				t.Fatalf("the task does not cross the wire with exact bits:\n sent %+v\n got  %+v", task, back)
			}
		}
		res, err := s.DoVerify(context.Background(), task)
		if err != nil {
			t.Fatalf("admitted task: %v", err)
		}
		if res.OK && !finite {
			t.Fatalf("a task with a non-finite projection passed: %+v", res)
		}
	})
}
