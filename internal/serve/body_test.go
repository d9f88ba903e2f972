package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// decodeOld is how every route read its body before DecodeBody: a
// json.Decoder over a limited reader, one Decode.
func decodeOld(data []byte, limit int64, v any) (tail []byte, err error) {
	dec := json.NewDecoder(io.LimitReader(bytes.NewReader(data), limit))
	err = dec.Decode(v)
	seen := data[:min(int64(len(data)), limit)]
	return seen[min(dec.InputOffset(), int64(len(seen))):], err
}

// FuzzDecodeBody holds DecodeBody to the decoder it replaced, for arbitrary
// bytes, any limit and any Content-Length claim, on both shapes the worker
// routes decode. Where both accept they decode the same value; DecodeBody
// accepts nothing the old decoder rejected; and all it newly rejects are
// bodies with something other than JSON whitespace after their value. An
// all-whitespace body is io.EOF on both sides (the kernel routes' defaults).
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte(""), int64(maxBodyBytes), int64(0))
	f.Add([]byte("{}"), int64(maxBodyBytes), int64(2))
	f.Add([]byte(`{"n":48,"seed":7,"dtype":"f32","tenant":"gold"} `), int64(maxBodyBytes), int64(-1))
	f.Fuzz(func(t *testing.T, data []byte, limit, size int64) {
		if limit < 1 || limit > maxBodyBytes {
			limit = maxBodyBytes
		}
		check := func(oldV, newV any) {
			tail, oldErr := decodeOld(data, limit, oldV)
			newErr := DecodeBody(bytes.NewReader(data), size, limit, newV)
			if errors.Is(oldErr, io.EOF) != errors.Is(newErr, io.EOF) {
				t.Fatalf("empty-body verdicts differ: old %v, new %v", oldErr, newErr)
			}
			switch {
			case oldErr == nil && newErr == nil:
				if !reflect.DeepEqual(oldV, newV) {
					t.Fatalf("both accept, values differ:\n old %+v\n new %+v", oldV, newV)
				}
			case newErr == nil:
				t.Fatalf("accepts a body the old decoder rejected with %v", oldErr)
			case oldErr == nil:
				if len(bytes.Trim(tail, " \t\r\n")) == 0 {
					t.Fatalf("rejects a body the old decoder accepted, and its tail %q is whitespace: %v", tail, newErr)
				}
			}
		}
		check(new(Request), new(Request))
		check(new(VerifyTask), new(VerifyTask))
	})
}

// TestReadBodyPoolsUpToOneMiB: a buffer that grew past maxPooledBody is not
// kept (long-job snapshots reach 64 MiB), a smaller one comes back warm, and
// a Content-Length that lies commits no memory beyond the pooling bound.
func TestReadBodyPoolsUpToOneMiB(t *testing.T) {
	small, err := ReadBody(bytes.NewReader(make([]byte, 40<<10)), 40<<10, 64<<20)
	if err != nil || small.Len() != 40<<10 {
		t.Fatalf("%d bytes read, %v", small.Len(), err)
	}
	PutBody(small)
	big, err := ReadBody(bytes.NewReader(make([]byte, 2<<20)), 2<<20, 64<<20)
	if err != nil || big.Len() != 2<<20 {
		t.Fatalf("%d bytes read, %v", big.Len(), err)
	}
	PutBody(big)
	if b := GetBody(); b == big || b.Cap() > maxPooledBody {
		t.Errorf("a %d-byte buffer came back from the body list", b.Cap())
	}
	lied, err := ReadBody(bytes.NewReader([]byte("{}")), 64<<20, 64<<20)
	if err != nil || lied.Len() != 2 || lied.Cap() > maxPooledBody {
		t.Errorf("a 2-byte body announced as 64 MiB: %d bytes read into a %d-byte buffer, %v", lied.Len(), lied.Cap(), err)
	}
	cut, err := ReadBody(bytes.NewReader([]byte(`{"n":1}xyz`)), -1, 7)
	if err != nil || cut.String() != `{"n":1}` {
		t.Errorf("limit 7: read %q, %v", cut, err)
	}
}

// FuzzBodyDecodeSequence holds Body.Decode to json.Unmarshal over a sequence
// of bodies read through one recycled Body, whose decoder is kept after
// every decode that read its input exactly and dropped after anything else.
// The input is split into bodies at NUL bytes; each body is decoded as a
// Request, a Response and a VerifyTask, in an order that turns with the
// body, so a decoder meets every shape after every other, and right after a
// failed decode. Each decode must give json.Unmarshal's value and error
// string, and leave the body's bytes as they were.
func FuzzBodyDecodeSequence(f *testing.F) {
	f.Add([]byte(`{"n":48,"seed":7,"dtype":"f32"}` + "\x00" + `{"n":48}x` + "\x00" + `{"kernel":"gemm","n":2,"ce":[1,2],"cr":[3,4]}`))
	f.Add([]byte(`{"outcome":"corrected","answer":"AAAAAAAAAAA="}` + "\x00" + `{"answer":"AAAA"}` + "\x00" + ` 12 ` + "\x00\x00" + `{"n":"x"}`))
	f.Add([]byte(`{"ce":[1,2,3]}` + "\x00" + `{"ce":[]}` + "\x00" + `{"ce":null,"cr":[5]}` + "\x00" + `[` + "\x00" + `{}` + "\n\t "))
	f.Add([]byte(`{"n":1}{"n":2}` + "\x00" + `"str"` + "\x00" + `{"answer":[1,2,300]}` + "\x00" + `{"n":1e400}`))
	// A tail the size of the next body: a decoder kept after the first
	// would read the tail as the second body.
	f.Add([]byte(`{"n":1}{"n":2}` + "\x00" + `{"n":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := new(Body)
		targets := [...]func() any{
			func() any { return new(Request) },
			func() any { return new(Response) },
			func() any { return new(VerifyTask) },
		}
		for i, body := range bytes.SplitN(data, []byte{0}, 16) {
			b.Reset()
			b.Write(body)
			for k := range targets {
				newV := targets[(i+k)%len(targets)]
				got, want := newV(), newV()
				err := b.Decode(got)
				wantErr := json.Unmarshal(body, want)
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("body %d %q as %T: Decode error %v, json.Unmarshal %v", i, body, got, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("body %d %q as %T: Decode gives %+v, json.Unmarshal %+v", i, body, got, got, want)
				}
				if !bytes.Equal(b.Bytes(), body) {
					t.Fatalf("body %d %q as %T: Decode left %q in the body", i, body, got, b.Bytes())
				}
			}
		}
	})
}

// TestBodyDecodeOversized: a body over maxPooledBody (a long task's snapshot)
// decodes as json.Unmarshal decodes it without a decoder being made for it,
// whose copy would double it, and the body decodes small bodies through its
// decoder again afterwards.
func TestBodyDecodeOversized(t *testing.T) {
	big := append([]byte(`{"kernel":"gemm","ce":[0`), bytes.Repeat([]byte(",1"), maxPooledBody/2)...)
	big = append(big, "]}\n"...)
	b := new(Body)
	b.Write(big)
	var got, want VerifyTask
	if err, wantErr := b.Decode(&got), json.Unmarshal(big, &want); err != nil || wantErr != nil {
		t.Fatalf("Decode: %v, json.Unmarshal: %v", err, wantErr)
	}
	if !reflect.DeepEqual(got, want) || len(got.Ce) != maxPooledBody/2+1 {
		t.Fatalf("decoded %d values, json.Unmarshal %d", len(got.Ce), len(want.Ce))
	}
	if b.dec != nil || b.src.bufCap != 0 {
		t.Errorf("a %d-byte body made a decoder with a %d-byte buffer", len(big), b.src.bufCap)
	}
	b.Reset()
	b.WriteString(`{"n":48}`)
	var req Request
	if err := b.Decode(&req); err != nil || req.N != 48 || b.dec == nil {
		t.Errorf("small body after it: %+v, %v, decoder kept %v", req, err, b.dec != nil)
	}
}
