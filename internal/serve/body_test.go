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
