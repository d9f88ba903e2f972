package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestWarmAnswerBuffersRecycled: a worker packs a verify-vote product into a
// buffer of the answer list, and once its handler returns the buffer is back
// on the list, the reply having carried the product's bytes. The list starts
// holding one buffer of exactly the product's size, so the one on it
// afterwards must be that buffer: the pack took it and HandleRequest put it
// back. (The gateway's half, and buffers cycling under concurrent
// elections, is cluster's TestWarmAnswerBuffersRecycled.)
func TestWarmAnswerBuffersRecycled(t *testing.T) {
	s := newTestService(t, Config{QueueTimeout: time.Minute})
	const n = 32
	for {
		if _, ok := answers.Get(); !ok {
			break
		}
	}
	mine := make([]byte, 0, 8*n*n)
	answers.Put(mine, cap(mine))

	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/gemm",
		strings.NewReader(`{"n":32,"seed":5,"integrity":"verify-vote"}`)))
	back, ok := answers.Get()
	if !ok || cap(back) != cap(mine) || &back[:1][0] != &mine[:1][0] {
		t.Fatalf("after the handler returned the answer list holds %d bytes of capacity (ok %v), want the %d-byte buffer the product was packed into",
			cap(back), ok, cap(mine))
	}

	var resp Response
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	direct, err := s.Do(context.Background(), Request{Kernel: "gemm", N: n, Seed: 5, Integrity: "verify-vote"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answer) != 8*n*n || !bytes.Equal(resp.Answer, direct.Answer) || resp.AnswerSig != direct.AnswerSig {
		t.Fatalf("the reply's %d answer bytes (signature %s) are not the product's %d (signature %s)",
			len(resp.Answer), resp.AnswerSig, len(direct.Answer), direct.AnswerSig)
	}
}

// FuzzAnswerJSON holds Answer's decoder to encoding/json's own for a []byte:
// for any input both accept or both refuse, and what they accept decodes to
// the same bytes, nil where encoding/json gives nil. The seeds cover the
// short path (an escape-free string) and encoding/json's (escapes, \/ and
// \r\n among them, which base64 skips), bad padding and alphabet, null,
// numbers, arrays of byte values and values that are no byte.
func FuzzAnswerJSON(f *testing.F) {
	for _, s := range []string{
		`"AAECAw=="`, `"+/+/"`, `"\/\/\/\/"`, `"AAEC\r\nAw=="`, `"AAECAw=="`,
		`"AAECAw="`, `"AAECAw"`, `"A@=="`, `""`, `null`, `12`, `[1,2,255]`, `[256]`, `{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want []byte
		wantErr := json.Unmarshal(data, &want)
		var got Answer
		gotErr := json.Unmarshal(data, &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: encoding/json says %v, Answer says %v", data, wantErr, gotErr)
		}
		if wantErr == nil && (!bytes.Equal(got, want) || (got == nil) != (want == nil)) {
			t.Fatalf("%q: encoding/json decodes %q (nil %v), Answer %q (nil %v)", data, want, want == nil, got, got == nil)
		}
		got.Release()
	})
}
