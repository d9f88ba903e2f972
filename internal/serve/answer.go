package serve

import (
	"bytes"
	"encoding/base64"
	"unsafe"

	"coopabft/internal/mat"
)

// Answer is a verify-vote primary's packed product (see packChunks) on its
// way to the gateway. encoding/json writes it as the base64 string it writes
// for any []byte; UnmarshalJSON reads it back into a buffer from the answer
// list, where encoding/json would allocate a fresh slice per reply.
//
// The buffer has one owner at a time, and the owner hands it back with
// Release once nothing reads it: on a worker, HandleRequest after the reply
// is written; at the gateway, doVerifyVote once it has probed the bytes. An
// Answer nobody releases (an in-process caller's, or one whose request
// panicked) is the GC's, as any slice is.
type Answer []byte

// answerBudget bounds the idle answer buffers of the process, each weighed
// at its capacity. An answer is held from packing until its reply is
// written, and at the gateway from decoding until its probe: at most one per
// executing verify-vote primary (MaxConcurrency, 2 by default) and one per
// verify-vote election in flight. A product at the default MaxN is 288 KiB
// (192² values), so 4 MiB keeps fourteen of the largest and over a hundred
// of the n=64 ones cmd/abftbench sends.
const answerBudget = 4 << 20

var answers = mat.NewFreeList[[]byte](answerBudget)

// getAnswer returns an n-byte buffer from the answer list, or a new one when
// the list is empty or its top buffer is too small (that one is left to the
// GC: the list keeps the sizes the traffic uses now).
func getAnswer(n int) Answer {
	if b, ok := answers.Get(); ok && cap(b) >= n {
		return b[:n]
	}
	return make(Answer, n)
}

// Release hands a's buffer back to the answer list and empties a. Nothing
// may read the bytes afterwards. Buffers above maxPooledBody go to the GC.
func (a *Answer) Release() {
	b := []byte(*a)
	*a = nil
	if b == nil || cap(b) > maxPooledBody {
		return
	}
	answers.Put(b[:0], cap(b)+int(unsafe.Sizeof(b)))
}

// UnmarshalJSON decodes data exactly as encoding/json decodes a []byte —
// base64 text, null, or an array of byte values — into a buffer from the
// answer list. Only a string without escapes, the form encoding/json
// writes, takes the short path; the rest is encoding/json's own decoding,
// through a recycled body (Body.Decode).
func (a *Answer) UnmarshalJSON(data []byte) error {
	if len(data) < 2 || data[0] != '"' || bytes.IndexByte(data, '\\') >= 0 {
		b := GetBody()
		defer PutBody(b)
		b.Write(data)
		return b.Decode((*[]byte)(a))
	}
	text := data[1 : len(data)-1]
	b := getAnswer(base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Decode(b, text)
	if err != nil {
		b.Release()
		return err
	}
	*a = b[:n]
	return nil
}
