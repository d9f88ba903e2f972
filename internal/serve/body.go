package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"unsafe"

	"coopabft/internal/mat"
)

// Every JSON body a worker or the gateway reads — a client's request, a
// task, a node's response — is read whole into a recycled buffer and
// unmarshalled from there. json.Decoder grows a private buffer by doubling
// on every call and io.ReadAll does the same, so a 43 KiB verify-vote answer
// cost each of its three decoders ~130 KiB of garbage; a warm recycled
// buffer costs nothing, however long ago it was last used. Nothing decoded
// aliases the buffer: encoding/json copies strings and decodes base64 into
// slices of its own, and Answer decodes its base64 into a buffer of the
// answer list (answer.go).

// maxPooledBody is the largest buffer kept for reuse, body or answer.
// Interactive requests are under 64 KiB (maxBodyBytes) and a verify task,
// two projections of n values, is at most verifyMaxBodyBytes(MaxN): 10 624 B
// at the default MaxN of 192. The largest body kept is a verify-vote
// primary's reply, the product's 8n² bytes as base64 (384 KiB at n=192),
// whose decoded product is the largest answer buffer (288 KiB). Long-job
// snapshots reach 64 MiB, and a list that kept those would pin them.
const maxPooledBody = 1 << 20

// bodyBudget bounds the idle body buffers of the process, each weighed at
// its capacity. A buffer is held only while its body is read and decoded,
// so the working set is the bodies a process decodes at once: at a worker,
// up to the ten requests its defaults admit (MaxConcurrency 2 executing,
// QueueDepth 8 queued), under 64 KiB each when interactive, and the verify
// tasks its block slots run, about 10 KiB each; at a gateway in the same
// process, one reply per node of an R=3 vote, a verify-vote primary's reply
// at the default MaxN being under 400 KiB. 4 MiB keeps all of those; the
// measured peak under cmd/abftbench's four workloads was 0.33 MB. The
// decoded answers have their own list and budget (answerBudget).
const bodyBudget = 4 << 20

var bodies = mat.NewFreeList[*bytes.Buffer](bodyBudget)

// GetBody returns an empty buffer from the body list, for a caller that
// encodes a body it will send more than once. Pair it with PutBody.
func GetBody() *bytes.Buffer {
	if b, ok := bodies.Get(); ok {
		return b
	}
	return new(bytes.Buffer)
}

// PutBody recycles a buffer from GetBody or ReadBody. Nothing may still read
// its bytes: an http.Request built over them must have been answered and the
// response body closed, or have failed.
func PutBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	bodies.Put(b, b.Cap()+int(unsafe.Sizeof(*b)))
}

// ReadBody reads at most limit bytes of r — what lies beyond is ignored, as
// io.LimitReader ignores it — into a recycled buffer, which the caller hands
// to PutBody once it has decoded what it wants. size is the Content-Length
// (−1 when unknown) and only pre-sizes the buffer, and only up to
// maxPooledBody: the header is the sender's claim, and memory is not
// committed to a claim.
func ReadBody(r io.Reader, size, limit int64) (*bytes.Buffer, error) {
	b := GetBody()
	if size > 0 {
		// ReadFrom wants MinRead spare bytes before the read that finds EOF.
		b.Grow(int(min(min(size, limit)+bytes.MinRead, maxPooledBody)))
	}
	if _, err := b.ReadFrom(io.LimitReader(r, limit)); err != nil {
		PutBody(b)
		return nil, err
	}
	return b, nil
}

// DecodeBody is the one body decoder behind every route: ReadBody, then
// json.Unmarshal into v. The body must be one JSON value with nothing but
// whitespace after it; anything else is an error (json.Decoder, which these
// routes used before, silently ignored a tail). A body of nothing but
// whitespace is io.EOF, for the routes where an empty body means defaults.
func DecodeBody(r io.Reader, size, limit int64, v any) error {
	b, err := ReadBody(r, size, limit)
	if err != nil {
		return err
	}
	defer PutBody(b)
	if len(bytes.Trim(b.Bytes(), " \t\r\n")) == 0 { // JSON's whitespace
		return io.EOF
	}
	return json.Unmarshal(b.Bytes(), v)
}
