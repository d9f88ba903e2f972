package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
)

// Every JSON body a worker or the gateway reads — a client's request, a
// task, a node's response — is read whole into a recycled buffer and
// unmarshalled from there. json.Decoder grows a private buffer by doubling
// on every call and io.ReadAll does the same, so a 43 KiB verify-vote answer
// cost each of its three decoders ~130 KiB of garbage; a warm pooled buffer
// costs nothing. Nothing decoded aliases the buffer: encoding/json copies
// strings and decodes base64 into slices of its own.

// maxPooledBody is the largest buffer kept for reuse. Interactive bodies are
// under 64 KiB and a verify task for the default MaxN is under 400 KiB;
// long-job snapshots reach 64 MiB, and a pool that kept those would pin them.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBody returns an empty buffer from the body pool, for a caller that
// encodes a body it will send more than once. Pair it with PutBody.
func GetBody() *bytes.Buffer { return bodyPool.Get().(*bytes.Buffer) }

// PutBody recycles a buffer from GetBody or ReadBody. Nothing may still read
// its bytes: an http.Request built over them must have been answered and the
// response body closed, or have failed.
func PutBody(b *bytes.Buffer) {
	if b.Cap() > maxPooledBody {
		return
	}
	b.Reset()
	bodyPool.Put(b)
}

// ReadBody reads at most limit bytes of r — what lies beyond is ignored, as
// io.LimitReader ignores it — into a pooled buffer, which the caller hands
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
