package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"unsafe"

	"coopabft/internal/mat"
)

// Every JSON body a worker or the gateway reads — a client's request, a
// task, a node's response — is read whole into a recycled buffer and decoded
// from there by the json.Decoder that buffer keeps (Body.Decode). io.ReadAll
// grows a fresh buffer by doubling, so a 43 KiB verify-vote answer cost each
// of its three readers ~130 KiB of garbage, and json.Unmarshal builds a fresh
// decoder state for every body; a warm recycled buffer and its warm decoder
// cost neither, however long ago they were last used. Nothing decoded aliases
// either buffer: encoding/json copies strings and decodes base64 into slices
// of its own, and Answer decodes its base64 into a buffer of the answer list
// (answer.go).

// maxPooledBody is the largest buffer kept for reuse, body or answer.
// Interactive requests are under 64 KiB (maxBodyBytes) and a verify task,
// two projections of n values, is at most verifyMaxBodyBytes(MaxN): 10 624 B
// at the default MaxN of 192. The largest body kept is a verify-vote
// primary's reply, the product's 8n² bytes as base64 (384 KiB at n=192),
// whose decoded product is the largest answer buffer (288 KiB). Long-job
// snapshots reach 64 MiB, and a list that kept those would pin them.
const maxPooledBody = 1 << 20

// bodyBudget bounds the idle body buffers of the process, each weighed at
// its capacity plus its decoder's buffer, which holds a copy of the largest
// body it decoded. A buffer is held only while its body is read and decoded,
// so the working set is the bodies a process decodes at once: at a worker,
// up to the ten requests its defaults admit (MaxConcurrency 2 executing,
// QueueDepth 8 queued), under 64 KiB each when interactive, and the verify
// tasks its block slots run, about 10 KiB each; at a gateway in the same
// process, one reply per node of an R=3 vote, a verify-vote primary's reply
// at the default MaxN being under 400 KiB (twice that with its decoder's
// copy). 4 MiB keeps all of those; the measured peak under cmd/abftbench's
// four workloads was 0.33 MB before bodies kept decoders. The
// decoded answers have their own list and budget (answerBudget).
const bodyBudget = 4 << 20

var bodies = mat.NewFreeList[*Body](bodyBudget)

// Body is a recycled body buffer. The limit reader ReadBody reads through,
// the encoder Encode writes with and the decoder Decode reads with travel
// with it, so a body read, decoded or written through one allocates none of
// them.
type Body struct {
	bytes.Buffer
	limit io.LimitedReader
	enc   *json.Encoder // over Buffer; made on the first Encode
	dec   *json.Decoder // over src; kept only while every decode reads its input exactly
	src   decodeSource
}

// decodeSource is what a Body's decoder reads: one body's value at a time.
type decodeSource struct {
	data []byte
	off  int
	// bufCap is the capacity of the decoder's buffer. Every decode the
	// decoder is kept for starts on an empty buffer, so the bytes it has read
	// so far plus the room it asks to fill are all of it.
	bufCap int
}

// Read copies the body's next bytes into the decoder's buffer, io.EOF once
// they are all read.
func (s *decodeSource) Read(p []byte) (int, error) {
	s.bufCap = max(s.bufCap, s.off+len(p))
	if s.off == len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}

// GetBody returns an empty buffer from the body list, for a caller that
// encodes a body into it (WriteJSON, a forwarded request, a vote's shared
// task) or reads one itself (the gateway's node hop). Pair it with PutBody.
func GetBody() *Body {
	if b, ok := bodies.Get(); ok {
		return b
	}
	return new(Body)
}

// PutBody recycles a buffer from GetBody or ReadBody. Nothing may still read
// its bytes: an http.Request built over them must have been answered and the
// response body closed, or have failed.
func PutBody(b *Body) {
	if b.Cap() > maxPooledBody {
		return
	}
	if b.src.bufCap > maxPooledBody {
		b.dropDecoder()
	}
	b.Reset()
	bodies.Put(b, b.Cap()+b.src.bufCap+int(unsafe.Sizeof(*b)))
}

// Encode appends v to b as JSON followed by a newline, as json.Encoder
// writes it. Nothing is appended when v does not encode.
func (b *Body) Encode(v any) error {
	if b.enc == nil {
		b.enc = json.NewEncoder(&b.Buffer)
	}
	return b.enc.Encode(v)
}

// ReadBody reads at most limit bytes of r — what lies beyond is ignored, as
// io.LimitReader ignores it — into a recycled buffer, which the caller hands
// to PutBody once it has decoded what it wants. size is the Content-Length
// (−1 when unknown) and only pre-sizes the buffer, and only up to
// maxPooledBody: the header is the sender's claim, and memory is not
// committed to a claim.
func ReadBody(r io.Reader, size, limit int64) (*Body, error) {
	b := GetBody()
	if size > 0 {
		// ReadFrom wants MinRead spare bytes before the read that finds EOF.
		b.Grow(int(min(min(size, limit)+bytes.MinRead, maxPooledBody)))
	}
	b.limit = io.LimitedReader{R: r, N: limit}
	_, err := b.ReadFrom(&b.limit)
	b.limit.R = nil // an idle body pins no reader
	if err != nil {
		PutBody(b)
		return nil, err
	}
	return b, nil
}

// jsonSpace is JSON's whitespace.
const jsonSpace = " \t\r\n"

// DecodeBody is the one body decoder behind every route: ReadBody, then
// Body.Decode into v. The body must be one JSON value with nothing but
// whitespace after it; anything else is an error (json.Decoder on the body's
// reader, which these routes used before, silently ignored a tail). A body of
// nothing but whitespace is io.EOF, for the routes where an empty body means
// defaults.
func DecodeBody(r io.Reader, size, limit int64, v any) error {
	b, err := ReadBody(r, size, limit)
	if err != nil {
		return err
	}
	defer PutBody(b)
	if len(bytes.Trim(b.Bytes(), jsonSpace)) == 0 {
		return io.EOF
	}
	return b.Decode(v)
}

// Decode decodes b's bytes into v with exactly the value and error
// json.Unmarshal(b.Bytes(), v) gives, through the decoder b keeps. The
// decoder is fed the body without its trailing whitespace, and its result
// counts only if it returned nil having read exactly that: then Unmarshal
// accepts the same bytes and decodes them with the same rules into the same
// value. Anything else — a syntax or type error, a tail after the value, an
// empty body — zeroes v, returns what json.Unmarshal returns for the body,
// and drops the decoder, whose buffer and error state are no longer known to
// be empty. A body larger than maxPooledBody (a long task's snapshot) goes to
// json.Unmarshal directly: it is not kept, and the decoder would copy it.
// Decoding leaves b's bytes as they are.
func (b *Body) Decode(v any) error {
	data := b.Bytes()
	value := bytes.TrimRight(data, jsonSpace)
	if len(value) > maxPooledBody {
		return json.Unmarshal(data, v)
	}
	if b.dec == nil {
		b.dec = json.NewDecoder(&b.src) // src is zero: new, or reset by dropDecoder
	}
	b.src.data, b.src.off = value, 0
	start := b.dec.InputOffset()
	err := b.dec.Decode(v)
	read := b.dec.InputOffset() - start
	b.src.data = nil // an idle body pins no bytes but its own
	if err == nil && read == int64(len(value)) {
		return nil
	}
	b.dropDecoder()
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv.Elem().SetZero()
	}
	return json.Unmarshal(data, v)
}

// dropDecoder lets the decoder and its buffer go; the next Decode makes one.
func (b *Body) dropDecoder() {
	b.dec = nil
	b.src = decodeSource{}
}
