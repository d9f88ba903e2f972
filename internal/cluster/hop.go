package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"coopabft/internal/serve"
)

// hop is the gateway's carrier of every POST to one node (DESIGN §5, "The
// forwarding hop"). A node exchange is a bounded POST of a JSON body to a
// known peer, so the hop does only that: it writes the request from a fixed
// template in one buffered write and reads the reply itself on the caller's
// goroutine, over a pool of keep-alive connections. http.Transport pays for
// what such an exchange never uses: a read loop and a write loop per
// connection that every exchange hands off to and back from, two request
// copies, a header map per reply and its cancel plumbing. DESIGN.md §5 has
// what that measured per forward.
type hop struct {
	addr string // host:port dialled
	// head and tail frame the route in the request line and the headers up
	// to the Content-Length value: "POST <base path>" and " HTTP/1.1\r\n
	// Host: …\r\nContent-Type: application/json\r\nContent-Length: ".
	head, tail string
	// headerTimeout bounds how long a windowed exchange waits for the
	// reply's headers once its request is written (forwardTimeout).
	headerTimeout time.Duration
	max           int // idle connections kept: the node's Window
	dialer        net.Dialer

	mu     sync.Mutex
	idle   []*hopConn // LIFO, at most max
	closed bool       // Gateway.Close ran: connections are no longer kept
}

// hopConn is one keep-alive connection with its read buffer, its request
// scratch and the deadline poke a cancelled caller fires.
type hopConn struct {
	c      net.Conn
	br     *bufio.Reader
	wbuf   []byte
	lr     io.LimitedReader
	cancel func() // expires every deadline of c: cancellation's interrupt
}

// maxInlineBody is the largest request body copied behind its headers into
// one write; a larger one (a long job's resume snapshot) follows them in a
// second write rather than be copied into scratch kept per connection.
const maxInlineBody = 32 << 10

// maxReplyHeaders bounds the header lines of one reply. The servers of this
// repository send at most four.
const maxReplyHeaders = 64

// errMalformedReply is every reply the hop's parser refuses: it stands for
// a peer that does not speak the subset of HTTP/1.1 the repository's servers
// write, and, like any exchange error, closes the connection.
var errMalformedReply = errors.New("malformed reply")

// newHop builds the carrier to the node whose parsed base URL is u, keeping
// up to window idle connections. Only plain http is spoken: nothing in the
// repository serves TLS to the gateway.
func newHop(u *url.URL, window int) (*hop, error) {
	if u.Scheme != "http" || u.Host == "" || u.Opaque != "" {
		return nil, fmt.Errorf("BaseURL %q is not an http://host[:port] URL", u.String())
	}
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &hop{
		addr:          addr,
		head:          "POST " + u.EscapedPath(),
		tail:          " HTTP/1.1\r\nHost: " + u.Host + "\r\nContent-Type: application/json\r\nContent-Length: ",
		headerTimeout: forwardTimeout,
		max:           window,
		dialer:        net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second},
	}, nil
}

// reply is one node reply as the hop reads it. body is a buffer from
// serve.GetBody, which the caller hands back to serve.PutBody.
type reply struct {
	status     int
	retryAfter string
	body       *serve.Body
}

// post sends body to route and reads the reply. A windowed exchange — every
// node POST but a long job's — waits at most headerTimeout for the reply's
// headers and, being a pure function of its request, is sent once more on a
// fresh connection when a reused one turns out closed before answering (the
// worker's idle timeout closed it while it sat in the pool). Cancelling ctx
// ends the exchange at once; the connection is closed, so the worker's
// handler sees its request context end. Any error closes the connection,
// and so does a reply carrying Connection: close; every other goes back to
// the pool.
func (h *hop) post(ctx context.Context, route string, body []byte, windowed bool) (reply, error) {
	hc, reused, err := h.get(ctx)
	if err != nil {
		return reply{}, err
	}
	for {
		rep, keep, answered, err := h.exchange(ctx, hc, route, body, windowed)
		if err == nil {
			if keep {
				h.put(hc)
			} else {
				hc.c.Close()
			}
			return rep, nil
		}
		hc.c.Close()
		if !windowed || !reused || answered || ctx.Err() != nil || !closedByPeer(err) {
			return reply{}, err
		}
		if hc, err = h.dial(ctx); err != nil {
			return reply{}, err
		}
		reused = false
	}
}

// exchange is one request and its reply on hc. answered reports whether any
// byte of a reply arrived; keep whether hc may serve another exchange.
func (h *hop) exchange(ctx context.Context, hc *hopConn, route string, body []byte, windowed bool) (rep reply, keep, answered bool, err error) {
	if ctx.Done() != nil {
		// Run only if ctx ends mid-exchange, on the goroutine that ends it;
		// a stop that comes too late means hc's deadlines may be expired,
		// so the connection is not kept.
		stop := context.AfterFunc(ctx, hc.cancel)
		defer func() { keep = stop() && keep }()
	}
	if err = h.write(hc, route, body); err != nil {
		return rep, false, false, fmt.Errorf("writing request: %w", err)
	}
	if windowed {
		if err = readDeadline(ctx, hc, time.Now().Add(h.headerTimeout)); err != nil {
			return rep, false, false, err
		}
	}
	if _, err = hc.br.Peek(1); err != nil {
		return rep, false, false, fmt.Errorf("awaiting reply: %w", err)
	}
	hd, err := readHead(hc.br)
	if err != nil {
		return rep, false, true, err
	}
	if windowed {
		if err = readDeadline(ctx, hc, time.Time{}); err != nil {
			return rep, false, true, err
		}
	}
	b, err := readBody(hc.br, hd, &hc.lr)
	if err != nil {
		return rep, false, true, err
	}
	return reply{status: hd.status, retryAfter: hd.retryAfter, body: b}, !hd.close, true, nil
}

// readDeadline sets hc's read deadline, unless ctx has ended: its cancel may
// already have expired the deadline this would overwrite.
func readDeadline(ctx context.Context, hc *hopConn, t time.Time) error {
	if err := hc.c.SetReadDeadline(t); err != nil {
		return err
	}
	return ctx.Err()
}

// write sends the request line, headers and body, in one write unless the
// body is over maxInlineBody.
func (h *hop) write(hc *hopConn, route string, body []byte) error {
	w := append(hc.wbuf[:0], h.head...)
	w = append(w, route...)
	w = append(w, h.tail...)
	w = strconv.AppendInt(w, int64(len(body)), 10)
	w = append(w, "\r\n\r\n"...)
	inline := len(body) <= maxInlineBody
	if inline {
		w = append(w, body...)
	}
	hc.wbuf = w
	if _, err := hc.c.Write(w); err != nil || inline {
		return err
	}
	_, err := hc.c.Write(body)
	return err
}

// get takes the most recently used idle connection, or dials one; reused
// reports which.
func (h *hop) get(ctx context.Context) (hc *hopConn, reused bool, err error) {
	h.mu.Lock()
	if n := len(h.idle); n > 0 {
		hc = h.idle[n-1]
		h.idle[n-1] = nil
		h.idle = h.idle[:n-1]
		h.mu.Unlock()
		return hc, true, nil
	}
	h.mu.Unlock()
	hc, err = h.dial(ctx)
	return hc, false, err
}

func (h *hop) dial(ctx context.Context) (*hopConn, error) {
	c, err := h.dialer.DialContext(ctx, "tcp", h.addr)
	if err != nil {
		// A dial bounded by ctx's deadline can fail a moment before ctx's
		// timer ends ctx: wait for it, so callers read the caller's error.
		if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			<-ctx.Done()
		}
		return nil, err
	}
	return &hopConn{c: c, br: bufio.NewReader(c), cancel: func() { c.SetDeadline(aLongTimeAgo) }}, nil
}

// aLongTimeAgo is the deadline that fails a blocked read or write at once.
var aLongTimeAgo = time.Unix(1, 0)

// put keeps hc for the next exchange, or closes it when max are idle already
// or the gateway has closed.
func (h *hop) put(hc *hopConn) {
	h.mu.Lock()
	if !h.closed && len(h.idle) < h.max {
		h.idle = append(h.idle, hc)
		hc = nil
	}
	h.mu.Unlock()
	if hc != nil {
		hc.c.Close()
	}
}

// close closes every idle connection and keeps none from now on.
func (h *hop) close() {
	h.mu.Lock()
	idle := h.idle
	h.idle, h.closed = nil, true
	h.mu.Unlock()
	for _, hc := range idle {
		hc.c.Close()
	}
}

// closedByPeer reports whether err is a connection the peer had closed: end
// of stream, a reset, or a write into a closed socket.
func closedByPeer(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// replyHead is what the hop keeps of a reply's status line and headers.
type replyHead struct {
	status     int
	length     int64 // Content-Length; -1 for a chunked body
	close      bool  // Connection: close
	retryAfter string
}

// readHead reads a reply's status line and headers. It accepts a strict
// subset of what http.ReadResponse accepts, and reads what it accepts the
// same way (FuzzNodeReply holds it to that): an HTTP/1.1 status line with a
// three-digit status that promises a body; at most maxReplyHeaders header
// lines, each "name: value\r\n" with a token name and no folding; and a body
// framed by one Content-Length of at most serve.ReplyLimit or by one
// Transfer-Encoding: chunked, never both and never neither. It keeps only
// the framing, Connection: close and the first Retry-After; a Trailer
// declaration is refused, since trailers are.
func readHead(br *bufio.Reader) (hd replyHead, err error) {
	line, err := readLine(br)
	if err != nil {
		return hd, err
	}
	if len(line) < 12 || string(line[:9]) != "HTTP/1.1 " || (len(line) > 12 && line[12] != ' ') {
		return hd, fmt.Errorf("%w: status line %q", errMalformedReply, line)
	}
	for _, c := range line[9:12] {
		if c < '0' || c > '9' {
			return hd, fmt.Errorf("%w: status line %q", errMalformedReply, line)
		}
		hd.status = hd.status*10 + int(c-'0')
	}
	if hd.status < 200 || hd.status == 204 || hd.status == 304 {
		return hd, fmt.Errorf("%w: status %d carries no body", errMalformedReply, hd.status)
	}
	hd.length = -2 // no framing seen yet
	chunked, sawRetry := false, false
	for n := 0; ; n++ {
		if line, err = readLine(br); err != nil {
			return hd, err
		}
		if len(line) == 0 {
			break
		}
		if n == maxReplyHeaders {
			return hd, fmt.Errorf("%w: more than %d header lines", errMalformedReply, maxReplyHeaders)
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return hd, fmt.Errorf("%w: header line %q", errMalformedReply, line)
		}
		name, value := line[:colon], line[colon+1:]
		for _, c := range name {
			if !tokenByte(c) {
				return hd, fmt.Errorf("%w: header line %q", errMalformedReply, line)
			}
		}
		value = bytes.Trim(value, " \t")
		for _, c := range value {
			if !(c == '\t' || c >= ' ' && c != 0x7f) {
				return hd, fmt.Errorf("%w: header line %q", errMalformedReply, line)
			}
		}
		switch {
		case foldEqual(name, "Content-Length"):
			if hd.length != -2 || chunked || len(value) == 0 || len(value) > 18 {
				return hd, fmt.Errorf("%w: framing %q", errMalformedReply, line)
			}
			hd.length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return hd, fmt.Errorf("%w: framing %q", errMalformedReply, line)
				}
				hd.length = hd.length*10 + int64(c-'0')
			}
			if hd.length > serve.ReplyLimit {
				return hd, fmt.Errorf("%w: reply of %d bytes is over %d", errMalformedReply, hd.length, serve.ReplyLimit)
			}
		case foldEqual(name, "Transfer-Encoding"):
			if hd.length != -2 || chunked || !foldEqual(value, "chunked") {
				return hd, fmt.Errorf("%w: framing %q", errMalformedReply, line)
			}
			chunked = true
		case foldEqual(name, "Connection"):
			hd.close = hd.close || hasToken(value, "close")
		case foldEqual(name, "Retry-After"):
			if !sawRetry {
				hd.retryAfter, sawRetry = string(value), true
			}
		case foldEqual(name, "Trailer"):
			return hd, fmt.Errorf("%w: trailers declared", errMalformedReply)
		}
	}
	if chunked {
		hd.length = -1
	} else if hd.length == -2 {
		return hd, fmt.Errorf("%w: no Content-Length and not chunked", errMalformedReply)
	}
	return hd, nil
}

// readBody reads the body hd frames into a buffer from serve.GetBody, using
// lr as its limit. A Content-Length body is read to exactly its length; a
// chunked one to its last chunk and the empty trailer section, and no
// further than serve.ReplyLimit.
func readBody(br *bufio.Reader, hd replyHead, lr *io.LimitedReader) (*serve.Body, error) {
	b := serve.GetBody()
	var err error
	if hd.length >= 0 {
		// ReadFrom wants MinRead spare bytes before the read that finds EOF;
		// the length is the peer's claim, and only pre-sizes up to 1 MiB.
		b.Grow(int(min(hd.length, 1<<20)) + bytes.MinRead)
		*lr = io.LimitedReader{R: br, N: hd.length}
		if _, err = b.ReadFrom(lr); err == nil && lr.N > 0 {
			err = io.ErrUnexpectedEOF
		}
	} else {
		*lr = io.LimitedReader{R: httputil.NewChunkedReader(br), N: serve.ReplyLimit + 1}
		if _, err = b.ReadFrom(lr); err == nil {
			if lr.N == 0 {
				err = fmt.Errorf("%w: chunked reply over %d bytes", errMalformedReply, serve.ReplyLimit)
			} else if end, perr := br.Peek(2); perr != nil {
				err = io.ErrUnexpectedEOF
			} else if string(end) != "\r\n" {
				err = fmt.Errorf("%w: trailers after the last chunk", errMalformedReply)
			} else {
				br.Discard(2)
			}
		}
	}
	lr.R = nil
	if err != nil {
		serve.PutBody(b)
		return nil, fmt.Errorf("reading reply body: %w", err)
	}
	return b, nil
}

// readLine returns the next CRLF-terminated line of br without its CRLF, as
// a view of br's buffer valid until the next read. A line longer than the
// buffer, or ended by a bare LF, is malformed.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return nil, fmt.Errorf("%w: line over %d bytes", errMalformedReply, br.Size())
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line %q not ended by CRLF", errMalformedReply, line)
	}
	return line[:len(line)-2], nil
}

// tokenByte reports whether c may appear in a header name (RFC 9110 tchar).
func tokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return c != 0 && strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

// foldEqual reports whether b equals the ASCII string s, ignoring ASCII case.
func foldEqual(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if lowerASCII(b[i]) != lowerASCII(s[i]) {
			return false
		}
	}
	return true
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// hasToken reports whether the comma-separated list v names token, as
// net/http reads a Connection header.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		item := v
		if comma := bytes.IndexByte(v, ','); comma >= 0 {
			item, v = v[:comma], v[comma+1:]
		} else {
			v = nil
		}
		if foldEqual(bytes.Trim(item, " \t"), token) {
			return true
		}
	}
	return false
}
