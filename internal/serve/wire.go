package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"coopabft/internal/cluster/vote"
)

// The wire error contract. Every error reply of either server, a worker's
// (NewHandler) or the gateway's (cluster.NewHandler), is one JSON envelope
// {"error": message, "kind": kind}, and for every typed error the status,
// the kind and the headers come from the one table below: WriteResult writes
// it and ReadError, which every client uses, reads it back, so an error
// tallies the same whether its caller met it in process or over the wire.
// DESIGN.md §4.2 lists the table with what each kind tells a client.

// Typed gateway errors. They live here, beside the rest of the wire
// contract, so that clients decode them without importing the scheduler.
var (
	// ErrNoNodes means no configured node advertises the requested ECC
	// strategy — a capability miss, not a transient failure.
	ErrNoNodes = errors.New("cluster: no node advertises the requested strategy")
	// ErrUnavailable means every placement attempt failed at the
	// connection/503 level and the retry budget is spent.
	ErrUnavailable = errors.New("cluster: no replica available")
	// ErrNoQuorum means an integrity-tier request could not assemble its
	// answer-signature majority at admission: fewer eligible distinct nodes
	// than replicas requested. (Vote-time quorum loss is delivered as a
	// typed aborted classification instead.) Wraps the vote package's
	// sentinel so errors.Is works against either.
	ErrNoQuorum = fmt.Errorf("cluster: %w", vote.ErrNoQuorum)
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// Kind is the stable machine-readable discriminator: one of the
	// errorKinds, or a route's own (unknown_job, unknown_node).
	Kind string `json:"kind"`
}

// errorKind is one row of the contract: the typed error is, the status and
// kind it is written as, and whether its reply carries Retry-After (the
// throttle's own delay for a ThrottleError, one second otherwise) or
// Connection: close.
type errorKind struct {
	is         error
	status     int
	kind       string
	retryAfter bool
	close      bool
}

// errorKinds is the contract. An error is written as the first row it
// errors.Is, so throttled and shed come before overloaded, which both
// satisfy, and internal, which stands for any other error, comes last. The
// rows of one status end with its generic kind, the one ReadError falls back
// to for a kind it does not know.
var errorKinds = [...]errorKind{
	{ErrBadRequest, http.StatusBadRequest, "bad_request", false, false},
	// Throttled: the tenant exceeded its own quota (back off for
	// Retry-After). Shed: speculative work was sacrificed to overload
	// (resubmit when load drops, or as protected). Overloaded: the untyped
	// form.
	{&ThrottleError{}, http.StatusTooManyRequests, "throttled", true, false},
	{&ShedError{}, http.StatusTooManyRequests, "shed", true, false},
	{ErrOverloaded, http.StatusTooManyRequests, "overloaded", true, false},
	{ErrQueueTimeout, http.StatusServiceUnavailable, "queue_timeout", false, false},
	{ErrClosed, http.StatusServiceUnavailable, "closed", false, true},
	{ErrNoNodes, http.StatusServiceUnavailable, "no_nodes", false, false},
	// Quorum insufficiency is transient capacity, not shape: the client is
	// told when to come back, as after an overload.
	{ErrNoQuorum, http.StatusServiceUnavailable, "no_quorum", true, false},
	{ErrUnavailable, http.StatusServiceUnavailable, "unavailable", false, false},
	{nil, http.StatusInternalServerError, "internal", false, false},
}

// WriteResult answers one request or task on either server: status with
// res, or err as the contract's first row it matches.
func WriteResult(w http.ResponseWriter, status int, res any, err error) {
	if err == nil {
		WriteJSON(w, status, res)
		return
	}
	i := 0
	for errorKinds[i].is != nil && !errors.Is(err, errorKinds[i].is) {
		i++
	}
	k := errorKinds[i]
	if k.retryAfter {
		d := time.Second
		var throttle *ThrottleError
		if errors.As(err, &throttle) {
			d = throttle.RetryAfter
		}
		w.Header().Set("Retry-After", RetryAfterSeconds(d))
	}
	if k.close {
		w.Header().Set("Connection", "close")
	}
	WriteErr(w, k.status, k.kind, err.Error())
}

// ReadError is WriteResult read backwards, the one envelope reader of every
// client: the error a reply other than the one its caller wanted stands for.
// It reads as the server's message and errors.Is its kind's typed error; a
// throttled reply's is a *ThrottleError carrying the Retry-After delay. A
// kind the contract does not list under status reads as the status's
// generic kind, and a status it does not list at all as an untyped error,
// like internal; either way the message says which status it was.
func ReadError(status int, h http.Header, payload []byte) error {
	var env errorBody
	if json.Unmarshal(payload, &env) != nil || env.Error == "" {
		env.Error = strings.TrimSpace(string(payload))
	}
	// k ends at status's row for the kind or, failing that, at its last row.
	k, known := errorKinds[len(errorKinds)-1], false
	for _, row := range errorKinds {
		if row.status == status && !known {
			k, known = row, row.kind == env.Kind
		}
	}
	if !known {
		env.Error = fmt.Sprintf("HTTP %d: %s", status, env.Error)
	}
	e := &wireError{msg: env.Error, is: k.is}
	if _, throttled := k.is.(*ThrottleError); throttled {
		secs, _ := strconv.Atoi(h.Get("Retry-After"))
		e.is = &ThrottleError{RetryAfter: time.Duration(secs) * time.Second}
	}
	return e
}

// wireError is an error read off the wire: the server's message, wrapping
// the typed error its kind names (nil for internal).
type wireError struct {
	msg string
	is  error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.is }

// ReplyLimit bounds one reply body read from either server, and the
// checkpoint PUT the gateway reads from a worker. The largest — a
// MaxJobN-sized checksum block result (parity + sum, base64), a long-job
// snapshot, a verify-vote primary's answer (n²·8 bytes, base64) — run to
// tens of MB.
const ReplyLimit = 64 << 20

// RetryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func RetryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// WriteJSON answers with status and v as JSON, encoded into a recycled body
// buffer first so that the reply carries its Content-Length and goes out in
// one write, whatever its size: net/http would chunk a reply written in
// pieces past its 2 KiB buffer, and a client then reads it without knowing
// its length. A v that does not encode is answered with status and an empty
// body, as json.Encoder, which writes nothing on error, answered it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b := GetBody()
	defer PutBody(b)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if err := b.Encode(v); err != nil {
		w.WriteHeader(status)
		return
	}
	h.Set("Content-Length", strconv.Itoa(b.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(b.Bytes())
}

// WriteErr answers with the error envelope; WriteResult is its caller for
// every typed error, and routes call it for refusals of their own.
func WriteErr(w http.ResponseWriter, status int, kind, msg string) {
	WriteJSON(w, status, errorBody{Error: msg, Kind: kind})
}
