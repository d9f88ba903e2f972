package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"coopabft/internal/serve"
)

// defaultRetryAfterCap bounds how long Do will honor a server-sent
// Retry-After before resending a shed request.
const defaultRetryAfterCap = 2 * time.Second

// HTTPClient drives a live abftd (or abftgate) over the wire, reading every
// error reply back into the service's typed error through serve.ReadError,
// so in-process and over-the-wire sweeps tally identically.
type HTTPClient struct {
	// Base is the server root, e.g. http://127.0.0.1:8080.
	Base string
	// Client is the underlying transport (default http.DefaultClient).
	Client *http.Client
	// Retry429 is how many times Do resends a request the server shed
	// with 429, honoring the server's Retry-After header (capped at
	// RetryAfterCap) before each resend. Zero keeps the open-loop default:
	// a 429 is data, returned immediately as ErrOverloaded.
	Retry429 int
	// RetryAfterCap caps the honored Retry-After delay (default 2s), so a
	// hostile or confused server cannot park the generator.
	RetryAfterCap time.Duration
}

func (h *HTTPClient) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// Do implements Doer over HTTP. With Retry429 > 0 it resends shed (429)
// requests after honoring the capped Retry-After; every other reply is
// final.
func (h *HTTPClient) Do(ctx context.Context, req serve.Request) (serve.Response, error) {
	// Resolve the kernel through the wire-name table before any URL is
	// built: an unknown kernel string must fail as a typed bad request
	// here, never be spliced into the request path.
	k, err := serve.ParseKernel(req.Kernel)
	if err != nil {
		return serve.Response{}, err
	}
	wire, err := k.Wire()
	if err != nil {
		return serve.Response{}, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return serve.Response{}, err
	}
	for attempt := 0; ; attempt++ {
		var resp serve.Response
		retryAfter, err := h.call(ctx, http.MethodPost, "/v1/"+wire, body, http.StatusOK, &resp)
		if retryAfter >= 0 && attempt < h.Retry429 {
			if err := sleepCtx(ctx, retryAfter); err != nil {
				return serve.Response{}, fmt.Errorf("%w: %w", serve.ErrOverloaded, err)
			}
			continue
		}
		return resp, err
	}
}

// call is the client's one exchange: send body (none when nil) to path and
// decode a reply of status want into out; any other reply comes back as the
// error serve.ReadError reads from it. retryAfter >= 0 marks a 429 and is
// its (capped) Retry-After delay, which the caller may honor before
// resending; -1 means the reply is final.
func (h *HTTPClient) call(ctx context.Context, method, path string, body []byte, want int, out any) (retryAfter time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, h.Base+path, rd)
	if err != nil {
		return -1, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	hresp, err := h.client().Do(hreq)
	if err != nil {
		return -1, err
	}
	defer hresp.Body.Close()
	buf, err := serve.ReadBody(hresp.Body, hresp.ContentLength, serve.ReplyLimit)
	if err != nil {
		return -1, err
	}
	defer serve.PutBody(buf) // out and the error hold copies
	switch hresp.StatusCode {
	case want:
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			return -1, fmt.Errorf("loadgen: bad %s reply body: %w", path, err)
		}
		return -1, nil
	case http.StatusTooManyRequests:
		retryAfter = parseRetryAfter(hresp.Header.Get("Retry-After"), h.retryAfterCap())
	default:
		retryAfter = -1
	}
	return retryAfter, serve.ReadError(hresp.StatusCode, hresp.Header, buf.Bytes())
}

func (h *HTTPClient) retryAfterCap() time.Duration {
	if h.RetryAfterCap > 0 {
		return h.RetryAfterCap
	}
	return defaultRetryAfterCap
}

// parseRetryAfter reads a Retry-After header — delta-seconds or an
// HTTP-date — clamped to [0, cap]. A missing or malformed header yields a
// small default backoff rather than an immediate hammer.
func parseRetryAfter(v string, limit time.Duration) time.Duration {
	d := 100 * time.Millisecond
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		d = time.Duration(secs) * time.Second
	} else if when, err := http.ParseTime(v); err == nil {
		d = time.Until(when)
	}
	if d < 0 {
		d = 0
	}
	if d > limit {
		d = limit
	}
	return d
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// WaitReady polls /healthz until the daemon answers or the budget runs
// out — the readiness gate the CI smoke uses instead of sleeping.
func (h *HTTPClient) WaitReady(ctx context.Context, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var lastErr error
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.Base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := h.client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("loadgen: server not ready after %s: %w", budget, lastErr)
}
