// Package httpx is the HTTP client the sweep coordinator
// (internal/sweep) and cmd/tpisweep use to talk to tpiserved workers.
// One Client holds a keep-alive connection pool, applies a per-request
// deadline to every attempt, and retries transport errors and 5xx
// responses a bounded number of times with jittered exponential
// backoff.
//
// Retrying POSTs is safe against this API: every mutation is
// content-addressed (a resubmitted run request lands on the same result
// key, where the server's cache and singleflight dedup collapse it), so
// all verbs are treated as idempotent.
package httpx

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"
)

// Options sizes a Client. Zero values select the defaults noted on each
// field.
type Options struct {
	// Timeout bounds each request attempt, connection time included
	// (default 2m; <0 disables).
	Timeout time.Duration
	// Retries is how many times a failed attempt is retried — transport
	// errors and 5xx/429 responses only, never other 4xx (default 3;
	// <0 disables retrying).
	Retries int
	// BackoffBase seeds the exponential backoff between attempts
	// (default 100ms). The k-th retry sleeps a uniformly jittered
	// duration in [b/2, b] for b = min(BackoffBase<<k, BackoffMax), so a
	// fleet of clients hammering one recovering worker spreads out.
	BackoffBase time.Duration
	// BackoffMax caps the backoff (default 2s).
	BackoffMax time.Duration
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Minute
	}
	if o.Timeout < 0 {
		o.Timeout = 0
	}
	if o.Retries == 0 {
		o.Retries = 3
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// Client is a retrying JSON HTTP client over a shared keep-alive pool.
// It is safe for concurrent use.
type Client struct {
	hc   *http.Client
	opts Options
}

// New builds a Client. The underlying transport clones the defaults
// (HTTP/2, proxy env) but widens the per-host idle pool to 16 so a
// sweep's bounded in-flight window reuses connections instead of
// re-dialing.
func New(opts Options) *Client {
	opts = opts.withDefaults()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 16
	return &Client{hc: &http.Client{Transport: tr}, opts: opts}
}

// StatusError is returned by GetJSON when the response is not 2xx; the
// body is preserved so callers can surface the server's error document.
type StatusError struct {
	Status int
	Body   []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("httpx: HTTP %d: %s", e.Status, truncate(e.Body))
}

// retryable reports whether a response status is worth retrying: the
// server-side failures (5xx) and backpressure (429), never other 4xx —
// a bad request stays bad on retry.
func retryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// Do issues one request with the retry/backoff policy applied. body may
// be nil; it is replayed verbatim on each attempt. The response body is
// fully read and returned, so the connection always goes back to the
// pool. Do returns the final status and body even for non-2xx responses
// (err is nil then); err is non-nil only when every attempt failed at
// the transport level or the context ended.
func (c *Client) Do(ctx context.Context, method, url, contentType string, body []byte) (status int, respBody []byte, err error) {
	for attempt := 0; ; attempt++ {
		status, respBody, err = c.Once(ctx, method, url, contentType, body)
		if err == nil && !retryable(status) {
			return status, respBody, nil
		}
		if attempt >= c.opts.Retries {
			if err != nil {
				return 0, nil, fmt.Errorf("httpx: %s %s: %w (after %d attempts)", method, url, err, attempt+1)
			}
			return status, respBody, nil
		}
		if serr := sleep(ctx, c.backoff(attempt)); serr != nil {
			return 0, nil, fmt.Errorf("httpx: %s %s: %w", method, url, serr)
		}
	}
}

// Once runs a single attempt under the per-request deadline, with no
// retry. Like Do, it returns non-2xx responses with a nil error.
func (c *Client) Once(ctx context.Context, method, url, contentType string, body []byte) (int, []byte, error) {
	if c.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("HTTP %d: reading body: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, b, nil
}

// PostJSON marshals in and POSTs it. Non-2xx responses are returned with
// their body and a nil error, mirroring Do.
func (c *Client) PostJSON(ctx context.Context, url string, in any) (status int, body []byte, err error) {
	b, err := json.Marshal(in)
	if err != nil {
		return 0, nil, fmt.Errorf("httpx: marshal request: %w", err)
	}
	return c.Do(ctx, http.MethodPost, url, "application/json", b)
}

// Get fetches url under the retry policy, returning status and body.
func (c *Client) Get(ctx context.Context, url string) (status int, body []byte, err error) {
	return c.Do(ctx, http.MethodGet, url, "", nil)
}

// GetJSON fetches url and decodes a 2xx body into out. Non-2xx becomes a
// *StatusError carrying the body.
func (c *Client) GetJSON(ctx context.Context, url string, out any) error {
	status, body, err := c.Get(ctx, url)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return &StatusError{Status: status, Body: body}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("httpx: GET %s: decode body: %w", url, err)
	}
	return nil
}

// backoff computes the jittered delay before retry number attempt.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.opts.BackoffBase
	for i := 0; i < attempt && d < c.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > c.opts.BackoffMax {
		d = c.opts.BackoffMax
	}
	half := d / 2
	return half + rand.N(half+1)
}

// sleep waits for d or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func truncate(b []byte) string {
	const max = 256
	s := string(bytes.TrimSpace(b))
	if len(s) > max {
		return s[:max] + "...(truncated)"
	}
	return s
}
