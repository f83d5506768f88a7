// Package client is a small Go client for the cos-serve HTTP API. The
// daemon's own tests are its first consumer; it wraps submit, status,
// cancellation, and NDJSON result streaming with typed errors that expose
// the server's admission decisions (429 overload with Retry-After, 503
// drain) as errors.Is-compatible sentinels.
//
// The canonical surface is four calls — Submit, Wait, Result, Events —
// plus Status/Jobs/Cancel/Healthy lookups. Submit takes SubmitOptions
// (idempotency key, per-call deadline) and reports cache outcomes: a
// submission served from the server's content-addressed result cache
// returns a Status with Cached set and the full stream already available.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cos/internal/serve"
	servehttp "cos/internal/serve/http"
)

// APIError is a non-2xx response from the server. It unwraps to the serve
// package's sentinel errors, so callers write
//
//	errors.Is(err, serve.ErrOverloaded)
//
// instead of inspecting status codes.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the machine-readable error code from the envelope, one of
	// the servehttp Code* constants ("" when the server predates the
	// envelope or the body was unreadable).
	Code string
	// Message is the server's error string.
	Message string
	// RetryAfter is the server's retry hint (zero when absent), from the
	// envelope's retry_after_ms or the Retry-After header.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("serve client: server returned %d (%s): %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("serve client: server returned %d: %s", e.StatusCode, e.Message)
}

// Unwrap maps the error code onto the serve sentinels for errors.Is.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case servehttp.CodeOverloaded:
		return serve.ErrOverloaded
	case servehttp.CodeDraining:
		return serve.ErrDraining
	case servehttp.CodeUnknownJob:
		return serve.ErrUnknownJob
	case servehttp.CodeTraceUnavailable:
		return serve.ErrTraceUnavailable
	}
	// Legacy servers send a bare string envelope with no code: fall back
	// to the status mapping so errors.Is keeps working.
	switch e.StatusCode {
	case http.StatusTooManyRequests:
		return serve.ErrOverloaded
	case http.StatusServiceUnavailable:
		return serve.ErrDraining
	case http.StatusNotFound:
		return serve.ErrUnknownJob
	}
	return nil
}

// SubmitOptions refines one Submit call. The zero value submits plainly.
type SubmitOptions struct {
	// IdempotencyKey makes retries safe: the server returns the job the
	// first submission with this key admitted instead of admitting again.
	// Sent as the X-Cos-Idempotency-Key header. Empty disables.
	IdempotencyKey string
	// Deadline bounds this submission round-trip (zero means the ctx
	// governs alone).
	Deadline time.Time
	// Trace asks the server to capture a flight-recorder trace for the job
	// (sent as the X-Cos-Trace header); retrieve it with Trace once the
	// job finishes done.
	Trace bool
	// ProbeEvery sets the traced job's PHY-probe cadence (X-Cos-Probe-Every
	// header); 0 captures events only. Requires Trace.
	ProbeEvery int
}

// Client talks to one cos-serve instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8866".
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient).
	HTTP *http.Client
}

// New returns a client for the server at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues a request and decodes error envelopes into *APIError.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	apiErr := &APIError{StatusCode: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if d, ok := ParseRetryAfter(ra, time.Now()); ok {
			apiErr.RetryAfter = d
		}
	}
	// The envelope's retry_after_ms, when present and positive, overrides
	// the header: it is the server's own hint at millisecond resolution,
	// while the header is capped to whole seconds by HTTP.
	decodeEnvelope(resp.Body, apiErr)
	return nil, apiErr
}

// ParseRetryAfter interprets a Retry-After header value relative to now.
// Both RFC 9110 forms are handled: delta-seconds ("1") and HTTP-date
// ("Mon, 02 Jan 2006 15:04:05 GMT" and the obsolete date layouts). Values
// in the past — a negative delta or an elapsed date — clamp to zero, which
// still means "the server sent a hint" (retry immediately), so ok stays
// true; ok is false only for unparseable values and delta-seconds too
// large for a Duration.
func ParseRetryAfter(v string, now time.Time) (wait time.Duration, ok bool) {
	v = strings.TrimSpace(v)
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, true
		}
		if int64(secs) > math.MaxInt64/int64(time.Second) {
			return 0, false // would wrap negative
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// decodeEnvelope fills apiErr from the response body. It accepts both the
// typed envelope {"error":{"code":...,"message":...,"retry_after_ms":...}}
// and the legacy bare-string form {"error":"..."}.
func decodeEnvelope(body io.Reader, apiErr *APIError) {
	var env struct {
		Error json.RawMessage `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(body, 1<<16)).Decode(&env); err != nil || len(env.Error) == 0 {
		return
	}
	var info struct {
		Code         string `json:"code"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(env.Error, &info); err == nil {
		apiErr.Code = info.Code
		apiErr.Message = info.Message
		// A hint no Duration can hold would wrap negative: treat it as absent.
		if info.RetryAfterMS > 0 && info.RetryAfterMS <= math.MaxInt64/int64(time.Millisecond) {
			apiErr.RetryAfter = time.Duration(info.RetryAfterMS) * time.Millisecond
		}
		return
	}
	var legacy string
	if err := json.Unmarshal(env.Error, &legacy); err == nil {
		apiErr.Message = legacy
	}
}

// Submit posts a job spec and returns the admitted job's status. A Status
// with Cached set was served from the server's content-addressed result
// cache: the job is already terminal and Result returns the full stream
// immediately.
func (c *Client) Submit(ctx context.Context, spec serve.Spec, opts SubmitOptions) (serve.Status, error) {
	var st serve.Status
	if !opts.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, opts.Deadline)
		defer cancel()
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/jobs", bytes.NewReader(payload))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opts.IdempotencyKey != "" {
		req.Header.Set("X-Cos-Idempotency-Key", opts.IdempotencyKey)
	}
	if opts.Trace {
		req.Header.Set("X-Cos-Trace", "1")
	}
	if opts.ProbeEvery != 0 {
		req.Header.Set("X-Cos-Probe-Every", strconv.Itoa(opts.ProbeEvery))
	}
	resp, err := c.do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// Status fetches one job's status. id may be a job ID or a spec digest
// (resolving to the newest job for that spec).
func (c *Client) Status(ctx context.Context, id string) (serve.Status, error) {
	var st serve.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := c.do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// Jobs lists every job's status in submission order.
func (c *Client) Jobs(ctx context.Context) ([]serve.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/jobs", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sts []serve.Status
	return sts, json.NewDecoder(resp.Body).Decode(&sts)
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/jobs/"+id+"/cancel", nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Result opens the job's NDJSON result stream. id may be a job ID or a
// spec digest; a digest with no live job serves the stored result body.
// The reader delivers records as the job produces them and ends when the
// job reaches a terminal state; the caller must Close it.
func (c *Client) Result(ctx context.Context, id string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// ResultBytes reads the job's complete NDJSON result body, blocking until
// the job is terminal.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	body, err := c.Result(ctx, id)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return io.ReadAll(body)
}

// Trace reads the job's complete flight-recorder trace (NDJSON, schema
// v2), blocking until the job is terminal. id may be a job ID or a spec
// digest; a digest with no live job serves the persisted trace artifact.
// Untraced or unfinished jobs fail with an *APIError unwrapping to
// serve.ErrTraceUnavailable. The pipe-friendly body feeds cos-trace
// summary directly (cos-trace summary -).
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/jobs/"+id+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Wait polls the job's status every 50ms until it reaches a terminal state
// and returns its final status.
func (c *Client) Wait(ctx context.Context, id string) (serve.Status, error) {
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Terminal {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Healthy reports whether the server is admitting jobs (GET /healthz).
func (c *Client) Healthy(ctx context.Context) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.do(req)
	if err != nil {
		if errors.Is(err, serve.ErrDraining) {
			return false, nil
		}
		return false, err
	}
	resp.Body.Close()
	return true, nil
}

// Health fetches the server's admission snapshot (GET /healthz): state,
// shard count, per-shard queue depths, and jobs in flight. Unlike Healthy
// it returns the body on 503 too — a draining server answers with
// state "draining". Servers predating the Health body yield a snapshot
// with only State filled in, inferred from the status code.
func (c *Client) Health(ctx context.Context) (serve.Health, error) {
	var h serve.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusServiceUnavailable:
	default:
		apiErr := &APIError{StatusCode: resp.StatusCode}
		decodeEnvelope(resp.Body, apiErr)
		return h, apiErr
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&h)
	if h.State == "" {
		if resp.StatusCode == http.StatusOK {
			h.State = "ok"
		} else {
			h.State = "draining"
		}
	}
	return h, nil
}
