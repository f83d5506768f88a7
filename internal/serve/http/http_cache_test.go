package servehttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cos/internal/serve"
	"cos/internal/serve/cache"
	"cos/internal/serve/client"
	servehttp "cos/internal/serve/http"
)

// postRaw submits a raw body straight to POST /jobs, bypassing the client,
// for wire-level assertions.
func postRaw(t *testing.T, c *client.Client, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeEnvelope(t *testing.T, r io.Reader) servehttp.ErrorBody {
	t.Helper()
	var env servehttp.ErrorBody
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return env
}

// TestErrorEnvelopeCodes pins the typed envelope across the error surface:
// every non-2xx response is {"error":{"code","message",...}} with a stable
// machine code, and the client maps codes onto errors.Is sentinels.
func TestErrorEnvelopeCodes(t *testing.T) {
	srv, c := startAPI(t, serve.Config{Shards: 1, QueueDepth: 1})

	// 400 bad_request: malformed JSON.
	resp := postRaw(t, c, []byte(`{"kind":`), nil)
	if env := decodeEnvelope(t, resp.Body); resp.StatusCode != 400 || env.Error.Code != servehttp.CodeBadRequest {
		t.Fatalf("malformed JSON: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// 400 bad_request: unknown field (DecodeSpec strictness at the edge).
	resp = postRaw(t, c, []byte(`{"kind":"link","packtes":5}`), nil)
	if env := decodeEnvelope(t, resp.Body); resp.StatusCode != 400 || env.Error.Code != servehttp.CodeBadRequest {
		t.Fatalf("unknown field: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// 400 invalid_spec: well-formed but semantically invalid.
	resp = postRaw(t, c, []byte(`{"kind":"bogus"}`), nil)
	if env := decodeEnvelope(t, resp.Body); resp.StatusCode != 400 || env.Error.Code != servehttp.CodeInvalidSpec {
		t.Fatalf("invalid spec: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// 400 invalid_spec: the retired whole-figure kind, with a message that
	// names its replacement.
	resp = postRaw(t, c, []byte(`{"kind":"figure","figure":"fig9","scale":0.2}`), nil)
	if env := decodeEnvelope(t, resp.Body); resp.StatusCode != 400 || env.Error.Code != servehttp.CodeInvalidSpec ||
		!strings.Contains(env.Error.Message, "figure_task") {
		t.Fatalf("retired figure kind: status %d code %q message %q", resp.StatusCode, env.Error.Code, env.Error.Message)
	}

	// 413 payload_too_large.
	huge := []byte(`{"kind":"link","figure":"` + strings.Repeat("x", servehttp.MaxSpecBytes) + `"}`)
	resp = postRaw(t, c, huge, nil)
	if env := decodeEnvelope(t, resp.Body); resp.StatusCode != 413 || env.Error.Code != servehttp.CodePayloadTooLarge {
		t.Fatalf("oversized body: status %d code %q", resp.StatusCode, env.Error.Code)
	}

	// 404 unknown_job, via the client's typed error.
	_, err := c.Status(context.Background(), "job-424242")
	if !errors.Is(err, serve.ErrUnknownJob) {
		t.Fatalf("unknown job error = %v, want errors.Is ErrUnknownJob", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Code != servehttp.CodeUnknownJob {
		t.Fatalf("unknown job APIError = %+v", apiErr)
	}

	// 404 job_evicted: an ID the server assigned whose job has left the
	// retained window (cache hits on a second server push it out).
	evSrv, evc := startAPI(t, serve.Config{Shards: 1, Cache: cache.New(0)})
	hit := serve.Spec{Kind: serve.KindLink, Seed: 9, Packets: 2, PayloadBytes: 64}
	evicted, err := evc.Submit(context.Background(), hit, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evc.Wait(context.Background(), evicted.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if _, err := evSrv.Job(evicted.ID); errors.Is(err, serve.ErrJobEvicted) {
			break
		}
		if i == 1<<16 {
			t.Fatalf("job %s still retained after %d cache hits", evicted.ID, i)
		}
		if _, err := evSrv.Submit(hit); err != nil {
			t.Fatal(err)
		}
	}
	_, err = evc.Status(context.Background(), evicted.ID)
	if !errors.Is(err, serve.ErrJobEvicted) || !errors.Is(err, serve.ErrUnknownJob) {
		t.Fatalf("evicted job error = %v, want errors.Is ErrJobEvicted and ErrUnknownJob", err)
	}
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || apiErr.Code != servehttp.CodeJobEvicted {
		t.Fatalf("evicted job APIError = %+v", apiErr)
	}

	// 429 overloaded with retry hints in header and envelope.
	slow := serve.Spec{Kind: serve.KindLink, Packets: 1e6, PayloadBytes: 64}
	first, err := c.Submit(context.Background(), slow, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, c, first.ID)
	if _, err := c.Submit(context.Background(), slow, client.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	_, err = c.Submit(context.Background(), slow, client.SubmitOptions{})
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("overload error = %v, want errors.Is ErrOverloaded", err)
	}
	if !errors.As(err, &apiErr) || apiErr.Code != servehttp.CodeOverloaded || apiErr.RetryAfter <= 0 {
		t.Fatalf("overload APIError = %+v", apiErr)
	}

	// 503 draining.
	srv.Drain(0)
	_, err = c.Submit(context.Background(), serve.Spec{Kind: serve.KindLink}, client.SubmitOptions{})
	if !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("draining error = %v, want errors.Is ErrDraining", err)
	}
	if !errors.As(err, &apiErr) || apiErr.Code != servehttp.CodeDraining {
		t.Fatalf("draining APIError = %+v", apiErr)
	}
}

// TestSubmitCacheHitOverHTTP pins the wire contract of a cache hit: 200
// (not 202), X-Cos-Cache: hit, a terminal cached status, and a
// byte-identical result stream addressable by job ID or digest.
func TestSubmitCacheHitOverHTTP(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1, Cache: cache.New(0)})
	ctx := context.Background()
	spec := serve.Spec{Kind: serve.KindLink, Seed: 5, Packets: 2, PayloadBytes: 64}
	payload, _ := json.Marshal(spec)

	cold := postRaw(t, c, payload, nil)
	if cold.StatusCode != http.StatusAccepted || cold.Header.Get(servehttp.HeaderCache) != "miss" {
		t.Fatalf("cold submit: status %d, %s=%q; want 202 miss",
			cold.StatusCode, servehttp.HeaderCache, cold.Header.Get(servehttp.HeaderCache))
	}
	var coldSt serve.Status
	if err := json.NewDecoder(cold.Body).Decode(&coldSt); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, coldSt.ID); err != nil {
		t.Fatal(err)
	}
	coldBody, err := c.ResultBytes(ctx, coldSt.ID)
	if err != nil {
		t.Fatal(err)
	}

	warm := postRaw(t, c, payload, nil)
	if warm.StatusCode != http.StatusOK || warm.Header.Get(servehttp.HeaderCache) != "hit" {
		t.Fatalf("warm submit: status %d, %s=%q; want 200 hit",
			warm.StatusCode, servehttp.HeaderCache, warm.Header.Get(servehttp.HeaderCache))
	}
	var warmSt serve.Status
	if err := json.NewDecoder(warm.Body).Decode(&warmSt); err != nil {
		t.Fatal(err)
	}
	if !warmSt.Cached || !warmSt.Terminal || warmSt.State != "done" {
		t.Fatalf("warm status = %+v", warmSt)
	}
	if warmSt.Digest != coldSt.Digest || warmSt.Digest == "" {
		t.Fatalf("digest drift: %q vs %q", warmSt.Digest, coldSt.Digest)
	}

	warmBody, err := c.ResultBytes(ctx, warmSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Fatal("cache hit served different bytes than the original run")
	}

	// Digest addressing: status and result resolve without a job ID.
	byDigest, err := c.Status(ctx, warmSt.Digest)
	if err != nil || byDigest.Digest != warmSt.Digest {
		t.Fatalf("status by digest = %+v, %v", byDigest, err)
	}
	digestBody, err := c.ResultBytes(ctx, warmSt.Digest)
	if err != nil || !bytes.Equal(digestBody, coldBody) {
		t.Fatalf("result by digest: %d bytes, %v", len(digestBody), err)
	}
}

// TestIdempotencyKeyOverHTTP: retries carrying the same key return the
// same job instead of admitting another.
func TestIdempotencyKeyOverHTTP(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()
	spec := serve.Spec{Kind: serve.KindLink, Seed: 6, Packets: 2, PayloadBytes: 64}

	first, err := c.Submit(ctx, spec, client.SubmitOptions{IdempotencyKey: "req-42"})
	if err != nil {
		t.Fatal(err)
	}
	retry, err := c.Submit(ctx, spec, client.SubmitOptions{IdempotencyKey: "req-42"})
	if err != nil {
		t.Fatal(err)
	}
	if retry.ID != first.ID {
		t.Fatalf("idempotent retry admitted a new job: %s vs %s", retry.ID, first.ID)
	}
	fresh, err := c.Submit(ctx, spec, client.SubmitOptions{IdempotencyKey: "req-43"})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == first.ID {
		t.Fatal("distinct keys collapsed onto one job")
	}
	if _, err := c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, fresh.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitDeadlineOption: an expired deadline fails fast client-side.
func TestSubmitDeadlineOption(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})
	_, err := c.Submit(context.Background(), serve.Spec{Kind: serve.KindLink},
		client.SubmitOptions{Deadline: time.Now().Add(-time.Second)})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
}
