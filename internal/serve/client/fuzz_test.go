package client

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzDecodeEnvelope: error bodies are untrusted bytes from whatever
// answers at the server's address, so no body may panic decodeEnvelope or
// leave a negative retry hint. A typed envelope built from fuzzed fields
// must round-trip: code and message verbatim (when valid UTF-8, which is
// all JSON can carry), and a positive retry_after_ms as that many
// milliseconds, overriding the Retry-After header's hint; a non-positive
// one, or one too large for a Duration, leaves the header's hint alone.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte(`{"error":{"code":"overloaded","message":"serve: admission queue full","retry_after_ms":1000}}`),
		"overloaded", "serve: admission queue full", int64(1000))
	f.Add([]byte(`{"error":"serve: unknown job"}`), "unknown_job", "serve: unknown job", int64(0))
	f.Add([]byte(`{"error":{"code":"job_evicted","message":"serve: unknown job: evicted from the retained-job window: \"job-000001\""}}`),
		"job_evicted", "serve: unknown job: evicted from the retained-job window", int64(0))
	f.Add([]byte(`{"error":{"code":"draining","message":"serve: server is dr`), "draining", "", int64(-1))
	f.Add([]byte(`{"error":{"code":"overloaded","retry_after_ms":9223372036854775807}}`), "overloaded", "", int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, body []byte, code, message string, retryMS int64) {
		apiErr := &APIError{StatusCode: http.StatusInternalServerError}
		decodeEnvelope(bytes.NewReader(body), apiErr)
		if apiErr.RetryAfter < 0 {
			t.Fatalf("body %q decoded to a negative retry hint %v", body, apiErr.RetryAfter)
		}
		_ = apiErr.Error()
		_ = apiErr.Unwrap()

		env, err := json.Marshal(map[string]any{"error": map[string]any{
			"code": code, "message": message, "retry_after_ms": retryMS,
		}})
		if err != nil {
			t.Fatal(err)
		}
		const headerHint = 7 * time.Second
		got := &APIError{StatusCode: http.StatusTooManyRequests, RetryAfter: headerHint}
		decodeEnvelope(bytes.NewReader(env), got)
		if utf8.ValidString(code) && got.Code != code {
			t.Errorf("code %q decoded as %q", code, got.Code)
		}
		if utf8.ValidString(message) && got.Message != message {
			t.Errorf("message %q decoded as %q", message, got.Message)
		}
		want := headerHint
		if retryMS > 0 && retryMS <= math.MaxInt64/int64(time.Millisecond) {
			want = time.Duration(retryMS) * time.Millisecond
		}
		if got.RetryAfter != want {
			t.Errorf("retry_after_ms %d decoded as %v, want %v", retryMS, got.RetryAfter, want)
		}
	})
}
