package client

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestParseRetryAfter pins both RFC 9110 forms — delta-seconds and
// HTTP-date — plus the defensive edges: negative deltas clamp to zero and
// garbage reports !ok instead of a bogus wait.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 2, 3, 10, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"3", 3 * time.Second, true},
		{" 7 ", 7 * time.Second, true},
		{"0", 0, true},
		{"-5", 0, true},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0, true},
		{"soon", 0, false},
		{"", 0, false},
		{"1.5", 0, false},                 // delta-seconds is an integer; fractions are not the protocol
		{"9223372036854775807", 0, false}, // no Duration holds it
	}
	for _, tc := range cases {
		got, ok := ParseRetryAfter(tc.in, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// retryAfterResponse serves one canned 429 and returns the resulting
// *APIError from a Status call.
func retryAfterResponse(t *testing.T, header, body string) *APIError {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if header != "" {
			w.Header().Set("Retry-After", header)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()
	_, err := New(srv.URL).Status(context.Background(), "job-000001")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Status error = %v, want *APIError", err)
	}
	return apiErr
}

// TestRetryAfterEnvelopePrecedence pins the precedence contract on the
// wire: a positive retry_after_ms in the error envelope overrides the
// Retry-After header; with no envelope hint the header stands, in either
// of its two forms.
func TestRetryAfterEnvelopePrecedence(t *testing.T) {
	both := retryAfterResponse(t, "5",
		`{"error":{"code":"overloaded","message":"busy","retry_after_ms":1200}}`)
	if both.RetryAfter != 1200*time.Millisecond {
		t.Errorf("envelope + header: RetryAfter = %v, want 1.2s (envelope wins)", both.RetryAfter)
	}

	headerOnly := retryAfterResponse(t, "5",
		`{"error":{"code":"overloaded","message":"busy"}}`)
	if headerOnly.RetryAfter != 5*time.Second {
		t.Errorf("header only: RetryAfter = %v, want 5s", headerOnly.RetryAfter)
	}

	date := time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	dated := retryAfterResponse(t, date,
		`{"error":{"code":"overloaded","message":"busy"}}`)
	if dated.RetryAfter <= 0 || dated.RetryAfter > 31*time.Second {
		t.Errorf("HTTP-date header: RetryAfter = %v, want ~30s", dated.RetryAfter)
	}

	neither := retryAfterResponse(t, "", `{"error":{"code":"overloaded","message":"busy"}}`)
	if neither.RetryAfter != 0 {
		t.Errorf("no hint anywhere: RetryAfter = %v, want 0", neither.RetryAfter)
	}
}

// TestBackoffScheduleWithoutJitter: with no Rand the schedule is exact —
// pinned so fleet retry timing stays reproducible.
func TestBackoffScheduleWithoutJitter(t *testing.T) {
	var b Backoff // all defaults: 50ms base, x2, 2s cap
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i+1, 0); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Attempts < 1 behave like the first retry.
	if got := b.Delay(0, 0); got != 50*time.Millisecond {
		t.Errorf("Delay(0) = %v, want 50ms", got)
	}

	custom := Backoff{Base: 10 * time.Millisecond, Factor: 3, Max: 100 * time.Millisecond}
	wantCustom := []time.Duration{
		10 * time.Millisecond, 30 * time.Millisecond, 90 * time.Millisecond,
		100 * time.Millisecond, 100 * time.Millisecond,
	}
	for i, w := range wantCustom {
		if got := custom.Delay(i+1, 0); got != w {
			t.Errorf("custom Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestBackoffJitterDeterministic: two Backoffs over identically-seeded
// sources produce identical delay sequences, and every jittered delay
// stays inside the ±Jitter band.
func TestBackoffJitterDeterministic(t *testing.T) {
	mk := func() Backoff {
		return Backoff{Rand: rand.New(rand.NewSource(42))}
	}
	a, b := mk(), mk()
	plain := Backoff{}
	for i := 1; i <= 16; i++ {
		da, db := a.Delay(i, 0), b.Delay(i, 0)
		if da != db {
			t.Fatalf("Delay(%d) diverged under the same seed: %v vs %v", i, da, db)
		}
		base := plain.Delay(i, 0)
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if da < lo || da > hi {
			t.Errorf("Delay(%d) = %v outside the 20%% jitter band [%v, %v]", i, da, lo, hi)
		}
	}
	// Negative Jitter disables jitter even with a source present.
	exact := Backoff{Jitter: -1, Rand: rand.New(rand.NewSource(1))}
	if got := exact.Delay(1, 0); got != 50*time.Millisecond {
		t.Errorf("Jitter -1: Delay(1) = %v, want exact 50ms", got)
	}
}

// TestBackoffHint: a server hint replaces the schedule (even above Max —
// the server knows its drain), and RetryAfterHint digs it out of a
// wrapped error chain.
func TestBackoffHint(t *testing.T) {
	var b Backoff
	if got := b.Delay(5, 700*time.Millisecond); got != 700*time.Millisecond {
		t.Errorf("Delay with hint = %v, want the hint", got)
	}
	if got := b.Delay(1, 10*time.Second); got != 10*time.Second {
		t.Errorf("hint above Max = %v, want 10s honored", got)
	}

	apiErr := &APIError{StatusCode: 429, RetryAfter: 250 * time.Millisecond}
	wrapped := &wrapErr{inner: apiErr}
	if got := RetryAfterHint(wrapped); got != 250*time.Millisecond {
		t.Errorf("RetryAfterHint(wrapped) = %v, want 250ms", got)
	}
	if got := RetryAfterHint(errors.New("plain")); got != 0 {
		t.Errorf("RetryAfterHint(plain) = %v, want 0", got)
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }
