package client

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"cos/internal/serve"
	servehttp "cos/internal/serve/http"
)

// TestDecodeEnvelopeTyped pins the typed envelope path: code, message, and
// retry_after_ms all land on the APIError, and Unwrap maps the code onto
// the serve sentinel.
func TestDecodeEnvelopeTyped(t *testing.T) {
	apiErr := &APIError{StatusCode: http.StatusTooManyRequests}
	decodeEnvelope(strings.NewReader(
		`{"error":{"code":"overloaded","message":"serve: admission queue full","retry_after_ms":1000}}`), apiErr)
	if apiErr.Code != servehttp.CodeOverloaded || apiErr.Message != "serve: admission queue full" {
		t.Fatalf("typed decode = %+v", apiErr)
	}
	if apiErr.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s from retry_after_ms", apiErr.RetryAfter)
	}
	if !errors.Is(apiErr, serve.ErrOverloaded) {
		t.Fatal("code overloaded did not map to ErrOverloaded")
	}
	if !strings.Contains(apiErr.Error(), "overloaded") {
		t.Fatalf("Error() = %q, want the code included", apiErr.Error())
	}
}

// TestUnwrapFallsBackToStatus: a body that is no envelope at all, such as
// ServeMux's plain-text 404, decodes to nothing, and the sentinel mapping
// falls back to the status code.
func TestUnwrapFallsBackToStatus(t *testing.T) {
	cases := []struct {
		status int
		want   error
	}{
		{http.StatusTooManyRequests, serve.ErrOverloaded},
		{http.StatusServiceUnavailable, serve.ErrDraining},
		{http.StatusNotFound, serve.ErrUnknownJob},
		{http.StatusBadRequest, nil},
	}
	for _, tc := range cases {
		apiErr := &APIError{StatusCode: tc.status}
		decodeEnvelope(strings.NewReader("404 page not found\n"), apiErr)
		if apiErr.Message != "" || apiErr.Code != "" {
			t.Fatalf("plain-text decode (%d) = %+v", tc.status, apiErr)
		}
		if got := apiErr.Unwrap(); got != tc.want {
			t.Errorf("status %d unwrapped to %v, want %v", tc.status, got, tc.want)
		}
	}
}
