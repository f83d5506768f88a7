package servehttp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cos/internal/obs"
	"cos/internal/serve"
	"cos/internal/serve/client"
	servehttp "cos/internal/serve/http"
)

// startTraceAPI is startAPI plus the raw base URL, for requests the typed
// client does not wrap (report endpoint, malformed headers).
func startTraceAPI(t *testing.T, cfg serve.Config) (*client.Client, string) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	srv := serve.New(cfg)
	ts := httptest.NewServer(servehttp.NewHandler(srv))
	t.Cleanup(func() {
		srv.Drain(10 * time.Second)
		ts.Close()
	})
	return client.New(ts.URL), ts.URL
}

func traceSpec(seed int64) serve.Spec {
	return serve.Spec{Kind: serve.KindLink, Seed: seed, Packets: 3, PayloadBytes: 64}
}

// TestTraceRoundTrip: submit with tracing over HTTP, fetch the trace via
// the typed client, and check the digest header addresses the body.
func TestTraceRoundTrip(t *testing.T) {
	c, base := startTraceAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, traceSpec(11), client.SubmitOptions{Trace: true, ProbeEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || !final.Traced || final.TraceDigest == "" {
		t.Fatalf("final status = %+v, want done+traced with digest", final)
	}
	if final.ProbeEvery != 2 {
		t.Fatalf("probe_every = %d, want 2", final.ProbeEvery)
	}

	body, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != final.TraceDigest {
		t.Fatalf("trace body sha256 %s, status digest %s", got, final.TraceDigest)
	}
	if final.TraceBytes != len(body) {
		t.Fatalf("trace_bytes = %d, body = %d", final.TraceBytes, len(body))
	}

	// Raw endpoint: content type and digest header.
	resp, err := http.Get(base + "/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace content type = %q", ct)
	}
	if d := resp.Header.Get(servehttp.HeaderTraceDigest); d != final.TraceDigest {
		t.Fatalf("%s = %q, want %q", servehttp.HeaderTraceDigest, d, final.TraceDigest)
	}
	if !bytes.Equal(raw, body) {
		t.Fatal("raw endpoint and client.Trace disagree")
	}

	// Digest-addressed fetch works too.
	resp, err = http.Get(base + "/jobs/" + final.Digest + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	byDigest, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(byDigest, body) {
		t.Fatal("digest-addressed trace differs from job-addressed trace")
	}
}

// TestTraceUnavailableTyped: an untraced job's trace fetch is a 404 with
// the trace_unavailable code, unwrapping to the serve sentinel.
func TestTraceUnavailableTyped(t *testing.T) {
	c, _ := startTraceAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, traceSpec(13), client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	_, err = c.Trace(ctx, st.ID)
	if !errors.Is(err, serve.ErrTraceUnavailable) {
		t.Fatalf("err = %v, want serve.ErrTraceUnavailable", err)
	}
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 || apiErr.Code != servehttp.CodeTraceUnavailable {
		t.Fatalf("err = %v, want 404 %s", err, servehttp.CodeTraceUnavailable)
	}
}

// TestTraceBadHeaders: malformed or inconsistent trace headers are 400s.
func TestTraceBadHeaders(t *testing.T) {
	c, base := startTraceAPI(t, serve.Config{Shards: 1})
	post := func(hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST", base+"/jobs",
			strings.NewReader(`{"kind":"link","seed":1,"packets":2,"payload_bytes":64}`))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	cases := []map[string]string{
		{servehttp.HeaderTrace: "yes"},                                 // unparseable flag
		{servehttp.HeaderProbeEvery: "three"},                          // unparseable cadence
		{servehttp.HeaderProbeEvery: "4"},                              // cadence without tracing
		{servehttp.HeaderTrace: "1", servehttp.HeaderProbeEvery: "-1"}, // negative cadence
	}
	for _, hdr := range cases {
		if resp := post(hdr); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("headers %v: status %d, want 400", hdr, resp.StatusCode)
		}
	}

	// A probe cadence on a wlan job, whose trace carries no probes.
	wlan := serve.Spec{Kind: serve.KindWLAN, Stations: 2, Rounds: 3, PayloadBytes: 64}
	_, err := c.Submit(context.Background(), wlan, client.SubmitOptions{Trace: true, ProbeEvery: 2})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || apiErr.Code != servehttp.CodeBadRequest {
		t.Fatalf("probed wlan submit: err = %v, want 400 %s", err, servehttp.CodeBadRequest)
	}
}

// TestTraceReportHTML: the report endpoint renders the captured trace as
// deterministic HTML.
func TestTraceReportHTML(t *testing.T) {
	c, base := startTraceAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, traceSpec(17), client.SubmitOptions{Trace: true, ProbeEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	get := func() []byte {
		t.Helper()
		resp, err := http.Get(base + "/jobs/" + st.ID + "/trace/report")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("report status = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
			t.Fatalf("report content type = %q", ct)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	first := get()
	if !bytes.Contains(first, []byte("<html")) && !bytes.Contains(first, []byte("<!DOCTYPE")) {
		t.Fatalf("report does not look like HTML: %.80s", first)
	}
	if !bytes.Equal(first, get()) {
		t.Fatal("report HTML is not deterministic across fetches")
	}
}
