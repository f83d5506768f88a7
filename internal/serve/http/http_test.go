package servehttp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// startAPI spins up a serve core behind the HTTP handler and returns a
// client pointed at it.
func startAPI(t *testing.T, cfg serve.Config) (*serve.Server, *client.Client) {
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
	return srv, client.New(ts.URL)
}

func TestSubmitStatusAndResultRoundTrip(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 2})
	ctx := context.Background()

	st, err := c.Submit(ctx, serve.Spec{Kind: serve.KindLink, Seed: 5, Packets: 2, PayloadBytes: 64}, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != serve.KindLink {
		t.Fatalf("submit status = %+v", st)
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != "done" {
		t.Fatalf("state = %s (err %q), want done", final.State, final.Error)
	}

	body, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 3 { // 2 packets + summary
		t.Fatalf("got %d NDJSON lines, want 3:\n%s", len(lines), body)
	}
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", ln, err)
		}
	}

	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("jobs list = %+v", jobs)
	}

	h, err := c.Health(ctx)
	if err != nil || h.State != "ok" {
		t.Fatalf("healthz = %+v, %v; want state ok", h, err)
	}
}

func TestSubmitValidationError(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})
	_, err := c.Submit(context.Background(), serve.Spec{Kind: "bogus"}, client.SubmitOptions{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if apiErr.Message == "" {
		t.Fatal("400 response carried no error message")
	}
}

func TestSubmitUnknownFieldRejected(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})
	payload, _ := json.Marshal(map[string]any{"kind": "link", "packtes": 5}) // typo'd field
	resp, err := http.Post(c.BaseURL+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestOverloadReturns429WithRetryAfter(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1, QueueDepth: 1})
	ctx := context.Background()

	slow := serve.Spec{Kind: serve.KindLink, Packets: 1e6, PayloadBytes: 64}
	first, err := c.Submit(ctx, slow, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first job to leave the queue, then fill it again.
	waitRunning(t, c, first.ID)
	if _, err := c.Submit(ctx, slow, client.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}

	_, err = c.Submit(ctx, slow, client.SubmitOptions{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("err = %v, want 429 APIError", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("429 carried no Retry-After hint: %+v", apiErr)
	}

	// Clean up the unfinishable jobs so the test server drains quickly.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := c.Cancel(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		final, err := c.Wait(ctx, j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != "cancelled" {
			t.Fatalf("job %s: state %s, want cancelled", j.ID, final.State)
		}
	}
}

func TestDrainingReturns503(t *testing.T) {
	srv, c := startAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()
	srv.Drain(time.Second)

	_, err := c.Submit(ctx, serve.Spec{Kind: serve.KindLink, Packets: 1, PayloadBytes: 64}, client.SubmitOptions{})
	if !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("submit on draining server: err = %v, want 503 APIError", err)
	}
	if h, err := c.Health(ctx); err != nil || h.State != "draining" {
		t.Fatalf("healthz while draining = %+v, %v; want state draining", h, err)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})
	_, err := c.Status(context.Background(), "job-424242")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("err = %v, want 404 APIError", err)
	}
}

// TestResultStreamsWhileRunning proves records arrive before the job is
// terminal: the NDJSON stream is a live feed, not a post-hoc dump.
func TestResultStreamsWhileRunning(t *testing.T) {
	_, c := startAPI(t, serve.Config{Shards: 1})
	ctx := context.Background()

	st, err := c.Submit(ctx, serve.Spec{Kind: serve.KindLink, Packets: 1e6, PayloadBytes: 64}, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	body, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer body.Close()

	// Read one record while the job is still running.
	buf := make([]byte, 1)
	line := []byte{}
	deadline := time.Now().Add(60 * time.Second)
	for !bytes.Contains(line, []byte("\n")) {
		if time.Now().After(deadline) {
			t.Fatal("no NDJSON record arrived while the job was running")
		}
		n, err := body.Read(buf)
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		line = append(line, buf[:n]...)
	}
	status, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.Terminal {
		t.Fatal("job already terminal; the streaming assertion proved nothing")
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

func waitRunning(t *testing.T, c *client.Client, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "running" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestResultHandlerReturnsOnDisconnect: a client that gives up on a result
// stream frees its handler at once, even while the job is between records
// and nothing else would wake the stream. A full-scale fig9 point writes
// its one record after seconds of simulation.
func TestResultHandlerReturnsOnDisconnect(t *testing.T) {
	srv := serve.New(serve.Config{Shards: 1, Metrics: obs.NewRegistry()})
	returned := make(chan struct{}, 1)
	h := servehttp.NewHandler(srv)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/result") {
			returned <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		srv.Drain(10 * time.Second)
		ts.Close()
	})
	c := client.New(ts.URL)

	st, err := c.Submit(context.Background(), serve.Spec{
		Kind: serve.KindFigureTask, Figure: "fig9", Scale: 1, Seed: 1, Task: 1,
	}, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Cancel(st.ID)
	waitRunning(t, c, st.ID)

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := c.ResultBytes(ctx, st.ID)
		got <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the handler block on the running job
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled result read returned %v", err)
	}
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the result handler still blocks 5s after its client went away")
	}
	job, err := srv.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State().Terminal() {
		t.Fatalf("job %s finished (%s) before the check; it proves nothing", st.ID, job.State())
	}
}
