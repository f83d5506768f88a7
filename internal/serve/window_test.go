package serve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"cos/internal/obs"
	"cos/internal/serve"
	"cos/internal/serve/cache"
	servehttp "cos/internal/serve/http"
)

// TestJobWindowBounded: terminal jobs live in a fixed window, so a daemon
// answering cache hits forever holds a bounded job table and a flat heap.
// Live jobs are never evicted; an evicted ID answers ErrJobEvicted (404
// job_evicted over HTTP) while its result stays reachable by digest, and
// a retried idempotency key of an evicted job admits afresh.
func TestJobWindowBounded(t *testing.T) {
	srv := serve.New(serve.Config{Shards: 1, Metrics: obs.NewRegistry(), Cache: cache.New(0)})
	ts := httptest.NewServer(servehttp.NewHandler(srv))
	t.Cleanup(func() {
		srv.Drain(10 * time.Second)
		ts.Close()
	})

	spec := serve.Spec{Kind: serve.KindLink, Seed: 11, Packets: 3, PayloadBytes: 64}
	first, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	want, err := io.ReadAll(first.Result())
	if err != nil || first.State() != serve.StateDone {
		t.Fatalf("computing run: %s %v", first.State(), err)
	}
	// A running job and a queued one behind it: neither may be evicted.
	// A full-scale fig9 point writes nothing for seconds.
	slow := serve.Spec{Kind: serve.KindFigureTask, Figure: "fig9", Scale: 1, Seed: 1, Task: 1}
	running, err := srv.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	slow.Task = 2
	queued, err := srv.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Cancel(running.ID())
	defer srv.Cancel(queued.ID())
	oldest, err := srv.SubmitWith(spec, serve.SubmitOptions{IdempotencyKey: "retry-me"})
	if err != nil || !oldest.Cached() {
		t.Fatalf("keyed resubmission: %v", err)
	}

	window := serve.RetainedJobs
	heap := make([]uint64, 3)
	for round := range heap {
		for i := 0; i < window; i++ {
			j, err := srv.Submit(spec)
			if err != nil || !j.Cached() {
				t.Fatalf("resubmission %d: %v", round*window+i, err)
			}
		}
		heap[round] = settledHeap()
	}
	t.Logf("heap after each %d cache hits: %v B", window, heap)
	if n := len(srv.Jobs()); n > window+2 {
		t.Errorf("Jobs() lists %d jobs after %d submissions; want at most the %d-job window plus 2 live", n, 3*window+4, window)
	}
	for _, live := range []*serve.Job{running, queued} {
		if live.State().Terminal() {
			t.Fatalf("job %s finished during the test (%s); the window check needs it live", live.ID(), live.State())
		}
		if _, err := srv.Job(live.ID()); err != nil {
			t.Errorf("live job %s: %v", live.ID(), err)
		}
	}
	if growth := int64(heap[2]) - int64(heap[1]); growth > int64(window)*64 {
		t.Errorf("heap grew %d B over %d more cache hits with the window full (%v)", growth, window, heap)
	}

	for _, j := range []*serve.Job{first, oldest} {
		_, err := srv.Job(j.ID())
		if !errors.Is(err, serve.ErrJobEvicted) || !errors.Is(err, serve.ErrUnknownJob) {
			t.Errorf("Job(%s) = %v, want ErrJobEvicted wrapping ErrUnknownJob", j.ID(), err)
		}
	}
	if _, err := srv.Job("job-999999999"); !errors.Is(err, serve.ErrUnknownJob) || errors.Is(err, serve.ErrJobEvicted) {
		t.Errorf("an ID never assigned: %v, want ErrUnknownJob only", err)
	}
	for _, path := range []string{"/jobs/" + oldest.ID(), "/jobs/" + oldest.ID() + "/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var env servehttp.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || err != nil || env.Error.Code != servehttp.CodeJobEvicted {
			t.Errorf("GET %s: status %d code %q (%v), want 404 %s", path, resp.StatusCode, env.Error.Code, err, servehttp.CodeJobEvicted)
		}
	}

	resp, err := http.Get(ts.URL + "/jobs/" + oldest.Digest() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || !bytes.Equal(got, want) {
		t.Errorf("GET by digest after eviction: status %d, %d bytes (%v); want 200 and the %d computed bytes", resp.StatusCode, len(got), err, len(want))
	}

	again, err := srv.SubmitWith(spec, serve.SubmitOptions{IdempotencyKey: "retry-me"})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID() == oldest.ID() || !again.Cached() {
		t.Errorf("retried key of an evicted job returned %s (cached %v); want a fresh cache hit", again.ID(), again.Cached())
	}
}

// settledHeap is the smallest live heap over a few collections with no
// submission between them. The server's own retained heap is constant
// across these reads; the live figure_task's in-flight allocations are
// not, and the minimum keeps them from reading as cache-hit growth.
func settledHeap() uint64 {
	var least uint64
	for i := 0; i < 5; i++ {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if i == 0 || ms.HeapAlloc < least {
			least = ms.HeapAlloc
		}
	}
	return least
}
