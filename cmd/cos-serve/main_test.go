package main

import (
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"cos/internal/serve"
	"cos/internal/serve/client"
)

// TestSIGTERMDrainsGracefully is the daemon's end-to-end acceptance test:
// start the real run() loop on an ephemeral port, put a job in flight, send
// the process SIGTERM, and verify that (1) admission stops — a subsequent
// submit gets a 503 — (2) the in-flight job completes inside the drain
// window with its full NDJSON body readable, and (3) run() exits 0.
func TestSIGTERMDrainsGracefully(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon loop and sends a real SIGTERM")
	}

	ready := make(chan string, 1)
	notifyReady = func(addr string) { ready <- addr }
	defer func() { notifyReady = nil }()

	var stdout, stderr strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-drain", "30s"}, &stdout, &stderr)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}

	ctx := context.Background()
	c := client.New("http://" + addr)

	// A moderate job: long enough to still be in flight when the signal
	// lands, short enough to finish well inside the drain window even with
	// the race detector's ~10x slowdown (make ci runs this under -race).
	st, err := c.Submit(ctx, serve.Spec{Kind: serve.KindLink, Seed: 9, Packets: 400, PayloadBytes: 256}, client.SubmitOptions{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}

	// Admission must stop: poll until a fresh submit is rejected with 503.
	// (The daemon keeps serving status/result during the drain, so the API
	// stays reachable; only submits are refused.)
	deadline := time.Now().Add(30 * time.Second)
	sawDraining := false
	for time.Now().Before(deadline) {
		_, err := c.Submit(ctx, serve.Spec{Kind: serve.KindLink, Packets: 1, PayloadBytes: 64}, client.SubmitOptions{})
		if errors.Is(err, serve.ErrDraining) {
			sawDraining = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("submits were never rejected with 503 after SIGTERM")
	}

	// The in-flight job must finish (not be cancelled) and its result body
	// must stream to completion while the daemon drains.
	body, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatalf("result during drain: %v", err)
	}
	if n := strings.Count(string(body), "\n"); n != 401 { // 400 packets + summary
		t.Fatalf("drained job result has %d records, want 401", n)
	}
	final, err := c.Status(ctx, st.ID)
	if err == nil && final.State != "done" {
		t.Fatalf("in-flight job finished %q (err %q), want done", final.State, final.Error)
	}

	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("run() exited %d, want 0; stderr: %s", code, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("run() did not exit after drain; stdout: %s", stdout.String())
	}
	// The daemon's lifecycle log is the journal mirror on stderr: JSON
	// lines for startup, the job's trail, and the clean drain.
	errOut := stderr.String()
	for _, want := range []string{
		`"type":"server_listening"`,
		`"type":"job_admitted"`,
		`"type":"job_finished"`,
		`"type":"drain_end","data":{"clean":true}`,
		`"type":"server_exit","data":{"clean":true}`,
	} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr journal mirror missing %s:\n%s", want, errOut)
		}
	}
}

// startDaemon runs the real run() loop with args on an ephemeral port and
// returns its address plus a stop function that SIGTERMs the process and
// waits for a 0 exit.
func startDaemon(t *testing.T, args ...string) (addr string, stop func()) {
	t.Helper()
	ready := make(chan string, 1)
	notifyReady = func(a string) { ready <- a }
	t.Cleanup(func() { notifyReady = nil })

	var stderr strings.Builder
	exit := make(chan int, 1)
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0", "-drain", "30s"}, args...), io.Discard, &stderr)
	}()
	select {
	case addr = <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never became ready; stderr: %s", stderr.String())
	}
	return addr, func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatalf("kill: %v", err)
		}
		select {
		case code := <-exit:
			if code != 0 {
				t.Fatalf("run() exited %d, want 0; stderr: %s", code, stderr.String())
			}
		case <-time.After(60 * time.Second):
			t.Fatal("run() did not exit after SIGTERM")
		}
	}
}

// TestRestartServesDurableResults is the durability acceptance test: two
// daemon processes over the same -data-dir. The first runs a job to
// completion; the second, a fresh process with an empty in-memory state,
// serves that job's digest byte-identically from the durable store — both
// via GET /jobs/{digest}/result and as an X-Cos-Cache hit on resubmission.
func TestRestartServesDurableResults(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon loop twice and sends real SIGTERMs")
	}
	dataDir := t.TempDir()
	ctx := context.Background()
	spec := serve.Spec{Kind: serve.KindLink, Seed: 13, Packets: 5, PayloadBytes: 128}

	addr, stop := startDaemon(t, "-data-dir", dataDir, "-summary-every", "0")
	c := client.New("http://" + addr)
	st, err := c.Submit(ctx, spec, client.SubmitOptions{Trace: true, ProbeEvery: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.Digest == "" {
		t.Fatal("submit status carried no digest")
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	body, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	traceBody, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatalf("trace before restart: %v", err)
	}
	stop()

	addr2, stop2 := startDaemon(t, "-data-dir", dataDir, "-summary-every", "0")
	defer stop2()
	c2 := client.New("http://" + addr2)

	// The digest resolves with no job ID from this process's lifetime.
	replayed, err := c2.ResultBytes(ctx, st.Digest)
	if err != nil {
		t.Fatalf("result by digest after restart: %v", err)
	}
	if string(replayed) != string(body) {
		t.Fatalf("restarted daemon served %d bytes, original %d; streams must be byte-identical",
			len(replayed), len(body))
	}

	// Resubmitting the same spec is a cache hit, not a re-run.
	st2, err := c2.Submit(ctx, spec, client.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached || st2.State != "done" || st2.Digest != st.Digest {
		t.Fatalf("resubmission after restart = %+v, want a cached done job with digest %s", st2, st.Digest)
	}
	again, err := c2.ResultBytes(ctx, st2.ID)
	if err != nil || string(again) != string(body) {
		t.Fatalf("cached resubmission bytes differ (err %v)", err)
	}

	// The trace artifact survived too: the fresh process re-serves the
	// first process's capture byte-identically, addressed by spec digest.
	replayedTrace, err := c2.Trace(ctx, st.Digest)
	if err != nil {
		t.Fatalf("trace by digest after restart: %v", err)
	}
	if string(replayedTrace) != string(traceBody) {
		t.Fatalf("restarted daemon served a %d-byte trace, original %d; trace bytes must be identical",
			len(replayedTrace), len(traceBody))
	}
}

// TestBadFlagsExit2 pins the CLI contract for unknown flags.
func TestBadFlagsExit2(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run(-no-such-flag) = %d, want 2", code)
	}
}
