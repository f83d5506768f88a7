package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestObsFlagsRegisterThePair(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	addr, stats := ObsFlags(fs)
	if err := fs.Parse([]string{"-metrics-addr", ":9999", "-stats", "5s"}); err != nil {
		t.Fatal(err)
	}
	if *addr != ":9999" || *stats != 5*time.Second {
		t.Fatalf("parsed flags = %q, %v", *addr, *stats)
	}
}

// TestScenarioFlagResolvesAtParse pins the fail-fast contract: a
// -scenario value that names no registered preset is a flag error, so
// cos-sim and cos-figures exit 2 before any simulation runs.
func TestScenarioFlagResolvesAtParse(t *testing.T) {
	for _, bad := range []string{"nosuch", "Bad Name", "pulse:x", "default:1"} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		ScenarioFlags(fs)
		if err := fs.Parse([]string{"-scenario", bad}); err == nil {
			t.Errorf("-scenario %q parsed without error", bad)
		}
	}
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ref, _ := ScenarioFlags(fs)
	if err := fs.Parse([]string{"-scenario", "pulse:40,160,0.004"}); err != nil {
		t.Fatal(err)
	}
	if *ref != "pulse:40,160,0.004" {
		t.Fatalf("ref = %q", *ref)
	}
}

func TestBootWithoutObsAndIdempotentClose(t *testing.T) {
	app, err := Boot("", 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Context().Err(); err != nil {
		t.Fatalf("fresh context already cancelled: %v", err)
	}
	app.Close()
	app.Close() // must be safe to call twice (deferred + explicit)
}

func TestBootServesMetrics(t *testing.T) {
	var log strings.Builder
	app, err := Boot("127.0.0.1:0", 0, &log)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	// obshttp logs the bound URL ("... on http://127.0.0.1:PORT") so ":0"
	// is discoverable.
	line := strings.TrimSpace(log.String())
	i := strings.LastIndex(line, " ")
	if i < 0 || !strings.HasPrefix(line[i+1:], "http://") {
		t.Fatalf("obs listener logged no address: %q", line)
	}
	url := line[i+1:]
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET %s/metrics: %v", url, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
}

func TestBootContextCancelsOnSignal(t *testing.T) {
	app, err := Boot("", 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-app.Context().Done():
	case <-time.After(10 * time.Second):
		t.Fatal("context not cancelled after SIGTERM")
	}
	if !Interrupted(app.Context().Err()) {
		t.Fatalf("Interrupted(%v) = false after signal", app.Context().Err())
	}
}

func TestInterruptedClassification(t *testing.T) {
	if Interrupted(nil) {
		t.Error("Interrupted(nil)")
	}
	if Interrupted(context.DeadlineExceeded) {
		t.Error("deadline exceeded is not an interrupt")
	}
	if !Interrupted(fmt.Errorf("wrapped: %w", context.Canceled)) {
		t.Error("wrapped context.Canceled should count as interrupted")
	}
}
