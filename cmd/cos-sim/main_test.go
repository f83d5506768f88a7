package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cos/internal/obs"
	"cos/internal/serve"
	"cos/internal/trace"
)

// jobSummary runs spec as a cos-serve link job and decodes the
// link_summary record that closes its result body.
func jobSummary(t *testing.T, spec serve.Spec) serve.LinkSummary {
	t.Helper()
	s := serve.New(serve.Config{Shards: 1, Metrics: obs.NewRegistry()})
	defer s.Drain(5 * time.Second)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if j.State() != serve.StateDone {
		t.Fatalf("link job %v: %s", j.State(), j.Err())
	}
	body, err := io.ReadAll(j.Result())
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var sum serve.LinkSummary
	if err := json.Unmarshal(lines[len(lines)-1], &sum); err != nil || sum.Type != "link_summary" {
		t.Fatalf("last record %s: %v", lines[len(lines)-1], err)
	}
	return sum
}

func runSim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

// TestCountsMatchLinkJob checks that cos-sim prints the tally of the same
// link session a cos-serve link job records for the same spec.
func TestCountsMatchLinkJob(t *testing.T) {
	for _, scen := range []string{"", "pulse:2,40,0.1"} {
		t.Run("scenario="+scen, func(t *testing.T) {
			args := []string{"-seed", "3", "-snr", "14", "-packets", "40", "-control", "32"}
			if scen != "" {
				args = append(args, "-scenario", scen)
			}
			out, errOut, code := runSim(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			sum := jobSummary(t, serve.Spec{Kind: serve.KindLink, Seed: 3, SNRdB: 14, Packets: 40, ControlBits: 32, Scenario: scen})
			for _, want := range []string{
				fmt.Sprintf("data PRR:              %.4f (%d/%d)\n",
					float64(sum.DataDelivered)/float64(sum.Packets), sum.DataDelivered, sum.Packets),
				fmt.Sprintf("control delivery rate: %.4f (%d/%d)\n",
					float64(sum.CtrlDelivered)/float64(sum.CtrlSent), sum.CtrlDelivered, sum.CtrlSent),
				fmt.Sprintf("control throughput:    %.0f bit/s", float64(sum.CtrlBitsDelivered)/sum.ElapsedSimSeconds),
				fmt.Sprintf("silence symbols:       %d total", sum.Silences),
				fmt.Sprintf("detector errors:       %d false positives, %d false negatives", sum.FalsePositives, sum.FalseNegatives),
				fmt.Sprintf("mean measured SNR:     %.1f dB\n", sum.MeanMeasuredSNRdB),
			} {
				if !strings.Contains(out, want) {
					t.Errorf("output lacks %q\n%s", want, out)
				}
			}
		})
	}
}

// TestSingleRunOutputPinned pins the whole -runs 1 report for one seed.
func TestSingleRunOutputPinned(t *testing.T) {
	out, errOut, code := runSim(t, "-seed", "3", "-snr", "14", "-packets", "40", "-control", "32")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	const want = `position=Position B snr=14.0dB packets=40 size=1024B mobile=false scenario=default
data PRR:              0.9750 (39/40)
control delivery rate: 0.8235 (28/34)
control throughput:    3800 bit/s of free control messages
silence symbols:       134 total (3.9/packet)
detector errors:       98 false positives, 1 false negatives over 19992 positions
mean measured SNR:     11.5 dB
`
	if out != want {
		t.Errorf("output:\n%s\nwant:\n%s", out, want)
	}
}

// TestBadScenarioExits2 checks that an unknown preset is a usage error
// caught before any packet is simulated.
func TestBadScenarioExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-packets", "2", "-scenario", "nosuch"},
		{"-packets", "2", "-interference"}, // removed: -scenario pulse:40,160,0.004 says it
	} {
		out, _, code := runSim(t, args...)
		if code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q; want 2 and nothing printed", args, code, out)
		}
	}
}

// TestTraceFlushedOnReturn checks that run's deferred close leaves a
// complete trace: the header plus one event per packet, probes included.
func TestTraceFlushedOnReturn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if _, errOut, code := runSim(t, "-packets", "3", "-size", "256", "-trace", path, "-probe", "2"); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, version, err := trace.ReadVersioned(f)
	if err != nil {
		t.Fatal(err)
	}
	if version != trace.SchemaVersion || len(events) != 3 {
		t.Fatalf("trace v%d with %d events; want v%d with 3", version, len(events), trace.SchemaVersion)
	}
	if events[0].Probe == nil || events[1].Probe != nil || events[2].Probe == nil {
		t.Errorf("probes on events %v %v %v; want every 2nd from 0", events[0].Probe != nil, events[1].Probe != nil, events[2].Probe != nil)
	}
}
