// Command cos-trace inspects a JSON-lines event trace captured with
// cos-sim -trace or exported from cos-serve's /jobs/{key}/trace endpoint.
//
//	cos-trace session.jsonl                  # summary (default subcommand)
//	cos-trace summary [flags] session.jsonl  # delivery/detector/rate summary
//	cos-trace report -o out.html session.jsonl
//	curl -s $COS/jobs/$ID/trace | cos-trace summary -   # "-" reads stdin
//
// summary prints packet and control delivery rates, detector error totals,
// control throughput, and the data-rate histogram. report renders the
// flight-recorder view — stage latencies, EVM waterfall, erasure and
// symbol-error maps — as a self-contained HTML file (stdout by default).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"cos/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: cos-trace [summary|report] [flags] <trace.jsonl>

subcommands:
  summary   print delivery, detector and rate statistics (default)
  report    render a self-contained HTML flight-recorder report

"-" as the trace path reads NDJSON from stdin (e.g. piped from
curl .../jobs/{key}/trace); run "cos-trace <subcommand> -h" for flags`)
	return 2
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	// A recognized first argument selects the subcommand; anything else is
	// taken as the trace path for the historical default, `cos-trace
	// <trace.jsonl>`, which behaves as `summary`.
	sub := "summary"
	if len(args) > 0 {
		switch args[0] {
		case "summary", "report":
			sub, args = args[0], args[1:]
		case "help", "-h", "-help", "--help":
			return usage(stderr)
		}
	}
	switch sub {
	case "report":
		return runReport(args, stdin, stdout, stderr)
	default:
		return runSummary(args, stdin, stdout, stderr)
	}
}

// parseTraceArg parses flags on fs and returns the single positional trace
// path. All subcommands funnel usage errors through here: bad flags and a
// wrong argument count both exit 2 with the usage line on stderr.
func parseTraceArg(fs *flag.FlagSet, args []string, stderr io.Writer) (string, bool) {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return "", false // flag package already printed the error + usage
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: cos-trace %s [flags] <trace.jsonl>\n", fs.Name())
		return "", false
	}
	return fs.Arg(0), true
}

// readTrace loads the trace at path ("-" reads stdin) and returns the
// events plus an exit code: 0 on success, 1 on I/O or mid-stream data
// errors, 2 when the stream breaks at the header position — the input is
// not a trace at all, which is a usage error (wrong file, wrong pipe), so
// it also prints the usage line.
func readTrace(path string, stdin io.Reader, stderr io.Writer) ([]trace.Event, int, int) {
	src := stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "cos-trace: %v\n", err)
			return nil, 0, 1
		}
		defer f.Close()
		src = f
	}
	events, version, err := trace.ReadVersioned(src)
	if err != nil {
		fmt.Fprintf(stderr, "cos-trace: %v\n", err)
		var ferr *trace.FormatError
		if errors.As(err, &ferr) && ferr.Event == 0 {
			return nil, 0, usage(stderr)
		}
		return nil, 0, 1
	}
	return events, version, 0
}

func runSummary(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	path, ok := parseTraceArg(flag.NewFlagSet("summary", flag.ContinueOnError), args, stderr)
	if !ok {
		return 2
	}
	events, version, code := readTrace(path, stdin, stderr)
	if code != 0 {
		return code
	}
	s, err := trace.Summarize(events)
	if err != nil {
		fmt.Fprintf(stderr, "cos-trace: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "schema version:         %d\n", version)
	fmt.Fprintf(stdout, "events:                 %d\n", s.Events)
	fmt.Fprintf(stdout, "data PRR:               %.4f\n", s.DataPRR)
	fmt.Fprintf(stdout, "control attempts:       %d\n", s.ControlAttempts)
	fmt.Fprintf(stdout, "control delivery:       %.4f\n", s.ControlDelivery)
	fmt.Fprintf(stdout, "control CRC-verified:   %.4f\n", s.ControlVerifiedRate)
	fmt.Fprintf(stdout, "control throughput:     %.0f bit/s\n", s.ControlThroughputBps)
	fmt.Fprintf(stdout, "silence symbols:        %d\n", s.SilencesTotal)
	fmt.Fprintf(stdout, "detector errors:        %d FP, %d FN\n", s.FalsePositives, s.FalseNegatives)
	fmt.Fprintf(stdout, "mean measured SNR:      %.1f dB\n", s.MeanMeasuredSNRdB)
	fmt.Fprintf(stdout, "probes:                 %d\n", s.Probes)
	rates := make([]int, 0, len(s.RateHistogram))
	for r := range s.RateHistogram {
		rates = append(rates, r)
	}
	sort.Ints(rates)
	fmt.Fprintf(stdout, "rate histogram:        ")
	for _, r := range rates {
		fmt.Fprintf(stdout, " %dMbps:%d", r, s.RateHistogram[r])
	}
	fmt.Fprintln(stdout)
	if len(s.StageNSTotals) > 0 {
		stages := make([]string, 0, len(s.StageNSTotals))
		for st := range s.StageNSTotals {
			stages = append(stages, st)
		}
		sort.Strings(stages)
		fmt.Fprintf(stdout, "stage time totals:     ")
		for _, st := range stages {
			fmt.Fprintf(stdout, " %s:%.2fms", st, float64(s.StageNSTotals[st])/1e6)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func runReport(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	out := fs.String("o", "", "write the HTML report to this file (default stdout)")
	path, ok := parseTraceArg(fs, args, stderr)
	if !ok {
		return 2
	}
	events, version, code := readTrace(path, stdin, stderr)
	if code != 0 {
		return code
	}
	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "cos-trace: %v\n", err)
			return 1
		}
		defer f.Close()
		dst = f
	}
	if err := trace.WriteReport(dst, events, version); err != nil {
		fmt.Fprintf(stderr, "cos-trace: %v\n", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "cos-trace: wrote %s (%d events, schema v%d)\n", *out, len(events), version)
	}
	return 0
}
