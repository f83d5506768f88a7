// Command cos-sim runs a CoS link simulation and prints per-packet and
// aggregate statistics: data PRR, control delivery rate, detection accuracy,
// measured/actual SNR, and the achieved free-control-message rate.
//
// Usage:
//
//	cos-sim -snr 18 -position B -packets 200 -size 1024 -control 32
//	cos-sim -snr 12 -mobile -scenario pulse:40,160,0.004
//	cos-sim -runs 8 -workers 4 -packets 500
//	cos-sim -packets 5000 -metrics-addr :8080 -stats 2s
//	cos-sim -list-scenarios
//	cos-sim -scenario hybrid-bscpec -snr 12
//
// Each run is one link session, the same packet loop a cos-serve link job
// runs (serve.RunLinkSession), so a run's counts equal the link_summary of
// the job with the same seed, SNR, position, scenario and sizes.
//
// -runs N repeats the session over N independent channel realizations
// (run r uses channel variant r and a seed derived from -seed) and reports
// per-run and pooled statistics; runs execute across -workers goroutines
// with results independent of the worker count. Ctrl-C stops a simulation
// mid-session.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"

	"cos"
	"cos/internal/bits"
	"cos/internal/channel"
	"cos/internal/cli"
	"cos/internal/phy"
	"cos/internal/pool"
	"cos/internal/scenario"
	"cos/internal/serve"
	"cos/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// session is one run's outcome: the link job's closing record plus the
// detector positions scanned, which the record does not carry.
type session struct {
	sum     serve.LinkSummary
	scanned int
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("cos-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		snr      = fs.Float64("snr", 18, "true channel SNR in dB")
		posName  = fs.String("position", "B", "receiver position: A, B, C or flat")
		packets  = fs.Int("packets", 100, "packets to send per run")
		size     = fs.Int("size", 1024, "payload size in bytes")
		ctrlBits = fs.Int("control", 32, "control bits per packet (0 = data only; capped by budget)")
		rate     = fs.Int("rate", 0, "fixed data rate in Mb/s (0 = SNR-based adaptation)")
		mobile   = fs.Bool("mobile", false, "walking-speed mobile channel")
		seed     = fs.Int64("seed", 1, "simulation seed")
		runs     = fs.Int("runs", 1, "independent channel realizations to simulate")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for -runs (results identical for any count)")
		verbose  = fs.Bool("v", false, "print each packet (single run only)")
		traceOut = fs.String("trace", "", "write a JSON-lines event trace to this file (single run only)")
		probeN   = fs.Int("probe", 0, "record a PHY introspection probe every N packets into the trace (0 = off; needs -trace)")
	)
	scenRef, listScen := cli.ScenarioFlags(fs)
	obsAddr, obsStats := cli.ObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "cos-sim: "+format+"\n", a...)
		return 2
	}

	if *listScen {
		fmt.Fprint(stdout, scenario.FormatList())
		return 0
	}
	pos, err := channel.ParsePosition(*posName)
	if err != nil {
		return usage("%v", err)
	}
	if *runs < 1 {
		return usage("-runs %d must be at least 1", *runs)
	}
	if *packets < 1 {
		return usage("-packets %d must be at least 1", *packets)
	}
	if maxSize := phy.MaxPSDUBytes - bits.FCSLen; *size < 0 || *size > maxSize {
		return usage("-size %d outside [0, %d] bytes", *size, maxSize)
	}
	if *ctrlBits < 0 {
		return usage("-control %d must be non-negative", *ctrlBits)
	}
	if *runs > 1 && (*traceOut != "" || *verbose) {
		return usage("-trace and -v need a deterministic packet order; use -runs 1")
	}
	if *probeN < 0 {
		return usage("-probe %d must be non-negative", *probeN)
	}
	if *probeN > 0 && *traceOut == "" {
		return usage("-probe records into the trace; add -trace <file>")
	}

	app, err := cli.Boot(*obsAddr, *obsStats, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "cos-sim: %v\n", err)
		return 1
	}
	defer app.Close()

	// Trace capture rides the link's observer hook. The schema header goes
	// out immediately, and the deferred flush runs on every return, so an
	// interrupted run still leaves a readable trace behind.
	var tw *trace.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(stderr, "cos-sim: %v\n", err)
			return 1
		}
		tw = trace.NewWriter(f)
		defer func() {
			if err := errors.Join(tw.Flush(), f.Close()); err != nil {
				fmt.Fprintf(stderr, "cos-sim: trace: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
		if err := tw.WriteHeader(); err != nil {
			fmt.Fprintf(stderr, "cos-sim: %v\n", err)
			return 1
		}
	}

	// One session per run. Run 0 uses -seed itself; runs r > 0 use channel
	// variant r and the seed pool.TaskSeed(seed, r).
	runSession := func(ctx context.Context, r int) (session, error) {
		var s session
		linkSeed := *seed
		if r > 0 {
			linkSeed = pool.TaskSeed(*seed, r)
		}
		opts := []cos.Option{cos.WithPosition(pos), cos.WithSNR(*snr), cos.WithSeed(linkSeed)}
		if *scenRef != "" {
			opts = append(opts, cos.WithScenario(*scenRef))
		}
		if r > 0 {
			opts = append(opts, cos.WithChannelVariant(int64(r)))
		}
		if *rate != 0 {
			opts = append(opts, cos.WithFixedRate(*rate))
		}
		if *mobile {
			opts = append(opts, cos.WithMobile())
		}
		if tw != nil {
			opts = append(opts, cos.WithObserver(tw.Observer()))
			if *probeN > 0 {
				opts = append(opts, cos.WithProbe(*probeN))
			}
		}
		link, err := cos.NewLink(opts...)
		if err != nil {
			return s, err
		}
		s.sum, err = serve.RunLinkSession(ctx, link, linkSeed, *packets, *size, *ctrlBits,
			func(ex *cos.Exchange) error {
				s.scanned += ex.Detection.Silences + ex.Detection.Normals
				if *verbose {
					fmt.Fprintf(stdout, "pkt %3d: mode=%v dataOK=%v ctrlOK=%v silences=%d measured=%.1fdB actual=%.1fdB\n",
						ex.Seq, ex.Mode, ex.DataOK, ex.ControlOK, ex.SilencesInserted, ex.MeasuredSNRdB, ex.ActualSNRdB)
				}
				return nil
			})
		return s, err
	}

	ctx := app.Context()
	perRun := make([]session, *runs)
	err = pool.ForEach(ctx, *workers, *runs, *seed, func(r int, _ *rand.Rand) error {
		s, err := runSession(ctx, r)
		perRun[r] = s
		return err
	})
	if err != nil {
		if cli.Interrupted(err) {
			fmt.Fprintln(stderr, "cos-sim: interrupted")
			return cli.ExitInterrupted
		}
		fmt.Fprintf(stderr, "cos-sim: %v\n", err)
		return 1
	}
	if tw != nil {
		if err := tw.Err(); err != nil {
			fmt.Fprintf(stderr, "cos-sim: %v\n", err)
			return 1
		}
	}
	printSummary(stdout, perRun, pos, *snr, *packets, *size, *mobile, *scenRef)
	return 0
}

// printSummary prints the header, one line per run when there are several,
// and the statistics pooled over every run's record.
func printSummary(w io.Writer, perRun []session, pos channel.Position, snr float64, packets, size int, mobile bool, scen string) {
	if scen == "" {
		scen = scenario.DefaultName
	}
	fmt.Fprintf(w, "position=%v snr=%.1fdB packets=%d size=%dB mobile=%v scenario=%s",
		pos, snr, packets, size, mobile, scen)
	if len(perRun) > 1 {
		fmt.Fprintf(w, " runs=%d", len(perRun))
	}
	fmt.Fprintln(w)
	var (
		dataOK, ctrlOK, ctrlSent, ctrlBits int
		silences, fPos, fNeg, scanned      int
		snrSum, elapsed                    float64
	)
	for r, s := range perRun {
		if len(perRun) > 1 {
			fmt.Fprintf(w, "run %2d: data PRR %.4f  control %d/%d  silences %d\n",
				r, float64(s.sum.DataDelivered)/float64(packets), s.sum.CtrlDelivered, s.sum.CtrlSent, s.sum.Silences)
		}
		dataOK += s.sum.DataDelivered
		ctrlOK += s.sum.CtrlDelivered
		ctrlSent += s.sum.CtrlSent
		ctrlBits += s.sum.CtrlBitsDelivered
		silences += s.sum.Silences
		fPos += s.sum.FalsePositives
		fNeg += s.sum.FalseNegatives
		scanned += s.scanned
		snrSum += s.sum.MeanMeasuredSNRdB
		elapsed += s.sum.ElapsedSimSeconds
	}
	total := packets * len(perRun)
	fmt.Fprintf(w, "data PRR:              %.4f (%d/%d)\n", float64(dataOK)/float64(total), dataOK, total)
	if ctrlSent > 0 {
		fmt.Fprintf(w, "control delivery rate: %.4f (%d/%d)\n", float64(ctrlOK)/float64(ctrlSent), ctrlOK, ctrlSent)
		fmt.Fprintf(w, "control throughput:    %.0f bit/s of free control messages\n", float64(ctrlBits)/elapsed)
		fmt.Fprintf(w, "silence symbols:       %d total (%.1f/packet)\n", silences, float64(silences)/float64(ctrlSent))
		if scanned > 0 {
			fmt.Fprintf(w, "detector errors:       %d false positives, %d false negatives over %d positions\n", fPos, fNeg, scanned)
		}
	}
	// Every run sends the same packet count, so the pooled mean is the
	// mean of the per-run means.
	fmt.Fprintf(w, "mean measured SNR:     %.1f dB\n", snrSum/float64(len(perRun)))
}
