// Command cos-sim runs a CoS link simulation and prints per-packet and
// aggregate statistics: data PRR, control delivery rate, detection accuracy,
// measured/actual SNR, and the achieved free-control-message rate.
//
// Usage:
//
//	cos-sim -snr 18 -position B -packets 200 -size 1024 -control 32
//	cos-sim -snr 12 -mobile -interference
//	cos-sim -runs 8 -workers 4 -packets 500
//	cos-sim -packets 5000 -metrics-addr :8080 -stats 2s
//	cos-sim -list-scenarios
//	cos-sim -scenario hybrid-bscpec -snr 12
//	cos-sim -scenario pulse:40,160,0.004 -packets 200
//
// -runs N repeats the session over N independent channel realizations
// (run r uses channel variant r and a seed derived from -seed) and reports
// per-run and pooled statistics; runs execute across -workers goroutines
// with results independent of the worker count. Ctrl-C stops a simulation
// mid-session.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"cos"
	"cos/internal/channel"
	"cos/internal/cli"
	"cos/internal/pool"
	"cos/internal/scenario"
	"cos/internal/trace"
)

// runStats aggregates one session (one link, -packets packets).
type runStats struct {
	dataOK, ctrlOK, ctrlSent      int
	silences, fPos, fNeg, scanned int
	ctrlBitsDelivered             int
	measuredSum                   float64
	elapsed                       float64
}

func (s *runStats) add(o runStats) {
	s.dataOK += o.dataOK
	s.ctrlOK += o.ctrlOK
	s.ctrlSent += o.ctrlSent
	s.silences += o.silences
	s.fPos += o.fPos
	s.fNeg += o.fNeg
	s.scanned += o.scanned
	s.ctrlBitsDelivered += o.ctrlBitsDelivered
	s.measuredSum += o.measuredSum
	s.elapsed += o.elapsed
}

func main() {
	var (
		snr      = flag.Float64("snr", 18, "true channel SNR in dB")
		posName  = flag.String("position", "B", "receiver position: A, B, C or flat")
		packets  = flag.Int("packets", 100, "packets to send per run")
		size     = flag.Int("size", 1024, "payload size in bytes")
		ctrlBits = flag.Int("control", 32, "control bits per packet (0 = data only; capped by budget)")
		rate     = flag.Int("rate", 0, "fixed data rate in Mb/s (0 = SNR-based adaptation)")
		mobile   = flag.Bool("mobile", false, "walking-speed mobile channel")
		intf     = flag.Bool("interference", false, "inject strong pulse interference (shorthand for -scenario pulse:40,160,0.004)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		runs     = flag.Int("runs", 1, "independent channel realizations to simulate")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for -runs (results identical for any count)")
		verbose  = flag.Bool("v", false, "print each packet (single run only)")
		traceOut = flag.String("trace", "", "write a JSON-lines event trace to this file (single run only)")
		probeN   = flag.Int("probe", 0, "record a PHY introspection probe every N packets into the trace (0 = off; needs -trace)")
	)
	scenRef, listScen := cli.ScenarioFlags(flag.CommandLine)
	obsAddr, obsStats := cli.ObsFlags(flag.CommandLine)
	flag.Parse()

	if *listScen {
		fmt.Print(scenario.FormatList())
		return
	}
	if *intf {
		// -interference is shorthand for the Fig. 10(d) pulse scenario.
		if *scenRef != "" {
			fmt.Fprintln(os.Stderr, "cos-sim: -interference selects -scenario pulse:40,160,0.004; give one or the other")
			os.Exit(2)
		}
		*scenRef = "pulse:40,160,0.004"
	}
	scen, err := cli.ParseScenario(*scenRef)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cos-sim: %v\n", err)
		os.Exit(2)
	}

	app, err := cli.Boot(*obsAddr, *obsStats, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cos-sim: %v\n", err)
		os.Exit(1)
	}
	defer app.Close()

	pos, err := channel.ParsePosition(*posName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cos-sim: %v\n", err)
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "cos-sim: -runs %d must be at least 1\n", *runs)
		os.Exit(2)
	}
	if *runs > 1 && (*traceOut != "" || *verbose) {
		fmt.Fprintln(os.Stderr, "cos-sim: -trace and -v need a deterministic packet order; use -runs 1")
		os.Exit(2)
	}
	if *probeN < 0 {
		fmt.Fprintf(os.Stderr, "cos-sim: -probe %d must be non-negative\n", *probeN)
		os.Exit(2)
	}
	if *probeN > 0 && *traceOut == "" {
		fmt.Fprintln(os.Stderr, "cos-sim: -probe records into the trace; add -trace <file>")
		os.Exit(2)
	}

	ctx := app.Context()

	// Trace capture rides the link's observer hook: one event stream
	// feeds the trace file, the metrics registry, and the printed stats.
	// The schema header goes out immediately and closeTrace flushes on
	// EVERY exit path — os.Exit skips defers, so the interrupt path below
	// must call it explicitly or a Ctrl-C leaves a truncated trace behind.
	var tw *trace.Writer
	closeTrace := func() {}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cos-sim: %v\n", err)
			os.Exit(1)
		}
		tw = trace.NewWriter(f)
		closed := false
		closeTrace = func() {
			if closed {
				return
			}
			closed = true
			if err := tw.Flush(); err != nil {
				fmt.Fprintf(os.Stderr, "cos-sim: trace: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cos-sim: trace: %v\n", err)
			}
		}
		defer closeTrace()
		if err := tw.WriteHeader(); err != nil {
			fmt.Fprintf(os.Stderr, "cos-sim: %v\n", err)
			closeTrace()
			os.Exit(1)
		}
	}

	// One session per run. Run 0 reproduces the historical single-run
	// behaviour exactly (same link seed, same payload stream); runs r > 0
	// use channel variant r and seeds derived as seed^r.
	session := func(ctx context.Context, run int) (runStats, error) {
		var st runStats
		linkSeed := *seed
		if run > 0 {
			linkSeed = pool.TaskSeed(*seed, run)
		}
		opts := []cos.Option{cos.WithPosition(pos), cos.WithSNR(*snr), cos.WithSeed(linkSeed)}
		if *scenRef != "" {
			opts = append(opts, cos.WithScenario(scen.Name, scen.Params...))
		}
		if run > 0 {
			opts = append(opts, cos.WithChannelVariant(int64(run)))
		}
		if *rate != 0 {
			opts = append(opts, cos.WithFixedRate(*rate))
		}
		if *mobile {
			opts = append(opts, cos.WithMobile())
		}
		if tw != nil && run == 0 {
			opts = append(opts, cos.WithObserver(tw.Observer()))
			if *probeN > 0 {
				opts = append(opts, cos.WithProbe(*probeN))
			}
		}
		link, err := cos.NewLink(opts...)
		if err != nil {
			return st, err
		}
		rng := rand.New(rand.NewSource(linkSeed + 1))
		data := make([]byte, *size)
		for i := 0; i < *packets; i++ {
			if err := ctx.Err(); err != nil {
				return st, err
			}
			rng.Read(data)
			var ctrl []byte
			if *ctrlBits > 0 {
				budget, err := link.MaxControlBits(len(data))
				if err != nil {
					return st, err
				}
				n := *ctrlBits
				if n > budget {
					n = budget
				}
				n = n / 4 * 4
				ctrl = make([]byte, n)
				for j := range ctrl {
					ctrl[j] = byte(rng.Intn(2))
				}
			}
			ex, err := link.Send(data, ctrl)
			if err != nil {
				return st, fmt.Errorf("packet %d: %w", i, err)
			}
			if ex.DataOK {
				st.dataOK++
			}
			if len(ex.ControlSent) > 0 {
				st.ctrlSent++
				if ex.ControlOK {
					st.ctrlOK++
					st.ctrlBitsDelivered += len(ex.ControlSent)
				}
			}
			st.silences += ex.SilencesInserted
			st.fPos += ex.Detection.FalsePositives
			st.fNeg += ex.Detection.FalseNegatives
			st.scanned += ex.Detection.Silences + ex.Detection.Normals
			st.measuredSum += ex.MeasuredSNRdB
			if *verbose {
				fmt.Printf("pkt %3d: mode=%v dataOK=%v ctrlOK=%v silences=%d measured=%.1fdB actual=%.1fdB\n",
					i, ex.Mode, ex.DataOK, ex.ControlOK, ex.SilencesInserted, ex.MeasuredSNRdB, ex.ActualSNRdB)
			}
		}
		st.elapsed = link.Now()
		return st, nil
	}

	perRun := make([]runStats, *runs)
	err = pool.ForEach(ctx, *workers, *runs, *seed, func(run int, _ *rand.Rand) error {
		st, err := session(ctx, run)
		if err != nil {
			return err
		}
		perRun[run] = st
		return nil
	})
	if err != nil {
		closeTrace() // os.Exit skips defers; keep the partial trace readable
		if cli.Interrupted(err) {
			fmt.Fprintln(os.Stderr, "cos-sim: interrupted")
			os.Exit(cli.ExitInterrupted)
		}
		fmt.Fprintf(os.Stderr, "cos-sim: %v\n", err)
		os.Exit(1)
	}

	if tw != nil {
		if err := tw.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "cos-sim: %v\n", err)
			closeTrace()
			os.Exit(1)
		}
	}

	var total runStats
	for _, st := range perRun {
		total.add(st)
	}
	totalPkts := *packets * *runs
	fmt.Printf("position=%v snr=%.1fdB packets=%d size=%dB mobile=%v interference=%v",
		pos, *snr, *packets, *size, *mobile, *intf)
	if *runs > 1 {
		fmt.Printf(" runs=%d", *runs)
	}
	fmt.Println()
	if *runs > 1 {
		for r, st := range perRun {
			fmt.Printf("run %2d: data PRR %.4f  control %d/%d  silences %d\n",
				r, float64(st.dataOK)/float64(*packets), st.ctrlOK, st.ctrlSent, st.silences)
		}
	}
	fmt.Printf("data PRR:              %.4f (%d/%d)\n", float64(total.dataOK)/float64(totalPkts), total.dataOK, totalPkts)
	if total.ctrlSent > 0 {
		fmt.Printf("control delivery rate: %.4f (%d/%d)\n", float64(total.ctrlOK)/float64(total.ctrlSent), total.ctrlOK, total.ctrlSent)
		fmt.Printf("control throughput:    %.0f bit/s of free control messages\n", float64(total.ctrlBitsDelivered)/total.elapsed)
		fmt.Printf("silence symbols:       %d total (%.1f/packet)\n", total.silences, float64(total.silences)/float64(total.ctrlSent))
		if total.scanned > 0 {
			fmt.Printf("detector errors:       %d false positives, %d false negatives over %d positions\n", total.fPos, total.fNeg, total.scanned)
		}
	}
	fmt.Printf("mean measured SNR:     %.1f dB\n", total.measuredSum/float64(totalPkts))
}
