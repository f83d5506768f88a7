// Command cos-figures regenerates the data behind every figure of the CoS
// paper's evaluation (Figs. 2, 3, 5, 6, 7, 9, 10a-d) plus this repository's
// ablations, printing long-format CSV.
//
// Usage:
//
//	cos-figures -list
//	cos-figures -list-scenarios
//	cos-figures -fig fig9 [-scale 0.2]
//	cos-figures -fig all -scale 0.1 -out results/
//	cos-figures -fig all -workers 8 -metrics-addr :8080 -stats 10s
//	cos-figures -fig fig3 -scenario hybrid-bscpec
//	cos-figures -fig all -fleet http://host1:8080,http://host2:8080
//
// Scale 1 (default) is the publication-quality run; smaller scales shrink
// packet counts proportionally for quick looks. Figures decompose into
// point-tasks that run across -workers goroutines (default: all CPUs) with
// bit-identical output at any worker count; ctrl-C cancels a run mid-sweep.
//
// -fleet fans the same point-tasks out across a set of cos-serve daemons
// instead of local goroutines: the coordinator health-gates dispatch,
// retries transient refusals with backoff, fails tasks over from dead
// hosts, and assembles results in task order — the CSV is byte-identical
// to a local run regardless of fleet size or which host ran what.
//
// Long runs are worth watching live: -metrics-addr serves /metrics and
// /debug/pprof/, and -stats prints a periodic pipeline stats line to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"cos/internal/cli"
	"cos/internal/experiments"
	"cos/internal/fleet"
	"cos/internal/scenario"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "experiment ID (see -list) or 'all'")
		scale      = flag.Float64("scale", 1, "sample-size scale; 1 = publication quality")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for point-tasks (results identical for any count)")
		seed       = flag.Int64("seed", 1, "experiment seed")
		out        = flag.String("out", "", "directory for per-figure CSV files (default: stdout)")
		plot       = flag.Bool("plot", false, "render an ASCII chart instead of CSV (stdout only)")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		fleetHosts = flag.String("fleet", "", "comma-separated cos-serve base URLs to fan point-tasks out to (default: run in-process)")
	)
	scen, listScen := cli.ScenarioFlags(flag.CommandLine)
	obsAddr, obsStats := cli.ObsFlags(flag.CommandLine)
	flag.Parse()

	app, err := cli.Boot(*obsAddr, *obsStats, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cos-figures: %v\n", err)
		os.Exit(1)
	}
	defer app.Close()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *listScen {
		fmt.Print(scenario.FormatList())
		return
	}

	// Ctrl-C (or SIGTERM) cancels the context; the point-task pool drains
	// and the run exits mid-sweep instead of finishing the figure.
	ctx := app.Context()

	// In-process by default; with -fleet, the same figures run through the
	// coordinator and come back byte-identical.
	runFigure := func(ctx context.Context, id string, opts experiments.RunOptions) (*experiments.Result, error) {
		return experiments.Run(ctx, id, opts)
	}
	if *fleetHosts != "" {
		var backends []fleet.Backend
		for _, h := range strings.Split(*fleetHosts, ",") {
			if h = strings.TrimSpace(h); h != "" {
				backends = append(backends, fleet.Host(h))
			}
		}
		if len(backends) == 0 {
			fmt.Fprintln(os.Stderr, "cos-figures: -fleet needs at least one cos-serve URL")
			os.Exit(2)
		}
		coord := fleet.New(fleet.Config{Backends: backends, Seed: *seed})
		defer coord.Close()
		runFigure = coord.RunFigure
	}

	opts := experiments.RunOptions{Scale: *scale, Workers: *workers, Seed: *seed, Scenario: *scen}
	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		res, err := runFigure(ctx, id, opts)
		if err != nil {
			if cli.Interrupted(err) {
				fmt.Fprintf(os.Stderr, "cos-figures: %s: interrupted\n", id)
				os.Exit(cli.ExitInterrupted)
			}
			fmt.Fprintf(os.Stderr, "cos-figures: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *out == "" {
			if *plot {
				if err := res.WritePlot(os.Stdout, 72, 20); err != nil {
					fmt.Fprintf(os.Stderr, "cos-figures: %v\n", err)
					os.Exit(1)
				}
			} else if err := res.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "cos-figures: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "cos-figures: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*out, id+".csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cos-figures: %v\n", err)
			os.Exit(1)
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "cos-figures: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cos-figures: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
