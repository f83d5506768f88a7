// Package cli collects the boot plumbing the simulating cos binaries
// share: the SIGINT/SIGTERM cancellation context and the optional obs HTTP
// listener plus periodic stats line behind the -metrics-addr/-stats flag
// pair. Centralizing it keeps their signal and observability behaviour
// identical instead of drifting copy by copy.
//
// Typical use:
//
//	addr, stats := cli.ObsFlags(flag.CommandLine)
//	flag.Parse()
//	app, err := cli.Boot(*addr, *stats, os.Stderr)
//	if err != nil { ... }
//	defer app.Close()
//	... use app.Context() ...
//	if cli.Interrupted(err) { os.Exit(cli.ExitInterrupted) }
package cli

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cos/internal/obs"
	"cos/internal/obs/obshttp"
)

// ExitInterrupted is the conventional exit status for a run cut short by
// SIGINT/SIGTERM (128 + SIGINT).
const ExitInterrupted = 130

// ObsFlags registers the observability flag pair every binary exposes and
// returns pointers to their values; call before fs is parsed.
func ObsFlags(fs *flag.FlagSet) (metricsAddr *string, statsEvery *time.Duration) {
	metricsAddr = fs.String("metrics-addr", "",
		"serve /metrics, /debug/vars and /debug/pprof/ on this address (e.g. :8080)")
	statsEvery = fs.Duration("stats", 0,
		"print a metrics stats line to stderr at this interval (0 = off)")
	return metricsAddr, statsEvery
}

// App is one binary's booted runtime: a signal-cancelled context plus the
// obs listener/stats logger, torn down together by Close.
type App struct {
	ctx         context.Context
	stopSig     context.CancelFunc
	stopObs     func()
	stopRuntime func()
}

// Boot installs SIGINT/SIGTERM cancellation and, when metricsAddr or
// statsEvery are set, starts the obs HTTP listener and stats logger on the
// default registry (logging the bound address to logw so ":0" is
// discoverable), plus the runtime self-metrics sampler (goroutines, heap,
// GC pauses) so every scraping or stats-printing daemon reports its own
// health alongside job metrics.
func Boot(metricsAddr string, statsEvery time.Duration, logw io.Writer) (*App, error) {
	stopObs, err := obshttp.Expose(metricsAddr, statsEvery, logw)
	if err != nil {
		return nil, err
	}
	var stopRuntime func()
	if metricsAddr != "" || statsEvery > 0 {
		stopRuntime = obs.StartRuntimeMetrics(obs.Default(), 0)
	}
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return &App{ctx: ctx, stopSig: stopSig, stopObs: stopObs, stopRuntime: stopRuntime}, nil
}

// Context returns the context cancelled by SIGINT/SIGTERM.
func (a *App) Context() context.Context { return a.ctx }

// Close restores signal handling and shuts the obs listener down. Safe to
// call more than once.
func (a *App) Close() {
	if a.stopSig != nil {
		a.stopSig()
		a.stopSig = nil
	}
	if a.stopRuntime != nil {
		a.stopRuntime()
		a.stopRuntime = nil
	}
	if a.stopObs != nil {
		a.stopObs()
		a.stopObs = nil
	}
}

// Interrupted reports whether err is the context cancellation a signal
// produces, i.e. the run should exit with ExitInterrupted.
func Interrupted(err error) bool { return errors.Is(err, context.Canceled) }
