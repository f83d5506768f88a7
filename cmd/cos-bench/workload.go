package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"
)

// workload is one traffic mix: it sets itself up (several times, so
// set-up time is a median), measures for env.seconds, checks every output
// it gets back, and reports what it measured.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, e *env) (*outcome, error)
}

// workloads is the benchmark's set, in the order a full run takes them.
// BENCHMARK.json lists the same names; each why is repeated there.
var workloads = []workload{
	{"link-1k", "library path: closed-loop cos.Link exchanges of 1 KB at 20 dB; the Viterbi/EVD kernel does most of the work", runLink1K},
	{"serve-cold", "daemon compute path: open-loop Poisson then closed-loop distinct jobs; every submission misses the cache", runServeCold},
	{"serve-warm", "daemon read path: HTTP resubmissions of 64 prefilled specs; cache hits only, zero simulation", runServeWarm},
	{"figures", "researcher path: fig3 regenerated locally and over a 2-backend HTTP fleet, outputs compared byte for byte", runFigures},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// smokeSeconds is how long a workload measures at smoke size: in the
// tests, and when a traced run passes through the layers its own workload
// does not drive.
const smokeSeconds = time.Second

// env is what a workload run is given.
type env struct {
	seed    int64
	seconds time.Duration
	// full selects the documented workload size; false selects smoke size
	// (fewer set-ups, smaller jobs, shorter phases), which keeps every
	// check and every per-layer metric but not the end-to-end numbers'
	// meaning.
	full bool
	// load scales the open-loop arrival rate. 1 everywhere but in tests
	// built with the race detector, whose slowdown would otherwise turn
	// the open loop into an overload.
	load float64
	dir  string
	tr   *tracer
	log  io.Writer
}

func (e *env) setupReps() int {
	if e.full {
		return 3
	}
	return 1
}

func (e *env) loadFactor() float64 {
	if e.load <= 0 {
		return 1
	}
	return e.load
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int
	// problems describes the first few failed operations and checks.
	problems []string
	// setupS holds each set-up's duration in seconds.
	setupS []float64
	// opsPerS and latencyMS are the end-to-end numbers: closed-loop
	// operations per second and the latency of each operation.
	opsPerS   float64
	latencyMS []float64
	// layer holds the per-layer metrics of the layers the workload drives,
	// filled only when traced.
	layer map[string]float64
}

func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// fail counts one failed operation or check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runtimeWindow measures the Go runtime over a workload's measured window.
type runtimeWindow struct{ start runtime.MemStats }

func beginRuntime() *runtimeWindow {
	w := &runtimeWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// end records the window's GC cycles, GC pause and allocations per op.
func (w *runtimeWindow) end(o *outcome, ops int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	o.layer["runtime.gc_cycles"] = float64(now.NumGC - w.start.NumGC)
	o.layer["runtime.gc_pause_ms"] = float64(now.PauseTotalNs-w.start.PauseTotalNs) / 1e6
	if ops > 0 {
		o.layer["runtime.allocs_per_op"] = float64(now.Mallocs-w.start.Mallocs) / float64(ops)
	}
}

// sleepUntil waits for t or for ctx to end.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func printf(e *env, format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }
