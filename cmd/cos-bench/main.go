package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one entry of the metric catalogue. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two equal.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is what a user of each workload sees. Every workload reports
// every one of them; doc.go says what "op" is per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p25_ms", "ms", "lower", 0.25},
}

// perLayer is what a traced run reports, grouped by the layer that owns
// each metric. Every traced run reports all of them (see runChild).
var perLayer = []metricDef{
	// kernels: a traced-only phase on seeded inputs.
	{"coding.viterbi_1kb_us", "us", "lower", 0},
	{"coding.viterbi_ns_per_state_step", "ns", "lower", 0},
	{"phy.tx_chain_1kb_us", "us", "lower", 0},
	{"phy.rx_chain_1kb_us", "us", "lower", 0},
	{"dsp.fft64_ns", "ns", "lower", 0},
	{"modulation.softdemap64_ns", "ns", "lower", 0},
	{"channel.tdl_apply_us", "us", "lower", 0},
	// cos: Link.Send and its stages (link-1k).
	{"cos.stage.tx_encode_us", "us", "lower", 0},
	{"cos.stage.channel_us", "us", "lower", 0},
	{"cos.stage.rx_frontend_us", "us", "lower", 0},
	{"cos.stage.detect_us", "us", "lower", 0},
	{"cos.stage.control_decode_us", "us", "lower", 0},
	{"cos.stage.evd_decode_us", "us", "lower", 0},
	{"cos.stage.feedback_us", "us", "lower", 0},
	{"cos.send_self_us", "us", "lower", 0},
	{"cos.allocs_per_exchange", "count", "lower", 0},
	{"cos.bytes_per_exchange", "B", "lower", 0},
	{"cos.silences_per_exchange", "count", "higher", 0},
	{"cos.control_bits_per_exchange", "count", "higher", 0},
	{"cos.data_ok_rate", "fraction", "higher", 0},
	{"cos.control_ok_rate", "fraction", "higher", 0},
	{"bench.trace_overhead_frac", "fraction", "lower", 0},
	// serve and store: the daemon's compute path (serve-cold).
	{"serve.submit_us", "us", "lower", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	{"serve.queue_wait_ms_p95", "ms", "lower", 0},
	{"serve.shard_busy_frac", "fraction", "lower", 0},
	{"serve.run_ms.link", "ms", "lower", 0},
	{"serve.run_ms.stream", "ms", "lower", 0},
	{"serve.run_ms.wlan", "ms", "lower", 0},
	{"serve.run_ms.figure_task", "ms", "lower", 0},
	{"serve.rejected_frac", "fraction", "lower", 0},
	{"store.bytes_per_job", "B", "lower", 0},
	{"bench.gen_late_p90_ms", "ms", "lower", 0},
	// cache and http: the read side (serve-warm).
	{"cache.hit_ratio", "fraction", "higher", 0},
	{"serve.result_bytes_per_job", "B", "lower", 0},
	{"http.submit_us", "us", "lower", 0},
	{"http.result_us", "us", "lower", 0},
	{"http.conns_opened", "count", "lower", 0},
	// fleet and experiments: the figure path (figures).
	{"fleet.figure_s", "s", "lower", 0},
	{"experiments.figure_local_s", "s", "lower", 0},
	{"fleet.backend_run_ms", "ms", "lower", 0},
	{"fleet.dispatch_overhead_ms", "ms", "lower", 0},
	{"fleet.backend_busy_frac_min", "fraction", "higher", 0},
	{"fleet.tail_idle_s", "s", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.failovers", "count", "lower", 0},
	{"fleet.repeat_hit_ratio", "fraction", "higher", 0},
	// runtime: the measured window of the workload the run is named for.
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	reps     int
	workdir  string
	spans    string
	child    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cos-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed every workload input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long each workload measures")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced: per-layer metrics instead of end-to-end ones, spans written to -spans")
	fs.IntVar(&o.reps, "reps", 1, "fresh-process repetitions of each workload; more than one prints median and IQR per metric")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch data and span files")
	fs.StringVar(&o.spans, "spans", "", "span file of a traced run (default <workdir>/spans-<workload>-<seed>.ndjson)")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (used by the parent process)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.reps < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "cos-bench: want -seconds > 0, -reps >= 1, -trace 0|1 and no positional arguments")
		return 2
	}
	if o.workload != "all" && findWorkload(o.workload) == nil {
		fmt.Fprintf(stderr, "cos-bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "cos-bench: %v\n", err)
		return 1
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	return runParent(o, stdout, stderr)
}

// result is the last line of every run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runParent runs each requested workload in its own child process, so peak
// RSS and GC state belong to one workload, and relays the children's
// output.
func runParent(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cos-bench: %v\n", err)
		return 1
	}
	names := workloadNames()
	if o.workload != "all" {
		names = []string{o.workload}
	}
	fmt.Fprintf(stdout, "# cos-bench seed=%d seconds=%g trace=%d reps=%d nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		o.seed, o.seconds, o.trace, o.reps, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	results := map[string][]result{}
	exit := 0
	for rep := 0; rep < o.reps; rep++ {
		for _, name := range names {
			res, err := runOneChild(self, name, o, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "cos-bench: %s rep %d: %v\n", name, rep+1, err)
				exit = 1
			}
			if res != nil {
				results[name] = append(results[name], *res)
			}
		}
	}
	if len(names) == 1 && o.reps == 1 {
		res := results[names[0]]
		if len(res) == 0 {
			return 1
		}
		line, _ := json.Marshal(res[0])
		fmt.Fprintln(stdout, string(line))
		return exit
	}
	agg := aggregate(names, results, stdout)
	line, _ := json.Marshal(agg)
	fmt.Fprintln(stdout, string(line))
	if !agg.Correct {
		exit = 1
	}
	return exit
}

// runOneChild starts one child, relays every line of its standard output
// but the last, and parses the last as its result.
func runOneChild(self, name string, o options, stdout, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
		"-workdir", o.workdir}
	if o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	var res result
	if jerr := json.Unmarshal([]byte(last), &res); jerr != nil {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		return nil, fmt.Errorf("no result line (exit: %v, read: %v)", waitErr, scanErr)
	}
	if waitErr != nil {
		return &res, fmt.Errorf("child: %w", waitErr)
	}
	return &res, scanErr
}

// aggregate prints median and spread per workload and metric over the
// repetitions, and folds them into one result keyed "<workload>.<metric>".
func aggregate(names []string, results map[string][]result, stdout io.Writer) result {
	agg := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		rs := results[name]
		if len(rs) == 0 {
			agg.Correct = false
			continue
		}
		values := map[string][]float64{}
		units := map[string]string{}
		for _, r := range rs {
			agg.Correct = agg.Correct && r.Correct
			agg.Attempted += r.Attempted
			agg.Failed += r.Failed
			for k, v := range r.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			xs := values[k]
			med := median(xs)
			line := fmt.Sprintf("%s %s median %.6g %s over %d runs", name, k, med, units[k], len(xs))
			if len(xs) >= 2 {
				line += fmt.Sprintf(", IQR/median %.4f", spread(xs))
			}
			fmt.Fprintln(stdout, line)
			agg.Metrics[name+"."+k] = metricValue{Value: med, Unit: units[k]}
		}
	}
	return agg
}

// runChild runs one workload in this process and prints its result.
func runChild(o options, stdout, stderr io.Writer) int {
	w := findWorkload(o.workload)
	if w == nil {
		fmt.Fprintf(stderr, "cos-bench: -child needs one workload, got %q\n", o.workload)
		return 2
	}
	measure := time.Duration(o.seconds * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), measure+140*time.Second)
	defer cancel()

	scratch, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "cos-bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	e := &env{seed: o.seed, seconds: measure, full: true, dir: scratch, tr: tr, log: stdout}
	out, err := w.run(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "cos-bench: %s: %v\n", w.name, err)
		return 1
	}

	catalogue, metrics := endToEnd, map[string]float64{
		"setup_s":        median(out.setupS),
		"peak_rss_mb":    peakRSSMB(),
		"ops_per_s":      out.opsPerS,
		"latency_p25_ms": lowerQuartile(out.latencyMS),
	}
	if tr != nil {
		catalogue = perLayer
		if metrics, err = traceLayers(ctx, o, w, out, tr, scratch); err != nil {
			fmt.Fprintf(stderr, "cos-bench: %v\n", err)
			return 1
		}
		path := o.spans
		if path == "" {
			path = filepath.Join(o.workdir, fmt.Sprintf("spans-%s-%d.ndjson", w.name, o.seed))
		}
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "cos-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s spans %d written to %s\n", w.name, tr.count(), path)
	}

	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	var missing []string
	for _, m := range catalogue {
		v, ok := metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", w.name, m.name, v, m.unit)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "cos-bench: %s: check failed: %s\n", w.name, p)
	}
	if out.attempted < 1 {
		fmt.Fprintf(stderr, "cos-bench: %s attempted nothing\n", w.name)
		return 1
	}
	if len(missing) > 0 {
		// A metric the catalogue promises but the run could not measure
		// (e.g. a percentile refused for want of samples) is a failed run,
		// never a silently shorter result line.
		fmt.Fprintf(stderr, "cos-bench: %s could not measure %s\n", w.name, strings.Join(missing, ", "))
		return 1
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// traceLayers completes a traced run of w: it keeps the per-layer metrics
// w measured for the layers it drives, runs every other workload at smoke
// size so the layers w does not drive report too, and times the kernels.
// Their operations and failed checks are added to out.
func traceLayers(ctx context.Context, o options, w *workload, out *outcome, tr *tracer, scratch string) (map[string]float64, error) {
	metrics := map[string]float64{}
	for k, v := range out.layer {
		metrics[k] = v
	}
	for _, other := range workloads {
		if other.name == w.name {
			continue
		}
		pe := &env{seed: o.seed, seconds: smokeSeconds, dir: filepath.Join(scratch, "layers-"+other.name), tr: tr, log: io.Discard}
		po, err := other.run(ctx, pe)
		if err != nil {
			return nil, fmt.Errorf("layer pass %s: %w", other.name, err)
		}
		out.attempted += po.attempted
		out.failed += po.failed
		out.problems = append(out.problems, po.problems...)
		for k, v := range po.layer {
			if _, own := metrics[k]; !own {
				metrics[k] = v
			}
		}
	}
	km, err := runKernels(ctx, o.seed, tr, out)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	for k, v := range km {
		metrics[k] = v
	}
	return metrics, nil
}

// commit names the source revision the binary was built from, when the
// build could see one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
