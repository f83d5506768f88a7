package experiments

import (
	"context"
	"fmt"
	"sort"
)

// RunOptions configures one experiment run. The zero value selects the
// publication-quality scale, one worker per CPU, and the canonical seed.
type RunOptions struct {
	// Scale shrinks sample sizes (1 = publication quality; smaller values
	// shrink packet counts and sweep resolutions proportionally). Zero or
	// negative selects 1.
	Scale float64
	// Workers bounds the goroutines the point-task pool uses; zero or
	// negative selects runtime.GOMAXPROCS(0). Results are bit-identical
	// for every worker count (per-task RNGs are derived as seed^taskIndex
	// and reassembled in index order — see internal/pool).
	Workers int
	// Seed drives all randomness; zero selects 1.
	Seed int64
	// Scenario is an optional scenario reference ("" = the default world).
	// Every figure draws its channels from it verbatim.
	Scenario string
	// Exec, when non-nil, runs the figure's point-tasks (see Tasks)
	// instead of the in-process pool — the fleet coordinator plugs in here
	// to fan tasks out across cos-serve backends. Results are
	// byte-identical either way. Not comparable/serializable: excluded
	// from any notion of run identity.
	Exec Executor
}

// normalized applies the zero-value defaults documented on RunOptions:
// Scale <= 0 selects 1 and Seed 0 selects 1. Tasks and Run decompose only
// normalized options, so the local pool, an Executor and a fleet backend
// rebuilding the TaskSet from a spec all see the same scale and seed.
func (o RunOptions) normalized() RunOptions {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// registry maps every experiment ID to its TaskSet constructor. The same
// normalized opts always yield the same decomposition (task count and
// per-task behavior), on every host, so a backend that rebuilds a figure's
// TaskSet from a spec runs exactly the tasks the local pool would.
var registry = map[string]func(RunOptions) TaskSet{
	"fig2":                  fig2Tasks,
	"fig3":                  fig3Tasks,
	"fig5":                  fig5Tasks,
	"fig6":                  fig6Tasks,
	"fig7":                  fig7Tasks,
	"fig9":                  fig9Tasks,
	"fig10a":                fig10aTasks,
	"fig10b":                fig10bTasks,
	"fig10c":                fig10cTasks,
	"fig10d":                fig10dTasks,
	"ablation-evd":          ablationEVDTasks,
	"ablation-placement":    ablationPlacementTasks,
	"ablation-threshold":    ablationThresholdTasks,
	"ablation-quantization": ablationQuantizationTasks,
	"accuracy":              controlAccuracyTasks,
}

// IDs lists all experiment identifiers in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Tasks returns figure id's point-task decomposition under opts (after
// normalization), or false when no figure is registered under id.
func Tasks(id string, opts RunOptions) (TaskSet, bool) {
	mk, ok := registry[id]
	if !ok {
		return nil, false
	}
	return mk(opts.normalized()), true
}

// Run executes the experiment with the given ID under opts: its TaskSet
// runs on the in-process pool, or through opts.Exec when set. It is the
// context-aware entry point cmd/cos-figures and the benchmarks share.
// Output depends only on opts, never on opts.Workers or scheduling.
func Run(ctx context.Context, id string, opts RunOptions) (*Result, error) {
	opts = opts.normalized()
	ts, ok := Tasks(id, opts)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return runTasks(ctx, id, opts, ts)
}
