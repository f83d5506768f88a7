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
	// It is threaded into every figure configuration verbatim.
	Scenario string
	// Exec, when non-nil, runs the figure's point-tasks (see Tasks)
	// instead of the in-process pool — the fleet coordinator plugs in here
	// to fan tasks out across cos-serve backends. Results are
	// byte-identical either way. Not comparable/serializable: excluded
	// from any notion of run identity.
	Exec Executor
}

// registry maps every experiment ID to its TaskSet constructor. The same
// opts always yield the same decomposition (task count and per-task
// behavior), on every host, so a backend that rebuilds a figure's TaskSet
// from a spec runs exactly the tasks the local pool would.
var registry = map[string]func(RunOptions) TaskSet{
	"fig2": func(o RunOptions) TaskSet {
		cfg := Fig2Config{Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.Variants = 2
			cfg.Step = 2
		}
		return fig2Tasks(cfg)
	},
	"fig3": func(o RunOptions) TaskSet {
		return fig3Tasks(Fig3Config{Scale: o.Scale, Scenario: o.Scenario})
	},
	"fig5": func(o RunOptions) TaskSet {
		return fig5Tasks(Fig5Config{Scale: o.Scale, Scenario: o.Scenario})
	},
	"fig6": func(o RunOptions) TaskSet {
		return fig6Tasks(Fig6Config{Scale: o.Scale, Scenario: o.Scenario})
	},
	"fig7": func(o RunOptions) TaskSet {
		return fig7Tasks(Fig7Config{Scale: o.Scale, Scenario: o.Scenario})
	},
	"fig9": func(o RunOptions) TaskSet {
		cfg := Fig9Config{Scale: o.Scale, Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.PointsPerMode = 2
		}
		return fig9Tasks(cfg)
	},
	"fig10a": func(o RunOptions) TaskSet {
		return fig10aTasks(Fig10aConfig{Seed: o.Seed, Scenario: o.Scenario})
	},
	"fig10b": func(o RunOptions) TaskSet {
		cfg := Fig10bConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.Points = 13
		}
		return fig10bTasks(cfg)
	},
	"fig10c": func(o RunOptions) TaskSet {
		return fig10cTasks(Fig10cConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario})
	},
	"fig10d": func(o RunOptions) TaskSet {
		cfg := Fig10cConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario}
		if o.Scale < 1 {
			cfg.SNRs = []float64{4, 8, 12, 16, 20}
		}
		return fig10dTasks(cfg)
	},
	"ablation-evd":          ablationTasks(ablationEVDTasks),
	"ablation-placement":    ablationTasks(ablationPlacementTasks),
	"ablation-threshold":    ablationTasks(ablationThresholdTasks),
	"ablation-quantization": ablationTasks(ablationQuantizationTasks),
	"accuracy":              ablationTasks(controlAccuracyTasks),
}

// ablationTasks adapts an AblationConfig-driven constructor to the registry.
func ablationTasks(mk func(AblationConfig) TaskSet) func(RunOptions) TaskSet {
	return func(o RunOptions) TaskSet {
		return mk(AblationConfig{Scale: o.Scale, Seed: o.Seed, Scenario: o.Scenario})
	}
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

// Tasks returns figure id's point-task decomposition under opts, or false
// when no figure is registered under id.
func Tasks(id string, opts RunOptions) (TaskSet, bool) {
	mk, ok := registry[id]
	if !ok {
		return nil, false
	}
	return mk(opts), true
}

// Run executes the experiment with the given ID under opts: its TaskSet
// runs on the in-process pool, or through opts.Exec when set. It is the
// context-aware entry point cmd/cos-figures and the benchmarks share.
// Output depends only on opts, never on opts.Workers or scheduling.
func Run(ctx context.Context, id string, opts RunOptions) (*Result, error) {
	ts, ok := Tasks(id, opts)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return runTasks(ctx, id, opts, ts)
}
