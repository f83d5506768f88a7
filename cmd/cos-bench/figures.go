package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"cos/internal/experiments"
	"cos/internal/fleet"
	"cos/internal/obs/event"
	"cos/internal/serve"
	servehttp "cos/internal/serve/http"
)

// figures: fig3 regenerated locally with experiments.Run and across a fleet
// of two cos-serve backends (one shard and one cache each, over loopback
// HTTP), alternating which goes first; then seed 1 again through the
// fleet.
const (
	figureScale     = 0.5
	tinyFigureRunSc = 0.05
	figureWorkers   = 2
	figureBackends  = 2
	// figureSeedTime is the share of the run each seed is given: a local
	// and a fleet regeneration take about 5.5 s together on a 2-CPU host,
	// so a 20 s run regenerates 3 seeds (plus the repeat).
	figureSeedTime = 6 * time.Second
)

// timedBackend wraps a fleet backend and records every Run: the benchmark
// sees dispatch from the coordinator's side without reaching into it.
type timedBackend struct {
	fleet.Backend
	d  *daemon
	tr *tracer

	mu     sync.Mutex
	parent int64
	runs   []backendRun
}

type backendRun struct {
	backend    string
	start, end time.Time
	// server is the job's SubmittedAt-to-FinishedAt on the backend.
	server time.Duration
}

func (b *timedBackend) Run(ctx context.Context, spec serve.Spec) ([]byte, error) {
	b.mu.Lock()
	parent := b.parent
	b.mu.Unlock()
	id := b.tr.id()
	t0 := time.Now()
	body, err := b.Backend.Run(ctx, spec)
	t1 := time.Now()
	if err != nil {
		return body, err
	}
	r := backendRun{backend: b.Name(), start: t0, end: t1}
	if j, jerr := b.d.srv.JobByDigest(spec.Digest()); jerr == nil {
		st := j.Status()
		if st.FinishedAt != nil {
			r.server = st.FinishedAt.Sub(st.SubmittedAt)
			b.tr.record(0, id, "serve.job", st.ID, st.SubmittedAt, *st.FinishedAt)
		}
	}
	b.tr.record(id, parent, "fleet.backend_run", spec.Digest()[:12], t0, t1)
	b.mu.Lock()
	b.runs = append(b.runs, r)
	b.mu.Unlock()
	return body, nil
}

func (b *timedBackend) setParent(id int64) {
	b.mu.Lock()
	b.parent = id
	b.mu.Unlock()
}

func (b *timedBackend) takeRuns() []backendRun {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.runs
	b.runs = nil
	return r
}

// figureFleet is the figure workload's fixture: the backends' daemons,
// their HTTP fronts, and the coordinator over them.
type figureFleet struct {
	daemons  []*daemon
	servers  []*httptest.Server
	backends []*timedBackend
	journal  *event.Journal
	coord    *fleet.Coordinator
}

func newFigureFleet(dir string) (*figureFleet, error) {
	f := &figureFleet{journal: event.New(4096)}
	var bs []fleet.Backend
	for i := 0; i < figureBackends; i++ {
		d, err := openDaemon(filepath.Join(dir, fmt.Sprintf("backend-%d", i)), 1)
		if err != nil {
			f.close()
			return nil, err
		}
		s := httptest.NewServer(servehttp.NewHandler(d.srv))
		b := &timedBackend{Backend: fleet.Host(s.URL), d: d}
		f.daemons, f.servers, f.backends = append(f.daemons, d), append(f.servers, s), append(f.backends, b)
		bs = append(bs, b)
	}
	f.coord = fleet.New(fleet.Config{Backends: bs, Journal: f.journal})
	return f, nil
}

func (f *figureFleet) close() error {
	if f.coord != nil {
		f.coord.Close()
	}
	var first error
	for i := range f.daemons {
		f.servers[i].Close()
		if err := f.daemons[i].close(); err != nil && first == nil {
			first = err
		}
	}
	f.journal.Close()
	return first
}

func (f *figureFleet) setParent(id int64) {
	for _, b := range f.backends {
		b.setParent(id)
	}
}

// cacheHits totals the backends' cache hits so far.
func (f *figureFleet) cacheHits() uint64 {
	var n uint64
	for _, d := range f.daemons {
		n += d.cache.Stats().Hits
	}
	return n
}

// render is the figure as a researcher sees it: CSV, plot and notes.
func render(r *experiments.Result) ([]byte, error) {
	var b bytes.Buffer
	if err := r.WriteCSV(&b); err != nil {
		return nil, err
	}
	if err := r.WritePlot(&b, 72, 20); err != nil {
		return nil, err
	}
	b.WriteString(r.Title + "\n" + r.XLabel + "\n" + r.YLabel + "\n" + strings.Join(r.Notes, "\n"))
	return b.Bytes(), nil
}

// figureRun is one regeneration of the figure.
type figureRun struct {
	fleet      bool
	start, end time.Time
	dur        time.Duration
	out        []byte
	runs       []backendRun
}

func (f *figureFleet) regenerate(ctx context.Context, tr *tracer, viaFleet bool, opts experiments.RunOptions) (figureRun, error) {
	fr := figureRun{fleet: viaFleet}
	id := tr.id()
	name := "experiments.run"
	f.setParent(id)
	t0 := time.Now()
	var res *experiments.Result
	var err error
	if viaFleet {
		name = "fleet.figure"
		res, err = f.coord.RunFigure(ctx, figureID, opts)
	} else {
		res, err = experiments.Run(ctx, figureID, opts)
	}
	t1 := time.Now()
	if err != nil {
		return fr, fmt.Errorf("%s seed %d: %w", name, opts.Seed, err)
	}
	tr.record(id, 0, name, fmt.Sprintf("seed%d", opts.Seed), t0, t1)
	fr.start, fr.end, fr.dur = t0, t1, t1.Sub(t0)
	for _, b := range f.backends {
		fr.runs = append(fr.runs, b.takeRuns()...)
	}
	fr.out, err = render(res)
	return fr, err
}

func runFigures(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	scale := figureScale
	if !e.full {
		scale = tinyFigureRunSc
	}
	warmOpts := experiments.RunOptions{Scale: tinyFigureScale, Seed: derive(e.seed, streamFigureSeeds, 1<<40), Workers: figureWorkers}

	// Set-up: start the backends and the coordinator, then regenerate a
	// tiny figure both ways so connections, pools and lazy tables exist.
	var f *figureFleet
	for r := 0; r < e.setupReps(); r++ {
		t0 := time.Now()
		var err error
		if f, err = newFigureFleet(filepath.Join(e.dir, fmt.Sprintf("figures-%d", r))); err != nil {
			return nil, err
		}
		for _, viaFleet := range []bool{false, true} {
			if _, err := f.regenerate(ctx, nil, viaFleet, warmOpts); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		if r < e.setupReps()-1 {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
	}
	defer f.close()
	for _, b := range f.backends {
		b.tr = e.tr
	}
	evBefore := f.journal.LastSeq()

	rt := beginRuntime()
	var runs []figureRun
	var firstFleet []byte
	// The seed count follows from the run length, not from how fast the
	// figures go, so every run of a given length regenerates the same
	// figures.
	seeds := max(1, int(e.seconds/figureSeedTime))
	for i := 0; i < seeds; i++ {
		opts := experiments.RunOptions{Scale: scale, Seed: derive(e.seed, streamFigureSeeds, uint64(i)), Workers: figureWorkers}
		var pair [2]figureRun
		for k := 0; k < 2; k++ {
			viaFleet := (k+i)%2 == 1 // seed i alternates which path goes first
			fr, err := f.regenerate(ctx, e.tr, viaFleet, opts)
			if err != nil {
				return nil, err
			}
			o.attempted++
			runs = append(runs, fr)
			pair[k] = fr
			if viaFleet && i == 0 {
				firstFleet = fr.out
			}
		}
		if !bytes.Equal(pair[0].out, pair[1].out) {
			o.fail("seed %d: fleet output differs from the local output", opts.Seed)
		}
	}
	// The repeat: seed 1 again through the fleet.
	hitsBefore := f.cacheHits()
	opts := experiments.RunOptions{Scale: scale, Seed: derive(e.seed, streamFigureSeeds, 0), Workers: figureWorkers}
	repeat, err := f.regenerate(ctx, e.tr, true, opts)
	if err != nil {
		return nil, err
	}
	o.attempted++
	if !bytes.Equal(repeat.out, firstFleet) {
		o.fail("repeat of seed %d differs from its first fleet pass", opts.Seed)
	}
	repeatHits := f.cacheHits() - hitsBefore

	var all, rates, local, viaFleet []float64
	for _, r := range runs {
		all = append(all, ms(r.dur))
		rates = append(rates, 1/r.dur.Seconds())
		if r.fleet {
			viaFleet = append(viaFleet, r.dur.Seconds())
		} else {
			local = append(local, r.dur.Seconds())
		}
	}
	o.opsPerS = upperQuartile(rates)
	o.latencyMS = all
	printf(e, "figures %s scale %g: %d regenerations, figure_s %.4f (fleet), figure_local_s %.4f (local), repeat %.4fs",
		figureID, scale, len(runs), median(viaFleet), median(local), repeat.dur.Seconds())
	if e.tr == nil {
		return o, nil
	}

	rt.end(o, len(runs))
	var runMS, overheadMS, busyMin, tailIdle []float64
	for _, r := range runs {
		if !r.fleet {
			continue
		}
		busy := map[string]time.Duration{}
		idleFrom := map[string]time.Time{}
		for _, b := range f.backends {
			idleFrom[b.Name()] = r.start // a backend that ran nothing idled throughout
		}
		for _, br := range r.runs {
			runMS = append(runMS, ms(br.end.Sub(br.start)))
			overheadMS = append(overheadMS, ms(br.end.Sub(br.start)-br.server))
			busy[br.backend] += br.end.Sub(br.start)
			if br.end.After(idleFrom[br.backend]) {
				idleFrom[br.backend] = br.end
			}
		}
		minFrac, firstIdle := 1.0, r.end
		for _, b := range f.backends {
			minFrac = min(minFrac, busy[b.Name()].Seconds()/r.dur.Seconds())
			if idleFrom[b.Name()].Before(firstIdle) {
				firstIdle = idleFrom[b.Name()]
			}
		}
		busyMin = append(busyMin, minFrac)
		// From the first backend going idle for good to the figure being
		// done: the straggler tail the figure waits through.
		tailIdle = append(tailIdle, r.end.Sub(firstIdle).Seconds())
	}
	var retries, failovers int
	for _, ev := range f.journal.Snapshot(evBefore) {
		switch ev.Type {
		case fleet.EventFleetRetry:
			retries++
		case fleet.EventFleetFailover:
			failovers++
		}
	}
	o.layer["fleet.figure_s"] = median(viaFleet)
	o.layer["experiments.figure_local_s"] = median(local)
	o.layer["fleet.backend_run_ms"] = mean(runMS)
	o.layer["fleet.dispatch_overhead_ms"] = mean(overheadMS)
	o.layer["fleet.backend_busy_frac_min"] = mean(busyMin)
	o.layer["fleet.tail_idle_s"] = mean(tailIdle)
	o.layer["fleet.retries"] = float64(retries)
	o.layer["fleet.failovers"] = float64(failovers)
	o.layer["fleet.repeat_hit_ratio"] = float64(repeatHits) / float64(len(repeat.runs))
	return o, nil
}
