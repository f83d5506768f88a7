package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sync"
	"time"

	"cos/internal/serve"
)

// serve-cold: an in-process daemon under distinct jobs. Phase A is open
// loop (Poisson arrivals at coldRate for coldOpenShare of the run); phase
// B is closed loop (coldSubmitters back to back for the rest).
const (
	coldOpenShare = 0.5
	// coldRate puts the two shards at roughly half utilization with the
	// full-size mix on a 2-CPU host: queueing shows in the latency before
	// the backlog grows.
	coldRate = 10.0
	// At smoke size phase A alone yields the 200 samples the queue-wait
	// p95 needs, whatever the host's speed, at a load far from the queues'
	// limit.
	tinyColdRate   = 70.0
	tinyColdPhaseA = 3 * time.Second
	tinyColdPhaseB = time.Second
	coldSubmitters = 2
	coldShards     = 2
)

// coldJob is one admitted job and the bench-side times around it.
type coldJob struct {
	spec serve.Spec
	job  *serve.Job
	due  time.Time // open loop: when it was scheduled; closed loop: submit start
	read time.Time // when the result was fully read (closed loop)
	body []byte
}

func runServeCold(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	tiny := !e.full
	rate, phaseA := coldRate, time.Duration(coldOpenShare*float64(e.seconds))
	phaseB := e.seconds - phaseA
	if tiny {
		rate, phaseA, phaseB = tinyColdRate, tinyColdPhaseA, tinyColdPhaseB
	}
	rate *= e.loadFactor()

	// Set-up: open the store, start the server, and push one job of each
	// kind through it so lazy initialization is out of the way.
	var d *daemon
	warm := newSpecGen(e.seed, streamColdWarmup, tiny)
	for r := 0; r < e.setupReps(); r++ {
		t0 := time.Now()
		var err error
		d, err = openDaemon(filepath.Join(e.dir, fmt.Sprintf("cold-%d", r)), coldShards)
		if err != nil {
			return nil, err
		}
		for _, k := range kinds {
			spec := warm.of(k)
			j, err := d.srv.Submit(spec)
			if err != nil {
				return nil, fmt.Errorf("warm-up submit: %w", err)
			}
			if _, err := waitBody(ctx, j); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		if r < e.setupReps()-1 {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
	}
	defer d.close()

	sched := poissonSchedule(e.seed, rate, phaseA, tiny)
	storeBefore, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	mark := e.tr.count()
	rt := beginRuntime()
	rejected := 0

	// Phase A: submit each spec when it is due, whatever the server is
	// doing; a job's latency runs from when it was due.
	startA := time.Now()
	var open []*coldJob
	var lateMS []float64
	for _, a := range sched {
		due := startA.Add(a.at)
		if err := sleepUntil(ctx, due); err != nil {
			return nil, err
		}
		t0 := time.Now()
		j, err := d.srv.Submit(a.spec)
		t1 := time.Now()
		o.attempted++
		lateMS = append(lateMS, ms(t0.Sub(due)))
		if err != nil {
			rejected++
			o.fail("open-loop submit: %v", err)
			continue
		}
		e.tr.record(0, 0, "serve.submit", j.ID(), t0, t1)
		open = append(open, &coldJob{spec: a.spec, job: j, due: due})
	}
	for _, cj := range open {
		body, err := waitBody(ctx, cj.job)
		if err != nil {
			return nil, err
		}
		cj.body = body
	}
	endA := time.Now()

	// Phase B: coldSubmitters closed-loop clients; each submits its next
	// spec only once the previous result is read.
	gen := newSpecGen(e.seed, streamColdClosed, tiny)
	var mu sync.Mutex
	var closed []*coldJob
	var failure error
	startB := time.Now()
	deadline := startB.Add(phaseB)
	var wg sync.WaitGroup
	for c := 0; c < coldSubmitters; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				mu.Lock()
				spec := gen.next()
				o.attempted++
				mu.Unlock()
				t0 := time.Now()
				j, err := d.srv.Submit(spec)
				t1 := time.Now()
				if err != nil {
					mu.Lock()
					rejected++
					o.fail("closed-loop submit: %v", err)
					mu.Unlock()
					continue
				}
				e.tr.record(0, 0, "serve.submit", j.ID(), t0, t1)
				body, err := waitBody(ctx, j)
				mu.Lock()
				if err != nil && failure == nil {
					failure = err
				}
				closed = append(closed, &coldJob{spec: spec, job: j, due: t0, read: time.Now(), body: body})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	endB := time.Now()
	if failure != nil {
		return nil, failure
	}
	jobs := len(open) + len(closed)
	rt.end(o, jobs)

	// Check every job's state and result, and collect its latencies.
	var latA, queueMS []float64
	runMS := map[serve.Kind][]float64{}
	var busy time.Duration
	for phase, jobs := range [][]*coldJob{open, closed} {
		for _, cj := range jobs {
			st := cj.job.Status()
			if st.State != serve.StateDone.String() || st.StartedAt == nil || st.FinishedAt == nil {
				o.fail("job %s (%s) ended %s: %s", st.ID, cj.spec.Kind, st.State, st.Error)
				continue
			}
			if err := checkBody(cj.spec, cj.body); err != nil {
				o.fail("job %s (%s): %v", st.ID, cj.spec.Kind, err)
				continue
			}
			queue, runFor := st.StartedAt.Sub(st.SubmittedAt), st.FinishedAt.Sub(*st.StartedAt)
			queueMS = append(queueMS, ms(queue))
			runMS[cj.spec.Kind] = append(runMS[cj.spec.Kind], ms(runFor))
			if phase == 0 {
				latA = append(latA, ms(st.FinishedAt.Sub(cj.due)))
				busy += runFor
			}
			if e.tr != nil {
				id := e.tr.id()
				end := *st.FinishedAt
				if phase == 1 {
					end = cj.read
					e.tr.record(0, id, "bench.read_result", st.ID, *st.FinishedAt, cj.read)
				}
				e.tr.record(0, id, "serve.queue", st.ID, st.SubmittedAt, *st.StartedAt)
				e.tr.record(0, id, "serve.run", st.ID, *st.StartedAt, *st.FinishedAt)
				e.tr.record(id, 0, "serve.job", st.ID, cj.due, end)
			}
		}
	}
	var doneB []time.Time
	for _, cj := range closed {
		if cj.job.State() == serve.StateDone {
			doneB = append(doneB, cj.read)
		}
	}
	o.opsPerS = upperQuartile(sliceRates(doneB, startB, endB))
	o.latencyMS = latA
	printf(e, "serve-cold phase A: %d arrivals at %.3g/s over %.3gs, job_p50_ms %s, job_p90_ms %s",
		len(sched), rate, phaseA.Seconds(), tail(latA, 50), tail(latA, 90))
	printf(e, "serve-cold phase B: %d jobs from %d submitters in %.3gs, jobs_per_s %.4f over the phase",
		len(doneB), coldSubmitters, endB.Sub(startB).Seconds(), float64(len(doneB))/endB.Sub(startB).Seconds())
	if e.tr == nil {
		return o, nil
	}

	storeAfter, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	spans := e.tr.since(mark)
	o.layer["serve.submit_us"] = statsOf(spans, nil, "serve.submit").meanUS
	for name, p := range map[string]float64{"serve.queue_wait_ms_p50": 50, "serve.queue_wait_ms_p95": 95} {
		if v, ok := percentile(queueMS, p); ok {
			o.layer[name] = v
		}
	}
	if v, ok := percentile(lateMS, 90); ok {
		o.layer["bench.gen_late_p90_ms"] = v
	}
	o.layer["serve.shard_busy_frac"] = busy.Seconds() / (coldShards * endA.Sub(startA).Seconds())
	for _, k := range kinds {
		if xs := runMS[k]; len(xs) > 0 {
			o.layer["serve.run_ms."+string(k)] = mean(xs)
		}
	}
	o.layer["serve.rejected_frac"] = float64(rejected) / float64(o.attempted)
	o.layer["store.bytes_per_job"] = float64(storeAfter-storeBefore) / float64(jobs)
	return o, nil
}

// waitBody waits for a job to end and reads its whole result.
func waitBody(ctx context.Context, j *serve.Job) ([]byte, error) {
	select {
	case <-j.Done():
	case <-ctx.Done():
		return nil, fmt.Errorf("job %s: %w", j.ID(), ctx.Err())
	}
	return io.ReadAll(j.Result())
}
