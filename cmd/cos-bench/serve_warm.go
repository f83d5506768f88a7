package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cos/internal/serve"
	servehttp "cos/internal/serve/http"
)

// serve-warm: warmClients closed-loop HTTP clients resubmit specs the
// server has already computed and read each result back.
//
// The requests come in warmBursts closed-loop bursts, one at the start of
// each equal slice of the run. The server keeps every job, and a cache
// hit's job holds its own copy of the body, so memory grows with each
// request (about 10 KB with this mix) for as long as the server lives;
// 20000 requests keep the process near 200 MB. Spreading them over the
// whole run, instead of the first two seconds, averages the host's speed
// over the same window the other workloads see.
const (
	warmSet               = 64
	tinyWarmSet           = 8
	warmClients           = 2
	warmPrefills          = 2 // closed-loop submitters that compute the set at set-up
	warmBursts            = 10
	warmBurstRequests     = 2000
	tinyWarmBurstRequests = 100
)

// warmFixture is a daemon behind a loopback HTTP server, with the spec set
// computed once.
type warmFixture struct {
	d      *daemon
	http   *httptest.Server
	specs  [][]byte // JSON request bodies
	bodies [][]byte // the result each spec produced at prefill
}

func (f *warmFixture) close() error {
	f.http.Close()
	return f.d.close()
}

func newWarmFixture(ctx context.Context, dir string, specs []serve.Spec) (*warmFixture, error) {
	d, err := openDaemon(dir, coldShards)
	if err != nil {
		return nil, err
	}
	f := &warmFixture{d: d, specs: make([][]byte, len(specs)), bodies: make([][]byte, len(specs))}
	var next atomic.Int64
	errs := make(chan error, warmPrefills)
	for c := 0; c < warmPrefills; c++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					errs <- nil
					return
				}
				j, err := d.srv.Submit(specs[i])
				if err != nil {
					errs <- fmt.Errorf("prefill submit: %w", err)
					return
				}
				if f.bodies[i], err = waitBody(ctx, j); err != nil {
					errs <- fmt.Errorf("prefill: %w", err)
					return
				}
				if st := j.Status(); st.State != serve.StateDone.String() {
					errs <- fmt.Errorf("prefill job %s ended %s: %s", st.ID, st.State, st.Error)
					return
				}
			}
		}()
	}
	var first error
	for c := 0; c < warmPrefills; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		d.close()
		return nil, first
	}
	for i, s := range specs {
		if f.specs[i], err = json.Marshal(s); err != nil {
			d.close()
			return nil, err
		}
	}
	f.http = httptest.NewServer(servehttp.NewHandler(d.srv))
	return f, nil
}

// warmCall is one measured resubmission.
type warmCall struct {
	id                  string
	start, posted, done time.Time
	bytes               int
}

func runServeWarm(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	n := warmSet
	if !e.full {
		n = tinyWarmSet
	}
	gen := newSpecGen(e.seed, streamWarmSet, !e.full)
	specs := make([]serve.Spec, n)
	for i := range specs {
		specs[i] = gen.next()
	}

	var f *warmFixture
	for r := 0; r < e.setupReps(); r++ {
		t0 := time.Now()
		var err error
		f, err = newWarmFixture(ctx, filepath.Join(e.dir, fmt.Sprintf("warm-%d", r)), specs)
		if err != nil {
			return nil, err
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		if r < e.setupReps()-1 {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
	}
	defer f.close()

	// One transport for both clients, counting the connections it dials:
	// keep-alive should hold that at one per client.
	var dials atomic.Int64
	dialer := &net.Dialer{}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConnsPerHost: warmClients,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	rngs := make([]*rand.Rand, warmClients)
	for c := range rngs {
		rngs[c] = rngFor(e.seed, streamWarmClients+uint64(c)<<32)
	}
	perBurst := warmBurstRequests
	if !e.full {
		perBurst = tinyWarmBurstRequests
	}
	cacheBefore := f.d.cache.Stats()
	rt := beginRuntime()
	start := time.Now()
	var mu sync.Mutex
	var calls []warmCall
	var busy time.Duration
	var rates []float64
	for b := 0; b < warmBursts; b++ {
		if err := sleepUntil(ctx, start.Add(time.Duration(b)*e.seconds/warmBursts)); err != nil {
			return nil, err
		}
		burstStart := time.Now()
		var issued atomic.Int64
		var wg sync.WaitGroup
		for _, rng := range rngs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil && issued.Add(1) <= int64(perBurst) {
					i := rng.Intn(n)
					call, err := warmRoundTrip(ctx, client, f.http.URL, f.specs[i], f.bodies[i])
					mu.Lock()
					o.attempted++
					if err != nil {
						o.fail("spec %d: %v", i, err)
					} else {
						calls = append(calls, call)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		d := time.Since(burstStart)
		busy += d
		rates = append(rates, float64(perBurst)/d.Seconds())
	}
	cacheAfter := f.d.cache.Stats()

	lat := make([]float64, len(calls))
	for i, c := range calls {
		lat[i] = ms(c.done.Sub(c.start))
	}
	o.opsPerS = upperQuartile(rates)
	o.latencyMS = lat
	printf(e, "serve-warm %d requests from %d clients in %d bursts (%.3gs busy), jobs_per_s %.4f over the bursts, job_p50_ms %s, job_p99_ms %s",
		len(calls), warmClients, warmBursts, busy.Seconds(), float64(len(calls))/busy.Seconds(), tail(lat, 50), tail(lat, 99))
	if e.tr == nil {
		return o, nil
	}

	rt.end(o, len(calls))
	mark := e.tr.count()
	var resultBytes int
	for _, c := range calls {
		id := e.tr.id()
		e.tr.record(0, id, "http.submit", c.id, c.start, c.posted)
		e.tr.record(0, id, "http.result", c.id, c.posted, c.done)
		e.tr.record(id, 0, "warm.job", c.id, c.start, c.done)
		resultBytes += c.bytes
	}
	spans := e.tr.since(mark)
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	o.layer["cache.hit_ratio"] = ratio(int(hits), int(hits+misses))
	o.layer["serve.result_bytes_per_job"] = float64(resultBytes) / float64(len(calls))
	o.layer["http.submit_us"] = statsOf(spans, nil, "http.submit").meanUS
	o.layer["http.result_us"] = statsOf(spans, nil, "http.result").meanUS
	o.layer["http.conns_opened"] = float64(dials.Load())
	return o, nil
}

// warmRoundTrip posts one spec, expects a cache hit, reads the result back
// and compares it with the body the prefill produced.
func warmRoundTrip(ctx context.Context, client *http.Client, base string, spec, want []byte) (warmCall, error) {
	c := warmCall{start: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(spec))
	if err != nil {
		return c, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return c, err
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return c, fmt.Errorf("submit response: %w", err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(servehttp.HeaderCache) != "hit" {
		return c, fmt.Errorf("submit: status %d, %s %q; want 200 and a cache hit", resp.StatusCode, servehttp.HeaderCache, resp.Header.Get(servehttp.HeaderCache))
	}
	c.id, c.posted = st.ID, time.Now()

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/result", nil)
	if err != nil {
		return c, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return c, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.done = time.Now()
	if err != nil {
		return c, fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("result: status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, want) {
		return c, fmt.Errorf("result of job %s differs from the prefill body (%d vs %d bytes)", st.ID, len(body), len(want))
	}
	c.bytes = len(body)
	return c, nil
}
