package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

func TestSeededGenerationIsDeterministic(t *testing.T) {
	a := poissonSchedule(7, 12, 20*time.Second, false)
	b := poissonSchedule(7, 12, 20*time.Second, false)
	c := poissonSchedule(8, 12, 20*time.Second, false)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different schedules (%d vs %d arrivals)", len(a), len(b))
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}

	specs := func(seed int64) []byte {
		g := newSpecGen(seed, streamColdClosed, false)
		var out []byte
		for i := 0; i < 50; i++ {
			b, err := json.Marshal(g.next())
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	if string(specs(3)) != string(specs(3)) {
		t.Fatal("same seed gave different spec lists")
	}
	if string(specs(3)) == string(specs(4)) {
		t.Fatal("different seeds gave the same spec list")
	}

	link := func(seed int64) []byte {
		in := &linkInputs{rng: rngFor(seed, streamLinkInputs)}
		p, c := make([]byte, linkPayload), make([]byte, linkMaxCtrl)
		var out []byte
		for i := 0; i < 5; i++ {
			want := in.next(p, c)
			out = append(append(append(out, p...), c...), byte(want))
		}
		return out
	}
	if string(link(1)) != string(link(1)) || string(link(1)) == string(link(2)) {
		t.Fatal("link inputs are not a function of the seed alone")
	}
}

func TestSpecsAreDistinctAndMixed(t *testing.T) {
	g := newSpecGen(1, streamColdOpen, false)
	seen := map[string]bool{}
	kinds := map[string]int{}
	for i := 0; i < 1000; i++ {
		s := g.next()
		if err := s.Validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
		d := s.Digest()
		if seen[d] {
			t.Fatalf("spec %d repeats an earlier digest", i)
		}
		seen[d] = true
		kinds[string(s.Kind)]++
	}
	want := map[string]int{"link": 400, "stream": 200, "wlan": 200, "figure_task": 200}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kind mix %v, want %v", kinds, want)
	}
}

func TestPoissonArrivals(t *testing.T) {
	const rate = 10.0
	dur := 2000 * time.Second
	sched := poissonSchedule(5, rate, dur, false)
	if got := float64(len(sched)) / dur.Seconds(); math.Abs(got-rate)/rate > 0.05 {
		t.Fatalf("mean rate %.3f/s, want %.1f/s within 5%%", got, rate)
	}
	// Exponential gaps: mean 1/rate, coefficient of variation 1.
	var sum, sumSq float64
	prev := time.Duration(0)
	for _, a := range sched {
		if a.at < prev {
			t.Fatal("arrivals out of order")
		}
		g := (a.at - prev).Seconds()
		sum, sumSq, prev = sum+g, sumSq+g*g, a.at
	}
	n := float64(len(sched))
	m := sum / n
	cv := math.Sqrt(sumSq/n-m*m) / m
	if math.Abs(m*rate-1) > 0.05 || math.Abs(cv-1) > 0.05 {
		t.Fatalf("gaps: mean %.4fs (want %.4fs), CV %.3f (want 1)", m, 1/rate, cv)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 (10 samples beyond)", v, ok)
	}
	if _, ok := percentile(xs, 91); ok {
		t.Fatal("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(xs, 99); ok {
		t.Fatal("p99 of 100 samples must be refused")
	}
	if v, ok := percentile(xs[:20], 50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, ok)
	}
	if _, ok := percentile(xs[:19], 50); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles %v %v, want 1 4", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	if st := statsOf(spans, self, "parent"); st.n != 1 || st.meanUS != 0.1 || st.selfUS != 0.05 {
		t.Fatalf("stats %+v", st)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range doc.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name || whys[i] != w.why {
			t.Fatalf("workload %d: BENCHMARK.json has %v, the program %q: %q", i, names, w.name, w.why)
		}
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(names), len(workloads))
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// TestSmoke runs every workload at smoke size, traced, with all of its
// output checks, then the kernels; together they must produce every
// per-layer metric a traced run promises.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs of every workload")
	}
	load := 1.0
	if raceEnabled {
		load = 0.1 // the race detector slows jobs several times over
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	tr := newTracer()
	metrics := map[string]float64{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := &env{seed: 1, seconds: smokeSeconds, dir: t.TempDir(), tr: tr, log: testLog{t}, load: load}
			o, err := w.run(ctx, e)
			if err != nil {
				t.Fatal(err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", o.attempted, o.failed, o.problems)
			}
			if len(o.setupS) != 1 || o.opsPerS <= 0 {
				t.Fatalf("set-up times %v, ops/s %v", o.setupS, o.opsPerS)
			}
			for k, v := range o.layer {
				metrics[k] = v
			}
		})
	}
	ko := newOutcome()
	km, err := runKernels(ctx, 1, tr, ko)
	if err != nil || ko.attempted == 0 || ko.failed != 0 {
		t.Fatalf("kernels: %v, %d checks, failed %v", err, ko.attempted, ko.problems)
	}
	for k, v := range km {
		metrics[k] = v
	}
	if raceEnabled {
		return // the slowed open loop yields too few samples for its percentiles
	}
	for _, m := range perLayer {
		if v, ok := metrics[m.name]; !ok || math.IsNaN(v) {
			t.Errorf("per-layer metric %s not produced", m.name)
		}
	}
	if metrics["cache.hit_ratio"] != 1 || metrics["http.conns_opened"] != warmClients || metrics["fleet.retries"] != 0 {
		t.Errorf("cache.hit_ratio %v, http.conns_opened %v, fleet.retries %v; want 1, %d, 0",
			metrics["cache.hit_ratio"], metrics["http.conns_opened"], metrics["fleet.retries"], warmClients)
	}
}
