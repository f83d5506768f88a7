package serve

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"testing"
	"time"

	"cos"
	"cos/internal/obs"
	"cos/internal/obs/event"
)

// benchEventsOut enables TestWriteBenchEventsReport; `make bench-events`
// points it at BENCH_events.json.
var benchEventsOut = flag.String("bench-events-out", "", "write the event-journal overhead report to this JSON file")

// benchSaturate submits small link jobs until the window closes,
// resubmitting on backpressure, and returns sustained jobs/sec.
func benchSaturate(t *testing.T, cfg Config, window time.Duration) float64 {
	t.Helper()
	s := New(cfg)
	spec := Spec{Kind: KindLink, PayloadBytes: 256, Packets: 50, ControlBits: 32}
	start := time.Now()
	deadline := start.Add(window)
	var jobs []*Job
	seed := int64(0)
	for time.Now().Before(deadline) {
		seed++
		sp := spec
		sp.Seed = seed
		j, err := s.Submit(sp)
		if err != nil {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	elapsed := time.Since(start)
	if !s.Drain(30 * time.Second) {
		t.Fatal("bench server did not drain cleanly")
	}
	return float64(len(jobs)) / elapsed.Seconds()
}

// benchLinkExchange measures a bare link exchange with and without the
// stage-aggregating observer, mirroring BenchmarkLinkExchange's setup.
func benchLinkExchange(b *testing.B, agg *stageAgg) {
	b.Helper()
	opts := []cos.Option{cos.WithSNR(20), cos.WithSeed(6)}
	if agg != nil {
		opts = append(opts, cos.WithObserver(agg.observe))
	}
	link, err := cos.NewLink(opts...)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1024)
	ctrl := make([]byte, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Respect the adaptive control budget, as BenchmarkLinkExchange does.
		maxBits, err := link.MaxControlBits(len(data))
		if err != nil {
			b.Fatal(err)
		}
		n := len(ctrl)
		if n > maxBits {
			n = maxBits / 4 * 4
		}
		if _, err := link.Send(data, ctrl[:n]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteBenchEventsReport regenerates BENCH_events.json (via `make
// bench-events`). It quantifies the operations plane's cost at three
// levels — the raw journal append, the per-exchange observer on a bare
// link, and end-to-end serve throughput with the journal on vs off — and
// enforces the acceptance budget: journal+observer overhead on the serve
// path stays within ~2% (with scheduling-noise tolerance).
func TestWriteBenchEventsReport(t *testing.T) {
	if *benchEventsOut == "" {
		t.Skip("set -bench-events-out to write the report")
	}

	// Level 1: raw journal append cost (the price of one event).
	appendRes := testing.Benchmark(func(b *testing.B) {
		j := event.New(event.DefaultCapacity)
		payload := AdmittedEvent{Kind: KindLink, Seed: 1, Shard: 0, QueueDepth: 3}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.Append(EventJobAdmitted, "job-000001", payload)
		}
	})
	// ...and with a subscriber attached (the /events fan-out path).
	appendSubRes := testing.Benchmark(func(b *testing.B) {
		j := event.New(event.DefaultCapacity)
		sub := j.Subscribe(0, 64)
		go func() {
			for range sub.C() {
			}
		}()
		defer sub.Cancel()
		payload := AdmittedEvent{Kind: KindLink, Seed: 1, Shard: 0, QueueDepth: 3}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j.Append(EventJobAdmitted, "job-000001", payload)
		}
	})

	// Level 2: per-exchange observer cost on a bare link.
	plainLink := testing.Benchmark(func(b *testing.B) { benchLinkExchange(b, nil) })
	agg := &stageAgg{}
	observedLink := testing.Benchmark(func(b *testing.B) { benchLinkExchange(b, agg) })
	if plainLink.N == 0 || observedLink.N == 0 {
		t.Fatal("link benchmark failed to run (b.Fatal inside)")
	}
	if agg.toMap() == nil {
		t.Fatal("stage observer never fired during the observed benchmark")
	}

	// Level 3: end-to-end serve throughput, journal off vs on. Three
	// interleaved trials each; best-of to shed scheduler noise.
	shards := runtime.GOMAXPROCS(0)
	const window = 3 * time.Second
	off := Config{Shards: shards, QueueDepth: 64, Metrics: obs.NewRegistry(), JournalCapacity: -1}
	on := Config{Shards: shards, QueueDepth: 64, Metrics: obs.NewRegistry(), SummaryEvery: time.Second}
	var jpsOff, jpsOn float64
	for i := 0; i < 3; i++ {
		if v := benchSaturate(t, off, window); v > jpsOff {
			jpsOff = v
		}
		on.Metrics = obs.NewRegistry()
		if v := benchSaturate(t, on, window); v > jpsOn {
			jpsOn = v
		}
	}
	overhead := 1 - jpsOn/jpsOff

	linkNsPlain := float64(plainLink.NsPerOp())
	linkNsObserved := float64(observedLink.NsPerOp())
	linkOverhead := linkNsObserved/linkNsPlain - 1

	report := struct {
		Description        string  `json:"description"`
		JournalAppendNsOp  int64   `json:"journal_append_ns_op"`
		JournalAppendBOp   int64   `json:"journal_append_bytes_op"`
		AppendWithSubNsOp  int64   `json:"journal_append_with_subscriber_ns_op"`
		LinkExchangeNsOp   int64   `json:"link_exchange_ns_op"`
		ObservedLinkNsOp   int64   `json:"link_exchange_observed_ns_op"`
		LinkObserverFrac   float64 `json:"link_observer_overhead_frac"`
		Shards             int     `json:"shards"`
		JobsPerSecPlain    float64 `json:"serve_jobs_per_sec_journal_off"`
		JobsPerSecJournal  float64 `json:"serve_jobs_per_sec_journal_on"`
		JournalOverhead    float64 `json:"serve_journal_overhead_frac"`
		OverheadBudgetFrac float64 `json:"overhead_budget_frac"`
		GoVersion          string  `json:"go_version"`
	}{
		Description:        "operations-plane cost: raw journal append, per-exchange stage observer on a bare link, and end-to-end serve throughput with the event journal (plus 1s summary frames) on vs off; best of 3 interleaved saturation trials per mode",
		JournalAppendNsOp:  appendRes.NsPerOp(),
		JournalAppendBOp:   appendRes.AllocedBytesPerOp(),
		AppendWithSubNsOp:  appendSubRes.NsPerOp(),
		LinkExchangeNsOp:   plainLink.NsPerOp(),
		ObservedLinkNsOp:   observedLink.NsPerOp(),
		LinkObserverFrac:   linkOverhead,
		Shards:             shards,
		JobsPerSecPlain:    jpsOff,
		JobsPerSecJournal:  jpsOn,
		JournalOverhead:    overhead,
		OverheadBudgetFrac: 0.02,
		GoVersion:          runtime.Version(),
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(*benchEventsOut, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("journal append %dns (%dns with subscriber); link exchange %d->%dns (%.2f%%); serve %.0f->%.0f jobs/sec (%.2f%% overhead)",
		report.JournalAppendNsOp, report.AppendWithSubNsOp,
		report.LinkExchangeNsOp, report.ObservedLinkNsOp, linkOverhead*100,
		jpsOff, jpsOn, overhead*100)

	// Acceptance: ~2% budget on the serve path, with slack for best-of-3
	// scheduling noise; the bare-link observer must be near-free.
	if overhead > 0.05 {
		t.Errorf("serve journal overhead %.1f%% exceeds budget (2%% target, 5%% hard stop)", overhead*100)
	}
	if linkOverhead > 0.02 {
		t.Errorf("link observer overhead %.1f%% exceeds 2%%", linkOverhead*100)
	}
}
