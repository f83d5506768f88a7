// Package obs is the repository's zero-dependency metrics layer:
// counters, gauges, and bounded histograms in a Registry, exposed three
// ways.
//
//   - Programmatically: Registry.Snapshot flattens every metric into a
//     map[string]float64, so tests can assert on detector error counts or
//     rate-table transitions after a session.
//   - Prometheus text format: Registry.WriteProm, served on /metrics by
//     the obshttp subpackage.
//   - expvar-compatible JSON: the default registry is published as the
//     "cos" expvar, served on /debug/vars by obshttp (alongside the
//     standard memstats and cmdline vars).
//
// obshttp.Serve also mounts net/http/pprof on /debug/pprof/, so every
// CLI that passes -metrics-addr gets CPU/heap/block profiling for free.
// The HTTP exposition lives in the obshttp subpackage, not here, so
// instrumented libraries do not drag net/http into every binary that
// imports obs — only the CLIs link the server.
//
// The package keeps the hot path cheap: counters and gauges are single
// atomic words, histograms are fixed bucket arrays with atomic adds, and
// their owners (cos.Link, the serve daemon, the wlan session) resolve
// metric handles once (at init or construction) rather than per
// observation. The PHY, coding and CoS kernels record nothing: a Link
// counts what they return, on the registry it was built with. The
// overhead budget on
// Link.Send is <2%: `make bench-events` times a link with and without an
// attached observer and fails above 2%; BenchmarkLinkExchangeInstrumented
// at the repository root measures the same cost by hand.
//
// Stage timing is not here: cos.Link owns its stage clock (stage.go in
// the root package) and observes into Histograms registered on the
// link's Registry. The flight-recorder overhead budget (sampled probes
// within 2% of the unprobed exchange) is enforced by BENCH_trace.json
// via `make bench-trace`.
//
// Metrics live in a Registry. The process-wide Default() registry is what
// a link or server built without one reports into and what obshttp
// exposes; tests that need isolation build their own with NewRegistry
// and inject it (cos.WithMetricsRegistry, serve.Config.Metrics).
//
// The metrics catalogue is documented in the repository README's
// "Observability" section.
package obs
