// Package obs is the repository's zero-dependency metrics and
// instrumentation layer: always-on counters, gauges, and bounded
// histograms over the hot CoS pipeline, exposed three ways.
//
//   - Programmatically: Snapshot() flattens every metric of the default
//     registry into a map[string]float64, so experiments and tests can
//     assert on detector error counts, EVD erasure load, or rate-table
//     transitions after a session.
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
// instrumented packages resolve their metric handles once at init (or
// link construction) rather than per observation. The overhead budget on
// Link.Send is <2%: `make bench-events` times a link with and without an
// attached observer and fails above 2%; BenchmarkLinkExchangeInstrumented
// at the repository root measures the same cost by hand.
//
// SpanSet/Span time multi-stage pipelines: a SpanSet registers one
// latency histogram per named stage and keeps an atomic per-owner
// nanosecond accumulator alongside, so owners (e.g. cos.Link) can Drain
// a per-operation stage breakdown while the histograms aggregate across
// operations. StartSpan/End allocate nothing; the zero Span is inert.
// The flight-recorder overhead budget (sampled probes within 2% on top
// of spans) is enforced by BENCH_trace.json via `make bench-trace`.
//
// Metrics live in a Registry. The process-wide Default() registry is what
// the pipeline instruments and what obshttp/Snapshot expose; tests that
// need isolation build their own with NewRegistry and inject it (e.g.
// cos.WithMetricsRegistry), or call Default().Reset() and read deltas.
//
// The metrics catalogue is documented in the repository README's
// "Observability" section.
package obs
