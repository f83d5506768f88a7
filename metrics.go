package cos

import "cos/internal/obs"

// MetricsRegistry is the observability registry the pipeline reports
// into: counters, gauges, and bounded histograms with a Snapshot() API,
// Prometheus text exposition, and expvar JSON (see internal/obs and the
// README's "Observability" section).
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty, isolated registry for injection
// via WithMetricsRegistry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }
