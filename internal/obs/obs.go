package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is the common behaviour of every registered metric kind.
type metric interface {
	metricName() string
	metricHelp() string
	promType() string
	// promWrite emits the metric's sample lines (no HELP/TYPE header).
	promWrite(w io.Writer)
	// snapshot flattens the metric into name->value pairs.
	snapshot(into map[string]float64)
}

// Registry holds a named set of metrics. The zero value is not usable;
// create with NewRegistry or use the process-wide Default registry. All
// methods are safe for concurrent use, and the metric handles they return
// are safe to update from any goroutine.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	order   []string
}

// NewRegistry returns an empty registry, independent of Default.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]metric{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: links and servers built
// without a registry of their own report into it, and the CLIs expose it.
func Default() *Registry { return defaultRegistry }

// register returns the existing metric under name after a kind check, or
// installs the one built by mk. Mismatched re-registration panics: two
// packages claiming one name with different kinds is a programming error
// that silent fallback would turn into corrupt dashboards.
func (r *Registry) register(name string, mk func() metric) metric {
	validateName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		want := mk()
		if fmt.Sprintf("%T", m) != fmt.Sprintf("%T", want) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %T (was %T)", name, want, m))
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

func validateName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// Counter returns the registry's monotonically increasing counter under
// name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, func() metric { return &Counter{name: name, help: help} }).(*Counter)
}

// Gauge returns the registry's float gauge under name, creating it on
// first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, func() metric { return &Gauge{name: name, help: help} }).(*Gauge)
}

// Histogram returns the registry's histogram under name, creating it with
// the given bucket upper bounds (ascending; a +Inf bucket is implicit) on
// first use. nil bounds select DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, func() metric { return newHistogram(name, help, bounds) }).(*Histogram)
}

// CounterFamily returns the registry's labeled counter family under name,
// creating it on first use. A family is a set of counters distinguished
// by one label's value (e.g. packets by data rate).
func (r *Registry) CounterFamily(name, help, label string) *CounterFamily {
	return r.register(name, func() metric {
		return &CounterFamily{name: name, help: help, label: label, children: map[string]*Counter{}}
	}).(*CounterFamily)
}

// Snapshot flattens every metric into a map: counters and gauges under
// their name, family children under name{label="value"}, histograms as
// name_count, name_sum, and name_p50/_p95/_p99.
func (r *Registry) Snapshot() map[string]float64 {
	out := map[string]float64{}
	for _, m := range r.sorted() {
		m.snapshot(out)
	}
	return out
}

// sorted returns the metrics in registration order.
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]metric, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.metrics[name])
	}
	return out
}

// WriteProm emits the registry in the Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) {
	for _, m := range r.sorted() {
		fmt.Fprintf(w, "# HELP %s %s\n", m.metricName(), escapeHelp(m.metricHelp()))
		fmt.Fprintf(w, "# TYPE %s %s\n", m.metricName(), m.promType())
		m.promWrite(w)
	}
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// --- Counter -------------------------------------------------------------

// Counter is a monotonically increasing count. The zero value is usable
// but unregistered; normally obtain one from a Registry.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) promType() string   { return "counter" }
func (c *Counter) promWrite(w io.Writer) {
	fmt.Fprintf(w, "%s %d\n", c.name, c.Value())
}
func (c *Counter) snapshot(into map[string]float64) { into[c.name] = float64(c.Value()) }

// --- Gauge ---------------------------------------------------------------

// Gauge is a float64 that can move both ways (or accumulate fractional
// quantities like airtime seconds).
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add accumulates v.
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) promType() string   { return "gauge" }
func (g *Gauge) promWrite(w io.Writer) {
	fmt.Fprintf(w, "%s %v\n", g.name, g.Value())
}
func (g *Gauge) snapshot(into map[string]float64) { into[g.name] = g.Value() }

// --- Histogram -----------------------------------------------------------

// DefBuckets are exponential bounds from 1µs to ~8s, suited to the
// pipeline's stage timings.
var DefBuckets = ExpBuckets(1e-6, 2, 24)

// ExpBuckets returns n upper bounds starting at start and growing by
// factor: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram is a fixed-bucket distribution with an implicit +Inf bucket.
// Observations are O(log buckets) with no allocation; quantiles are
// estimated by linear interpolation inside the matched bucket (the same
// approximation Prometheus' histogram_quantile makes).
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	count      atomic.Uint64
	sumBits    atomic.Uint64
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the buckets; it
// returns 0 with no observations. Values in the +Inf bucket clamp to the
// highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		if i == len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(rank-cum)/n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) promType() string   { return "histogram" }
func (h *Histogram) promWrite(w io.Writer) {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatBound(b), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.Count())
	fmt.Fprintf(w, "%s_sum %v\n", h.name, h.Sum())
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.Count())
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

func (h *Histogram) snapshot(into map[string]float64) {
	into[h.name+"_count"] = float64(h.Count())
	into[h.name+"_sum"] = h.Sum()
	into[h.name+"_p50"] = h.Quantile(0.50)
	into[h.name+"_p95"] = h.Quantile(0.95)
	into[h.name+"_p99"] = h.Quantile(0.99)
}

// --- CounterFamily -------------------------------------------------------

// CounterFamily is a set of counters sharing a name, distinguished by one
// label's value.
type CounterFamily struct {
	name, help, label string

	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the child counter for the given label value, creating it
// on first use. Hot paths should cache the returned handle when the label
// value is fixed.
func (f *CounterFamily) With(value string) *Counter {
	f.mu.RLock()
	c, ok := f.children[value]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[value]; ok {
		return c
	}
	c = &Counter{name: f.name}
	f.children[value] = c
	return c
}

func (f *CounterFamily) sortedValues() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.children))
	for v := range f.children {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (f *CounterFamily) metricName() string { return f.name }
func (f *CounterFamily) metricHelp() string { return f.help }
func (f *CounterFamily) promType() string   { return "counter" }
func (f *CounterFamily) promWrite(w io.Writer) {
	for _, v := range f.sortedValues() {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", f.name, f.label, escapeLabel(v), f.With(v).Value())
	}
}
func (f *CounterFamily) snapshot(into map[string]float64) {
	for _, v := range f.sortedValues() {
		into[fmt.Sprintf("%s{%s=%q}", f.name, f.label, v)] = float64(f.With(v).Value())
	}
}
