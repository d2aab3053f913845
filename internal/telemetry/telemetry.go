// Package telemetry is the live-observability registry: a
// zero-dependency set of atomic counters, gauges, and fixed-bucket
// histograms with Prometheus text-format exposition (see prometheus.go).
// It is the operational complement to package obs — obs attributes one
// run's misses after the fact; telemetry answers "what is the server and
// simulator doing right now" in a format fleet tooling can scrape.
//
// All metric updates are lock-free atomics, safe to call from the
// simulator's epoch barrier and the job server's worker pool while a
// scraper walks the registry. Registration (Counter, GaugeFunc,
// HistogramVec, ...) panics on an invalid or conflicting name: metric
// wiring is program structure, and a bad name is a bug, not an input
// error.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are constant name→value pairs attached at registration time
// (rendered sorted by name). For per-call label values use a Vec type.
type Labels map[string]string

// Registry holds metric families. The zero value is not usable; build
// with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one exposition block: all samples sharing a metric name.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	mu      sync.Mutex
	metrics []sampler
	seen    map[string]struct{} // rendered label sets, to reject duplicates
}

// sampler is anything that can contribute sample lines to a family.
type sampler interface {
	labelString() string
	// sampleLines appends "name{labels} value" lines; name is the family
	// name (histograms derive _bucket/_sum/_count from it).
	sampleLines(b *strings.Builder, name string)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Families returns the name of every registered family, sorted —
// including families with no samples yet, which the exposition omits.
func (r *Registry) Families() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// lookup returns the family for (name, typ, help), creating it on first
// use and panicking on a conflicting re-registration.
func (r *Registry) lookup(name, help, typ string) *family {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, seen: make(map[string]struct{})}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

// add attaches a sampler to the family, rejecting duplicate label sets.
func (f *family) add(s sampler) {
	ls := s.labelString()
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.seen[ls]; dup {
		panic(fmt.Sprintf("telemetry: metric %s%s registered twice", f.name, ls))
	}
	f.seen[ls] = struct{}{}
	f.metrics = append(f.metrics, s)
}

// ---- Counter ----

// Counter is a monotonically increasing integer metric.
type Counter struct {
	labels string
	v      atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and panic.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("telemetry: counter decremented by %d", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) labelString() string { return c.labels }

func (c *Counter) sampleLines(b *strings.Builder, name string) {
	writeSample(b, name, c.labels, float64(c.v.Load()))
}

// Counter registers (or extends) a counter family and returns the
// handle for the given constant labels.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.lookup(name, help, "counter")
	c := &Counter{labels: renderLabels(labels)}
	f.add(c)
	return c
}

// CounterFunc registers a counter whose value is read at scrape time
// (e.g. mirroring a counter owned by another subsystem). fn must be
// monotonic non-decreasing and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	f := r.lookup(name, help, "counter")
	f.add(&funcMetric{labels: renderLabels(labels), fn: fn})
}

// ---- Gauge ----

// Gauge is a float-valued metric that can go up and down.
type Gauge struct {
	labels string
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (atomically, CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) labelString() string { return g.labels }

func (g *Gauge) sampleLines(b *strings.Builder, name string) {
	writeSample(b, name, g.labels, g.Value())
}

// Gauge registers a gauge and returns its handle.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.lookup(name, help, "gauge")
	g := &Gauge{labels: renderLabels(labels)}
	f.add(g)
	return g
}

// GaugeFunc registers a gauge evaluated at scrape time. fn must be safe
// for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	f := r.lookup(name, help, "gauge")
	f.add(&funcMetric{labels: renderLabels(labels), fn: fn})
}

// funcMetric backs CounterFunc and GaugeFunc.
type funcMetric struct {
	labels string
	fn     func() float64
}

func (m *funcMetric) labelString() string { return m.labels }

func (m *funcMetric) sampleLines(b *strings.Builder, name string) {
	writeSample(b, name, m.labels, m.fn())
}

// ---- Histogram ----

// DefBuckets are latency buckets in seconds, spanning sub-millisecond
// cache hits to minute-scale sweeps.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram counts observations into fixed buckets (upper bounds,
// cumulative at exposition, +Inf implicit).
type Histogram struct {
	labels  string
	upper   []float64 // sorted, strictly increasing, +Inf excluded
	counts  []atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCount returns the non-cumulative count of bucket i (the +Inf
// overflow bucket is index len(buckets)).
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

func (h *Histogram) labelString() string { return h.labels }

func (h *Histogram) sampleLines(b *strings.Builder, name string) {
	var cum int64
	for i, u := range h.upper {
		cum += h.counts[i].Load()
		writeSample(b, name+"_bucket", mergeLE(h.labels, formatFloat(u)), float64(cum))
	}
	cum += h.counts[len(h.upper)].Load()
	writeSample(b, name+"_bucket", mergeLE(h.labels, "+Inf"), float64(cum))
	writeSample(b, name+"_sum", h.labels, h.Sum())
	writeSample(b, name+"_count", h.labels, float64(cum))
}

func newHistogram(labels string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	for i := 1; i < len(upper); i++ {
		if upper[i] == upper[i-1] {
			panic(fmt.Sprintf("telemetry: duplicate histogram bucket %v", upper[i]))
		}
	}
	if math.IsInf(upper[len(upper)-1], +1) {
		upper = upper[:len(upper)-1] // +Inf is implicit
	}
	return &Histogram{labels: labels, upper: upper, counts: make([]atomic.Int64, len(upper)+1)}
}

// Histogram registers a histogram with the given bucket upper bounds
// (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	f := r.lookup(name, help, "histogram")
	h := newHistogram(renderLabels(labels), buckets)
	f.add(h)
	return h
}

// ---- Vecs ----

// vec is the shared child-map machinery of the *Vec types.
type vec[M sampler] struct {
	fam        *family
	labelNames []string
	mu         sync.Mutex
	children   map[string]M
	make       func(labels string) M
}

func newVec[M sampler](f *family, labelNames []string, mk func(labels string) M) *vec[M] {
	for _, n := range labelNames {
		mustValidLabel(n)
	}
	return &vec[M]{fam: f, labelNames: labelNames, children: make(map[string]M), make: mk}
}

// with returns the child for the given label values, creating it on
// first use.
func (v *vec[M]) with(values ...string) M {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			v.fam.name, len(v.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	v.mu.Lock()
	defer v.mu.Unlock()
	if m, ok := v.children[key]; ok {
		return m
	}
	ls := Labels{}
	for i, n := range v.labelNames {
		ls[n] = values[i]
	}
	m := v.make(renderLabels(ls))
	v.children[key] = m
	v.fam.add(m)
	return m
}

// CounterVec is a counter family with per-call label values.
type CounterVec struct{ *vec[*Counter] }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	f := r.lookup(name, help, "counter")
	return &CounterVec{newVec(f, labelNames, func(ls string) *Counter { return &Counter{labels: ls} })}
}

// GaugeVec is a gauge family with per-call label values.
type GaugeVec struct{ *vec[*Gauge] }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.with(values...) }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	f := r.lookup(name, help, "gauge")
	return &GaugeVec{newVec(f, labelNames, func(ls string) *Gauge { return &Gauge{labels: ls} })}
}

// HistogramVec is a histogram family with per-call label values.
type HistogramVec struct{ *vec[*Histogram] }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// HistogramVec registers a labeled histogram family (nil buckets selects
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	f := r.lookup(name, help, "histogram")
	return &HistogramVec{newVec(f, labelNames, func(ls string) *Histogram { return newHistogram(ls, buckets) })}
}

// ---- name validation and label rendering ----

func mustValidName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

func mustValidLabel(name string) {
	if !validLabelName(name) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", name))
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validMetricName(s)
}

// renderLabels renders a constant label set as `{a="x",b="y"}`, sorted
// by name, or "" when empty.
func renderLabels(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	names := make([]string, 0, len(ls))
	for n := range ls {
		mustValidLabel(n)
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, ls[n])
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLE splices `le="bound"` into an already-rendered label string.
func mergeLE(labels, bound string) string {
	le := fmt.Sprintf("le=%q", bound)
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}
