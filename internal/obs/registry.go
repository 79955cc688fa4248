// Package obs is the live-observability layer: a concurrency-safe metrics
// registry (counters, gauges, fixed-bucket histograms, one- and two-label
// families) with a Prometheus text-format exposition writer, an
// embeddable HTTP server (/metrics, /healthz, /progress, /debug/pprof/*)
// and a trace-replay sink that rebuilds the same metric families from an
// offline JSONL trace, so live scrapes and post-hoc traces share one
// vocabulary.
//
// All metric values are atomics: the simulator (single goroutine) mutates
// them while HTTP scrapes read concurrently, without locks on the hot
// path. Family registration takes the registry lock, so register handles
// once (at run setup) and mutate through the returned pointers.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic add/set via its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		if a.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (a *atomicFloat) set(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ f atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.f.add(1) }

// Add increases the counter. Negative deltas are a programmer error and
// panic: counters only go up.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter decreased by %g", v))
	}
	c.f.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.f.load() }

// Gauge is a value that can go up and down.
type Gauge struct{ f atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.f.set(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.f.load() }

// Histogram counts observations into fixed cumulative buckets. Buckets
// are upper bounds (le), ascending; an implicit +Inf bucket catches the
// overflow. Observations are lock-free; concurrent readers may see a
// momentarily torn (sum, count) pair, which is acceptable for scraping.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf overflow
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// ExpBuckets returns n bucket bounds starting at start, each factor times
// the previous — the usual latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// metricType is the exposition TYPE of a family.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
)

func (t metricType) String() string {
	switch t {
	case counterType:
		return "counter"
	case gaugeType:
		return "gauge"
	case histogramType:
		return "histogram"
	}
	return "untyped"
}

// labelSep joins multi-label child keys. 0xff never appears in valid
// UTF-8 label values, and sorts after every printable byte, so joined
// keys keep the (first label, second label) lexicographic order the
// exposition writer relies on.
const labelSep = "\xff"

// family is one named metric with zero, one, or two label dimensions.
type family struct {
	name, help string
	typ        metricType
	labelKeys  []string // nil for a plain (single-child) metric
	buckets    []float64

	mu   sync.Mutex
	kids map[string]interface{} // labelSep-joined label values ("" when plain) → metric
}

// child returns (creating on first use) the metric for one label value
// (or a labelSep-joined tuple for multi-label families).
func (f *family) child(labelValue string) interface{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.kids[labelValue]
	if m == nil {
		switch f.typ {
		case counterType:
			m = &Counter{}
		case gaugeType:
			m = &Gauge{}
		case histogramType:
			h := &Histogram{upper: f.buckets}
			h.counts = make([]atomic.Uint64, len(f.buckets)+1)
			m = h
		}
		f.kids[labelValue] = m
	}
	return m
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns the counter for one label value, creating it on first use.
// Cache the result on hot paths: With takes the family lock.
func (v *CounterVec) With(labelValue string) *Counter {
	return v.f.child(labelValue).(*Counter)
}

// CounterVec2 is a counter family keyed by two labels — e.g. the
// per-tenant, per-category chargeback counters.
type CounterVec2 struct{ f *family }

// With returns the counter for one (v1, v2) label pair, creating it on
// first use. Cache the result on hot paths: With takes the family lock.
func (v *CounterVec2) With(v1, v2 string) *Counter {
	return v.f.child(v1 + labelSep + v2).(*Counter)
}

// GaugeVec2 is a gauge family keyed by two labels.
type GaugeVec2 struct{ f *family }

// With returns the gauge for one (v1, v2) label pair, creating it on
// first use.
func (v *GaugeVec2) With(v1, v2 string) *Gauge {
	return v.f.child(v1 + labelSep + v2).(*Gauge)
}

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// With returns the gauge for one label value, creating it on first use.
func (v *GaugeVec) With(labelValue string) *Gauge {
	return v.f.child(labelValue).(*Gauge)
}

// HistogramVec is a histogram family keyed by one label — e.g. the
// serve daemon's per-tenant latency families. Every child shares the
// family's bucket bounds.
type HistogramVec struct{ f *family }

// With returns the histogram for one label value, creating it on first
// use. Cache the result on hot paths: With takes the family lock.
func (v *HistogramVec) With(labelValue string) *Histogram {
	return v.f.child(labelValue).(*Histogram)
}

// Registry holds metric families. Safe for concurrent registration,
// mutation and scraping.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family

	bundleMu sync.Mutex
	bundles  map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family), bundles: make(map[string]any)}
}

// bundle returns the registry's cached handle bundle under key, building
// it at most once. RegisterSim/RegisterSched/RegisterLP go through here so
// repeated registration — e.g. sched.LiPS.Init eagerly registering the LP
// families on every Run of a double-Run harness — hands back the identical
// pointers instead of rebuilding the structs (the underlying families were
// already register-or-fetch, so this only removes allocation and lock
// churn, not correctness hazards).
func (r *Registry) bundle(key string, build func() any) any {
	r.bundleMu.Lock()
	defer r.bundleMu.Unlock()
	if r.bundles == nil {
		r.bundles = make(map[string]any)
	}
	b := r.bundles[key]
	if b == nil {
		b = build()
		r.bundles[key] = b
	}
	return b
}

// family registers (or fetches) a family, panicking on a name reuse with
// a different shape — a programmer error, not a runtime condition.
func (r *Registry) family(name, help string, typ metricType, labelKeys []string, buckets []float64) *family {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.fams[name]
		if f == nil {
			f = &family{
				name: name, help: help, typ: typ, labelKeys: labelKeys,
				buckets: buckets, kids: make(map[string]interface{}),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || strings.Join(f.labelKeys, ",") != strings.Join(labelKeys, ",") {
		panic(fmt.Sprintf("obs: %s re-registered as %v labels=%v (was %v labels=%v)",
			name, typ, labelKeys, f.typ, f.labelKeys))
	}
	return f
}

// Counter registers (or fetches) a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, counterType, nil, nil).child("").(*Counter)
}

// CounterVec registers (or fetches) a one-label counter family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{r.family(name, help, counterType, []string{labelKey}, nil)}
}

// CounterVec2 registers (or fetches) a two-label counter family.
func (r *Registry) CounterVec2(name, help, key1, key2 string) *CounterVec2 {
	return &CounterVec2{r.family(name, help, counterType, []string{key1, key2}, nil)}
}

// Gauge registers (or fetches) a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, gaugeType, nil, nil).child("").(*Gauge)
}

// GaugeVec registers (or fetches) a one-label gauge family.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	return &GaugeVec{r.family(name, help, gaugeType, []string{labelKey}, nil)}
}

// GaugeVec2 registers (or fetches) a two-label gauge family.
func (r *Registry) GaugeVec2(name, help, key1, key2 string) *GaugeVec2 {
	return &GaugeVec2{r.family(name, help, gaugeType, []string{key1, key2}, nil)}
}

// Histogram registers (or fetches) a plain histogram with the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: %s: buckets not ascending", name))
	}
	return r.family(name, help, histogramType, nil, buckets).child("").(*Histogram)
}

// HistogramVec registers (or fetches) a one-label histogram family with
// the given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) HistogramVec(name, help, labelKey string, buckets []float64) *HistogramVec {
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: %s: buckets not ascending", name))
	}
	return &HistogramVec{r.family(name, help, histogramType, []string{labelKey}, buckets)}
}

// Value reads one metric's current value: counters and gauges return
// their value, histograms their observation count. labelValue selects the
// child of a labeled family — pass one value per label key, in
// registration order (omit for plain metrics). The second result is
// false when the family or child does not exist.
func (r *Registry) Value(name string, labelValue ...string) (float64, bool) {
	lv := strings.Join(labelValue, labelSep)
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	m := f.kids[lv]
	f.mu.Unlock()
	if m == nil {
		return 0, false
	}
	return metricValue(m), true
}

// Sum totals every child of a family — e.g. the total of a by-category
// cost counter. Missing families sum to zero.
func (r *Registry) Sum(name string) float64 {
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	total := 0.0
	for _, m := range f.kids {
		total += metricValue(m)
	}
	return total
}

func metricValue(m interface{}) float64 {
	switch v := m.(type) {
	case *Counter:
		return v.Value()
	case *Gauge:
		return v.Value()
	case *Histogram:
		return float64(v.Count())
	}
	return 0
}

// escapeLabel escapes a label value for the exposition format.
var escapeLabel = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
