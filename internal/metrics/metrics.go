// Package metrics is SwitchPointer's self-observability plane: a
// stdlib-only metrics registry — counters, gauges, and fixed-bucket
// histograms, all with labels — rendered in the Prometheus text exposition
// format (version 0.0.4) at GET /metrics on every spd daemon role.
//
// Two registration styles cover the two instrumentation shapes in the tree:
//
//   - Vec instruments (Counter/Gauge/Histogram) are push-style: the
//     admission controller observes a queue wait the moment it ends. Their
//     values live in the registry as lock-free atomics.
//   - Func families (CounterFunc/GaugeFunc) are scrape-style: a callback
//     emits one sample per label tuple at render time, reading whatever
//     synchronized accessor the instrumented layer already has (store
//     lengths, pointer footprints, readiness counters). The deep
//     deterministic packages therefore never import this one.
//
// Rendering is deterministic by construction — families sort by name,
// samples by label tuple — so repeated scrapes of unchanged state are
// byte-identical regardless of map iteration order (the property
// TestGoldenRendering and TestRenderingDeterministic pin down).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type as declared on the wire (# TYPE line).
type Kind int

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Emit delivers one sample from a Func family's collect callback. The label
// values must match the family's label names positionally.
type Emit func(value float64, labelValues ...string)

// Registry holds metric families and renders them. All methods are safe for
// concurrent use. Registries are per-daemon instances — there is no global
// default, so tests and loopback clusters never share counters.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric family: a name, help, kind, label schema, and either
// stored children (vec instruments) or a scrape-time collect callback.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, sorted, no +Inf

	mu       sync.Mutex
	children map[string]*child
	collect  func(Emit) // nil for vec families
}

// child is one label tuple's value cell. Counter/gauge values live in bits
// (float64 bit patterns, CAS-updated); histograms use counts/sumBits/count.
type child struct {
	labelValues []string
	bits        atomic.Uint64

	counts  []atomic.Uint64 // per-bucket (non-cumulative), last = +Inf
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// register installs (or idempotently returns) a family. Registering the
// same name with a different kind or label schema panics: that is a
// programming error no daemon should boot past.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string, collect func(Emit)) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || f.collect != nil || collect != nil {
			panic(fmt.Sprintf("metrics: %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
		collect:  collect,
	}
	r.families[name] = f
	return f
}

// Counter registers (or returns) a counter family.
func (r *Registry) Counter(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, KindCounter, nil, labelNames, nil)}
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, KindGauge, nil, labelNames, nil)}
}

// Histogram registers (or returns) a fixed-bucket histogram family. Buckets
// are upper bounds; they must be strictly increasing. A trailing +Inf is
// implicit (and stripped if supplied).
func (r *Registry) Histogram(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	if len(buckets) > 0 && math.IsInf(buckets[len(buckets)-1], +1) {
		buckets = buckets[:len(buckets)-1]
	}
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one finite bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing", name))
		}
	}
	return &HistogramVec{f: r.register(name, help, KindHistogram, append([]float64(nil), buckets...), labelNames, nil)}
}

// CounterFunc registers a scrape-time counter family: collect is called at
// every render and emits one sample per label tuple. The emitted values
// must be monotonically non-decreasing across scrapes (they typically read
// a layer's own accumulated counter).
func (r *Registry) CounterFunc(name, help string, labelNames []string, collect func(Emit)) {
	r.register(name, help, KindCounter, nil, labelNames, collect)
}

// GaugeFunc registers a scrape-time gauge family.
func (r *Registry) GaugeFunc(name, help string, labelNames []string, collect func(Emit)) {
	r.register(name, help, KindGauge, nil, labelNames, collect)
}

// Uptime registers a label-less gauge reporting seconds since registration
// — the one deliberately wall-clock metric a daemon exports. It is never
// part of a drift-gated rendering (tests and benches build registries
// without it).
func (r *Registry) Uptime(name, help string) {
	start := time.Now()
	r.GaugeFunc(name, help, nil, func(emit Emit) {
		emit(time.Since(start).Seconds())
	})
}

// childFor returns the value cell for one label tuple, creating it on first
// use.
func (f *family) childFor(labelValues []string) *child {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %q expects %d label values, got %d", f.name, len(f.labels), len(labelValues)))
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{labelValues: append([]string(nil), labelValues...)}
		if f.kind == KindHistogram {
			c.counts = make([]atomic.Uint64, len(f.buckets)+1)
		}
		f.children[key] = c
	}
	return c
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the counter for one label tuple.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{ch: v.f.childFor(labelValues)}
}

// Counter is a monotonically increasing value.
type Counter struct{ ch *child }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (panics if negative: counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("metrics: counter decrease")
	}
	addFloat(&c.ch.bits, v)
}

// Value returns the current value.
func (c *Counter) Value() float64 { return math.Float64frombits(c.ch.bits.Load()) }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for one label tuple.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{ch: v.f.childFor(labelValues)}
}

// Gauge is a value that can go up and down.
type Gauge struct{ ch *child }

// Set stores v.
func (g *Gauge) Set(v float64) { g.ch.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.ch.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.ch.bits.Load()) }

// HistogramVec is a labelled fixed-bucket histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for one label tuple.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{ch: v.f.childFor(labelValues), bounds: v.f.buckets}
}

// Histogram accumulates observations into fixed buckets.
type Histogram struct {
	ch     *child
	bounds []float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le is inclusive)
	h.ch.counts[i].Add(1)
	addFloat(&h.ch.sumBits, v)
	h.ch.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.ch.count.Load() }

// addFloat CAS-adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if len(s) == 0 {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if len(s) == 0 || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		ok := r == '_' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}
