package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric. Updates are single
// atomic adds, safe on the hottest paths (one per tsdb append).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta with a CAS loop.
func (g *Gauge) Add(delta float64) { addFloatBits(&g.bits, delta) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a lock-free fixed-bucket histogram: bucket bounds are
// declared at registration, so Observe is one binary search plus three
// atomic updates — no allocation, no locks, safe to hammer from any number
// of goroutines while /metrics is scraped.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	ex      []atomic.Pointer[exemplar] // one slot per bucket, incl. +Inf
}

// exemplarKey is the single label allowed on exemplars. One fixed key and
// one slot per bucket keeps exemplar cardinality bounded by construction:
// at most len(bounds)+1 exemplars per histogram, each carrying one trace
// ID. scripts/lint_metrics.go pins this.
const exemplarKey = "trace_id"

// exemplar links one histogram bucket to a captured trace.
type exemplar struct {
	value float64
	trace string
	when  time.Time
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
		ex:     make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sumBits, v)
}

// ObserveExemplar records one sample and, when trace is non-empty,
// remembers it as the bucket's exemplar — the `... # {trace_id="..."}`
// suffix on the exposition's _bucket line. Last writer wins per bucket;
// one atomic pointer swap over Observe's cost.
func (h *Histogram) ObserveExemplar(v float64, trace string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sumBits, v)
	if trace != "" {
		h.ex[i].Store(&exemplar{value: v, trace: trace, when: time.Now()})
	}
}

// ObserveSince records the seconds elapsed since start — the idiom for
// duration histograms: defer h.ObserveSince(time.Now()).
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshotBuckets returns cumulative bucket counts aligned with bounds plus
// the trailing +Inf bucket. The counts are read bucket by bucket without a
// global lock, so a snapshot taken mid-observation may briefly undercount
// the total relative to Count — Prometheus tolerates this by design.
func (h *Histogram) snapshotBuckets() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// addFloatBits atomically adds delta to a float64 stored as uint64 bits.
func addFloatBits(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		want := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, want) {
			return
		}
	}
}

// DurationBuckets spans 10 µs .. 2 min — wide enough for a block seal on
// one end and a cold six-year figure pass on the other.
var DurationBuckets = []float64{
	1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 1, 5, 15, 60, 120,
}

// ByteBuckets spans 1 KiB .. 1 GiB in powers of eight.
var ByteBuckets = []float64{
	1 << 10, 1 << 13, 1 << 16, 1 << 19, 1 << 22, 1 << 25, 1 << 28, 1 << 30,
}

// CounterVec is a family of counters keyed by one label's value.
type CounterVec struct{ f *family }

// With returns the child counter for the label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	return v.f.child(value, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a family of gauges keyed by one label's value.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label value.
func (v *GaugeVec) With(value string) *Gauge {
	return v.f.child(value, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a family of histograms keyed by one label's value, all
// sharing the family's bucket bounds.
type HistogramVec struct{ f *family }

// With returns the child histogram for the label value.
func (v *HistogramVec) With(value string) *Histogram {
	return v.f.child(value, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, typeCounter, "", nil)
	return f.metric(func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, typeGauge, "", nil)
	return f.metric(func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers (or returns the existing) unlabeled histogram. A nil
// buckets slice selects DurationBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, typeHistogram, "", normBuckets(buckets))
	return f.metric(func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec registers a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, typeCounter, labelKey, nil)}
}

// GaugeVec registers a gauge family keyed by one label.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, typeGauge, labelKey, nil)}
}

// HistogramVec registers a histogram family keyed by one label. A nil
// buckets slice selects DurationBuckets.
func (r *Registry) HistogramVec(name, help, labelKey string, buckets []float64) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, typeHistogram, labelKey, normBuckets(buckets))}
}

// normBuckets defaults nil to DurationBuckets and verifies ascending order.
func normBuckets(b []float64) []float64 {
	if b == nil {
		return DurationBuckets
	}
	if !sort.Float64sAreSorted(b) {
		panic("obs: histogram buckets must be ascending")
	}
	return b
}

// Package-level constructors registering on the default registry — the form
// instrumentation uses for package-scoped metric variables.

// NewCounter registers an unlabeled counter on the default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.Counter(name, help) }

// NewGauge registers an unlabeled gauge on the default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.Gauge(name, help) }

// NewHistogram registers an unlabeled histogram on the default registry.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return defaultRegistry.Histogram(name, help, buckets)
}

// NewCounterVec registers a labeled counter family on the default registry.
func NewCounterVec(name, help, labelKey string) *CounterVec {
	return defaultRegistry.CounterVec(name, help, labelKey)
}

// NewHistogramVec registers a labeled histogram family on the default
// registry.
func NewHistogramVec(name, help, labelKey string, buckets []float64) *HistogramVec {
	return defaultRegistry.HistogramVec(name, help, labelKey, buckets)
}
