// Package obs is the zero-dependency observability layer of the digital
// twin: a concurrent metrics registry (counters, gauges, lock-free
// histograms with pre-declared buckets) with Prometheus text-format
// exposition, lightweight trace spans that feed duration histograms and an
// optional structured JSON event log, a small leveled logger, an HTTP
// surface (/metrics, /healthz, net/http/pprof), and a machine-readable
// RunReport snapshot that seeds the repository's BENCH_*.json perf
// trajectories.
//
// The paper's entire contribution is six years of monitoring a production
// system; this package makes the reproduction itself observable the same
// way: tsdb ingest/seal/flush, simulator throughput, and figure-generation
// latency all surface as mira_* series scrapeable while a run is live.
//
// Metric names are validated against the repository-wide namespace rule
// (mira_ prefix, lower-snake-case; see ValidMetricName) at registration,
// and `make lint` re-checks every registration site statically.
package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metricNameRE is the namespace rule: every series this repository exports
// is mira_-prefixed lower-snake-case. scripts/lint_metrics.go applies the
// same expression to registration sites at `make lint` time.
var metricNameRE = regexp.MustCompile(`^mira_[a-z_]+$`)

// ValidMetricName reports whether name satisfies the mira_ snake_case
// namespace rule (no digits, no doubled or trailing underscores).
func ValidMetricName(name string) bool {
	return metricNameRE.MatchString(name) &&
		!strings.Contains(name, "__") &&
		!strings.HasSuffix(name, "_")
}

// labelRE constrains label keys to Prometheus-legal identifiers.
var labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one exported metric name: either a single unlabeled metric or a
// set of children keyed by the value of one label.
type family struct {
	name     string
	help     string
	typ      metricType
	labelKey string    // "" for unlabeled metrics
	buckets  []float64 // histogram families only

	mu       sync.RWMutex
	single   any            // *Counter / *Gauge / *Histogram when labelKey == ""
	children map[string]any // label value -> metric when labelKey != ""
}

// Registry holds metric families, scrape hooks, the process health state,
// and the span event log. The zero value is not usable; call NewRegistry.
// All methods are safe for concurrent use; metric updates on registered
// counters, gauges, and histograms are lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	scrapes  []func()

	healthMu sync.RWMutex
	health   error

	tr tracer

	// spans maps every span name started on this registry to its child of
	// the mira_span_duration_seconds family (spanDur, resolved once), so a
	// span validates its name and finds its histogram once per name, not
	// at every start and End. It is copied on write under spanMu; reads
	// take no lock.
	spanOnce sync.Once
	spanDur  *HistogramVec
	spanMu   sync.Mutex
	spans    atomic.Pointer[map[string]*Histogram]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level helpers and
// all built-in instrumentation (tsdb, sim, analysis, envdb) register into.
func Default() *Registry { return defaultRegistry }

// lookup returns the family for name, creating it on first registration.
// Re-registering an existing name with the same shape returns the existing
// family (first help wins); a type or label mismatch panics — that is a
// programming error, caught at init time.
func (r *Registry) lookup(name, help string, typ metricType, labelKey string, buckets []float64) *family {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: metric name %q violates the mira_[a-z_]+ snake_case namespace rule", name))
	}
	if labelKey != "" && !labelRE.MatchString(labelKey) {
		panic(fmt.Sprintf("obs: metric %s: invalid label key %q", name, labelKey))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || f.labelKey != labelKey {
			panic(fmt.Sprintf("obs: metric %s re-registered as %v(label %q), was %v(label %q)",
				name, typ, labelKey, f.typ, f.labelKey))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labelKey: labelKey, buckets: buckets}
	if labelKey != "" {
		f.children = make(map[string]any)
	}
	r.families[name] = f
	return f
}

// metric returns the family's unlabeled metric, creating it via mk once.
func (f *family) metric(mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = mk()
	}
	return f.single
}

// child returns the labeled child for value, creating it via mk once.
func (f *family) child(value string, mk func() any) any {
	f.mu.RLock()
	m, ok := f.children[value]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[value]; ok {
		return m
	}
	m = mk()
	f.children[value] = m
	return m
}

// sortedFamilies returns the families in name order for deterministic
// exposition and reports.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// sortedChildren returns (labelValue, metric) pairs in label order; for an
// unlabeled family it returns the single metric under the empty value.
func (f *family) sortedChildren() (values []string, metrics []any) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.labelKey == "" {
		if f.single == nil {
			return nil, nil
		}
		return []string{""}, []any{f.single}
	}
	values = make([]string, 0, len(f.children))
	for v := range f.children {
		values = append(values, v)
	}
	sort.Strings(values)
	metrics = make([]any, len(values))
	for i, v := range values {
		metrics[i] = f.children[v]
	}
	return values, metrics
}

// OnScrape registers a hook that runs before every exposition or snapshot —
// the place to refresh scrape-time gauges (e.g. tsdb footprint stats)
// without touching hot paths.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	r.scrapes = append(r.scrapes, f)
	r.mu.Unlock()
}

// runScrapes invokes the scrape hooks outside the registry lock.
func (r *Registry) runScrapes() {
	r.mu.RLock()
	hooks := make([]func(), len(r.scrapes))
	copy(hooks, r.scrapes)
	r.mu.RUnlock()
	for _, f := range hooks {
		f()
	}
}

// SetHealth records the process health: nil marks it healthy, non-nil (for
// example a tsdb open error wrapping ErrCorrupt) flips /healthz to 503 with
// the error text as the body.
func (r *Registry) SetHealth(err error) {
	r.healthMu.Lock()
	r.health = err
	r.healthMu.Unlock()
}

// Health returns the error recorded by SetHealth, nil when healthy.
func (r *Registry) Health() error {
	r.healthMu.RLock()
	defer r.healthMu.RUnlock()
	return r.health
}

// SetHealth sets the default registry's health state.
func SetHealth(err error) { defaultRegistry.SetHealth(err) }
