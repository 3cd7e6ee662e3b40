package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded span: the harness's own calls into a layer, named
// after the module the call lands in ("tsdb.open", "analysis.replay", ...).
// Spans named "bench.*" are harness glue; everything else is layer time.
type spanRec struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // offsets from the tracer's start
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer (and the
// nil *span it hands out) is the untraced run: every method is a no-op, so
// workloads call the same code traced and untraced.
type tracer struct {
	mu       sync.Mutex
	workload string
	t0       time.Time
	spans    []spanRec
	cursor   map[int]int64 // per parent: where the next aggregate child starts
}

type span struct {
	tr *tracer
	id int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), cursor: make(map[int]int64)}
}

// begin opens a span under parent (nil parent = root).
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	t.spans = append(t.spans, spanRec{ID: id, Parent: pid, Name: name, Workload: t.workload, StartNs: now, EndNs: -1})
	return &span{tr: t, id: id}
}

func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.tr.begin(s, name)
}

func (s *span) end() {
	if s == nil {
		return
	}
	now := int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans[s.id-1].EndNs = now
	s.tr.mu.Unlock()
}

// aggregate records time accumulated across many short calls (a timed
// recorder's callbacks) as one child of parent. Aggregate children are laid
// end to end from the parent's start so they never overlap each other.
func (s *span) aggregate(name string, d time.Duration) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[s.id-1].StartNs + t.cursor[s.id]
	t.cursor[s.id] += int64(d)
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: s.id, Name: name, Workload: t.workload, StartNs: start, EndNs: start + int64(d)})
}

// durations lists the duration of every finished span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.EndNs >= 0 {
			out = append(out, time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}

// medianSec is the median duration, in seconds, of the spans with the given
// name.
func (t *tracer) medianSec(name string) float64 { return median(seconds(t.durations(name))) }

// selfTimes returns, per span name, duration minus the part of that interval
// child spans cover (children clipped to the parent and unioned, so
// concurrent children are not subtracted twice).
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.EndNs >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		if s.EndNs < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k[0], edge), min(k[1], s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// layerCoverage is the share of the traced time that lands in a span named
// after a module rather than in "bench.*" harness glue: Σ layer self times ÷
// Σ all self times. "bench.wait" is left out of both sums: an open-loop
// generator idling until the next send is due is neither.
func layerCoverage(spans []spanRec) float64 {
	var layer, all time.Duration
	for name, d := range selfTimes(spans) {
		if name == "bench.wait" {
			continue
		}
		all += d
		if !strings.HasPrefix(name, "bench.") {
			layer += d
		}
	}
	if all <= 0 {
		return 0
	}
	return float64(layer) / float64(all)
}

// traceFile is the schema of bench/out/trace-<workload>.json.
type traceFile struct {
	Schema   string             `json:"schema"`
	Host     hostInfo           `json:"host"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfNs   map[string]int64   `json:"self_ns"`
	Spans    []spanRec          `json:"spans"`
	Metrics  map[string]float64 `json:"metrics"`
}

func (t *tracer) write(path string, host hostInfo, seed int64, metrics map[string]float64) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	self := make(map[string]int64)
	for name, d := range selfTimes(spans) {
		self[name] = int64(d)
	}
	return writeJSON(path, traceFile{Schema: "mira-bench-trace/v1", Host: host, Workload: t.workload, Seed: seed, SelfNs: self, Spans: spans, Metrics: metrics})
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
