package obs

import (
	"context"
	"fmt"
	"maps"
	"regexp"
	"sync"
	"time"
)

// Trace spans: a span is a named, timed region of work ("tsdb.flush",
// "analysis.fig9"). Ending a span feeds the registry's
// mira_span_duration_seconds histogram (labeled by span name). Every span also
// belongs to a trace (see trace.go): it carries a 64-bit trace/span ID
// pair, links to its parent — a local span in the context, or a remote one
// extracted from an X-Mira-Trace header — and, when its trace is retained,
// lands in the /debug/traces ring.

// spanNameRE keeps span names label-safe and grep-able.
var spanNameRE = regexp.MustCompile(`^[a-z][a-z0-9_.]*$`)

type spanCtxKey struct{}

// ActiveSpan is an in-flight span; call End exactly once.
type ActiveSpan struct {
	reg      *Registry
	name     string
	dur      *Histogram // name's child of mira_span_duration_seconds
	start    time.Time
	sc       SpanContext
	parentID SpanID
	tracked  bool // tracer accepted spanStarted; End must report back

	attrMu sync.Mutex
	attrs  [][2]string
}

// Span starts a span on the default registry. The returned context carries
// the span so nested spans link to it as their parent.
func Span(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	return defaultRegistry.Span(ctx, name)
}

// Span starts a span on this registry.
func (r *Registry) Span(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	s := &ActiveSpan{reg: r, name: name, dur: r.spanHistogram(name), start: time.Now()}
	if ctx == nil {
		ctx = context.Background()
	}
	if parent, ok := ctx.Value(spanCtxKey{}).(*ActiveSpan); ok && parent != nil {
		s.sc.Trace = parent.sc.Trace
		s.sc.Sampled = parent.sc.Sampled
		s.parentID = parent.sc.Span
	} else if rsc, ok := ctx.Value(remoteCtxKey{}).(SpanContext); ok && rsc.Valid() {
		s.sc.Trace = rsc.Trace
		s.sc.Sampled = rsc.Sampled
		s.parentID = rsc.Span
	} else {
		s.sc.Trace = TraceID(newID())
		s.sc.Sampled = r.tr.sampleHead(s.sc.Trace)
	}
	s.sc.Span = SpanID(newID())
	s.tracked = r.tr.spanStarted(s.sc.Trace, s.sc.Sampled)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Context returns the span's propagation context; zero for a nil span.
func (s *ActiveSpan) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetAttr attaches a key/value annotation shown in the /debug/traces tree
// (e.g. rows decoded, scan mode). Nil-safe; last write wins on render.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrMu.Lock()
	s.attrs = append(s.attrs, [2]string{key, value})
	s.attrMu.Unlock()
}

// End records the span's duration. Safe to call on a nil span (a no-op), so
// callers can End unconditionally after conditional starts.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	elapsed := time.Since(s.start)
	s.dur.Observe(elapsed.Seconds())
	if !s.tracked {
		return
	}
	s.attrMu.Lock()
	attrs := s.attrs
	s.attrs = nil
	s.attrMu.Unlock()
	finalized, kept := s.reg.tr.spanEnded(s.sc.Trace, SpanRecord{
		Name:     s.name,
		ID:       s.sc.Span,
		Parent:   s.parentID,
		Start:    s.start,
		Duration: elapsed,
		Attrs:    attrs,
	})
	if finalized {
		s.reg.traceFinalized(kept)
	}
}

// spanHistogram returns the duration histogram of span name, validating
// the name the first time r sees it; later spans of the name cost one
// lock-free map read.
func (r *Registry) spanHistogram(name string) *Histogram {
	if m := r.spans.Load(); m != nil {
		if h, ok := (*m)[name]; ok {
			return h
		}
	}
	if !spanNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid span name %q", name))
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	var names map[string]*Histogram
	if m := r.spans.Load(); m != nil {
		if h, ok := (*m)[name]; ok {
			return h
		}
		names = maps.Clone(*m)
	} else {
		names = make(map[string]*Histogram)
	}
	h := r.spanDurations().With(name)
	names[name] = h
	r.spans.Store(&names)
	return h
}

// spanDurations returns the span histogram family, registering it on the
// registry's first span.
func (r *Registry) spanDurations() *HistogramVec {
	r.spanOnce.Do(func() {
		r.spanDur = r.HistogramVec("mira_span_duration_seconds",
			"wall-clock duration of trace spans, labeled by span name", "span", nil)
	})
	return r.spanDur
}
