package obs

// Distributed tracing: every span carries a 64-bit trace/span ID pair with
// parent linkage. Traces are head-sampled probabilistically at the root
// (the decision rides the trace ID, so every process sampling the same
// trace agrees) and tail-kept unconditionally when any span runs slow.
// Completed traces land in a bounded in-memory ring exposed at
// /debug/traces; everything else is discarded, so sampled-out fast
// requests cost two map operations and no retained memory.
//
// Context crosses process boundaries in the X-Mira-Trace header:
//
//	X-Mira-Trace: <16 hex trace ID>/<16 hex span ID>/<0|1 sampled>
//
// exactly 35 bytes. Anything else — truncated, oversized, bad hex, zero
// IDs — is ignored and the receiver starts a fresh root trace; a
// malformed header must never fail a request.

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across processes.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

func (t TraceID) String() string { return hex16(uint64(t)) }
func (s SpanID) String() string  { return hex16(uint64(s)) }

func hex16(v uint64) string {
	var b [16]byte
	const digits = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// TraceHeader is the HTTP header carrying trace context across the wire.
const TraceHeader = "X-Mira-Trace"

// traceHeaderLen is the exact length of a well-formed header value:
// 16 hex + "/" + 16 hex + "/" + one flag byte.
const traceHeaderLen = 35

// SpanContext is the propagated identity of a span: enough for a remote
// child to link back to its parent and to honor the sampling decision.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context names a real span. Zero IDs are
// reserved as "absent".
func (sc SpanContext) Valid() bool { return sc.Trace != 0 && sc.Span != 0 }

// HeaderValue renders the context in X-Mira-Trace wire form.
func (sc SpanContext) HeaderValue() string {
	flag := "/0"
	if sc.Sampled {
		flag = "/1"
	}
	return sc.Trace.String() + "/" + sc.Span.String() + flag
}

// ParseTraceHeader parses an X-Mira-Trace value. Malformed input of any
// kind returns ok=false — never an error, never a panic — so a bad or
// hostile header degrades to a fresh root trace.
func ParseTraceHeader(v string) (SpanContext, bool) {
	if len(v) != traceHeaderLen || v[16] != '/' || v[33] != '/' {
		return SpanContext{}, false
	}
	tr, err := parseHex16(v[:16])
	if err != nil {
		return SpanContext{}, false
	}
	sp, err := parseHex16(v[17:33])
	if err != nil {
		return SpanContext{}, false
	}
	var sampled bool
	switch v[34] {
	case '0':
	case '1':
		sampled = true
	default:
		return SpanContext{}, false
	}
	sc := SpanContext{Trace: TraceID(tr), Span: SpanID(sp), Sampled: sampled}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// parseHex16 is a strict lowercase-or-uppercase hex parse of exactly 16
// digits; strconv.ParseUint would also do, but being explicit keeps the
// accepted grammar obvious (no signs, no "0x", no underscores).
func parseHex16(s string) (uint64, error) {
	var v uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, strconv.ErrSyntax
		}
		v = v<<4 | d
	}
	return v, nil
}

// remoteCtxKey carries a SpanContext extracted from an incoming header.
// It is distinct from spanCtxKey (a live local *ActiveSpan): a remote
// parent has no End to call here — it only seeds linkage and sampling.
type remoteCtxKey struct{}

// ContextWithRemoteSpan returns a context under which the next Span call
// becomes a child of the given remote span. Invalid contexts are dropped.
func ContextWithRemoteSpan(ctx context.Context, sc SpanContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// SpanContextFrom returns the context to propagate on an outgoing RPC:
// the active local span's, or the remote parent's when no local span has
// been started yet.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	if ctx == nil {
		return SpanContext{}, false
	}
	if s, ok := ctx.Value(spanCtxKey{}).(*ActiveSpan); ok && s != nil {
		return s.sc, true
	}
	if sc, ok := ctx.Value(remoteCtxKey{}).(SpanContext); ok && sc.Valid() {
		return sc, true
	}
	return SpanContext{}, false
}

// TracerConfig bounds the tracer. The zero value of each field selects
// its default; a SampleRatio of exactly 0 is honored (slow-only tracing)
// by passing NoSample.
type TracerConfig struct {
	// SampleRatio is the probability a new root trace is head-sampled.
	// 0 means the default (1.0: keep everything, the ring bounds cost).
	SampleRatio float64
	// NoSample disables head sampling entirely: only traces containing
	// a slow span are retained. Overrides SampleRatio.
	NoSample bool
	// SlowSpan retains any trace containing a span at least this slow,
	// regardless of the sampling decision. Default 100ms.
	SlowSpan time.Duration
}

const (
	defaultSlowSpan = 100 * time.Millisecond
	// maxTraces bounds the completed-trace ring.
	maxTraces = 256
	// maxSpans bounds spans retained per trace; excess spans still run
	// and record metrics but are counted as truncated.
	maxSpans = 512
)

func (c TracerConfig) withDefaults() TracerConfig {
	if c.NoSample || c.SampleRatio < 0 {
		c.SampleRatio = 0
	} else if c.SampleRatio == 0 || c.SampleRatio > 1 {
		c.SampleRatio = 1
	}
	if c.SlowSpan <= 0 {
		c.SlowSpan = defaultSlowSpan
	}
	return c
}

// SpanRecord is one completed span inside a retained trace.
type SpanRecord struct {
	Name     string
	ID       SpanID
	Parent   SpanID // zero for a process-local root
	Start    time.Time
	Duration time.Duration
	Attrs    [][2]string
}

// TraceRecord is one retained trace — or, for a trace that crossed
// processes, the fragment of it this process observed. The /debug/traces
// tree view merges fragments sharing a trace ID.
type TraceRecord struct {
	Trace     TraceID
	Sampled   bool // head-sampling decision
	Slow      bool // contained a span ≥ SlowSpan
	Truncated int  // spans dropped past maxSpans
	Done      time.Time
	Spans     []SpanRecord
}

// traceBuf accumulates spans for one in-flight trace. A trace fragment
// completes when its open-span count returns to zero.
type traceBuf struct {
	sampled   bool
	slow      bool
	open      int
	truncated int
	spans     []SpanRecord
}

// tracer is the per-Registry trace collector. Unconfigured registries
// trace with defaults, so tests exercising spans need no setup.
type tracer struct {
	mu         sync.Mutex
	configured bool
	cfg        TracerConfig
	inflight   map[TraceID]*traceBuf
	ring       []TraceRecord // rotating; next is the oldest slot once full
	next       int
	seq        uint64 // total finalized+kept, for newest-first ordering
}

// maxInflightFactor bounds concurrently-open distinct traces relative to
// the ring size; beyond it new traces run untracked (metrics and the
// event log still see their spans).
const maxInflightFactor = 4

func (t *tracer) config() TracerConfig {
	if !t.configured {
		t.configured = true
		t.cfg = TracerConfig{}.withDefaults()
	}
	return t.cfg
}

// ConfigureTracer replaces the registry's tracing policy. Retained traces
// are kept; in-flight traces finish under the new policy.
func (r *Registry) ConfigureTracer(cfg TracerConfig) {
	t := &r.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	t.configured = true
	t.cfg = cfg.withDefaults()
}

// ConfigureTracer configures the default registry's tracer.
func ConfigureTracer(cfg TracerConfig) { defaultRegistry.ConfigureTracer(cfg) }

// sampleHead decides head sampling for a new root trace. The decision is
// a pure function of the trace ID so that any process seeing the same
// trace (via propagation) agrees without coordination.
func (t *tracer) sampleHead(trace TraceID) bool {
	t.mu.Lock()
	ratio := t.config().SampleRatio
	t.mu.Unlock()
	if ratio >= 1 {
		return true
	}
	if ratio <= 0 {
		return false
	}
	// Trace IDs are splitmix64 outputs, uniform over uint64; the top 53
	// bits map to [0,1) exactly.
	return float64(uint64(trace)>>11)/(1<<53) < ratio
}

// spanStarted registers a span under its trace and reports whether the
// tracer will accept its End. Untracked spans (inflight cap exceeded)
// must not decrement open counts later, or a concurrent trace's
// bookkeeping would corrupt.
func (t *tracer) spanStarted(trace TraceID, sampled bool) bool {
	if trace == 0 {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.inflight == nil {
		t.inflight = make(map[TraceID]*traceBuf)
	}
	buf := t.inflight[trace]
	if buf == nil {
		if len(t.inflight) >= maxInflightFactor*maxTraces {
			return false
		}
		buf = &traceBuf{sampled: sampled}
		t.inflight[trace] = buf
	}
	buf.open++
	return true
}

// spanEnded records a completed span; when it closes the last open span
// of its trace the fragment finalizes. Returns (finalized, kept).
func (t *tracer) spanEnded(trace TraceID, rec SpanRecord) (bool, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cfg := t.config()
	buf := t.inflight[trace]
	if buf == nil {
		return false, false
	}
	if len(buf.spans) < maxSpans {
		buf.spans = append(buf.spans, rec)
	} else {
		buf.truncated++
	}
	if rec.Duration >= cfg.SlowSpan {
		buf.slow = true
	}
	buf.open--
	if buf.open > 0 {
		return false, false
	}
	delete(t.inflight, trace)
	if !buf.sampled && !buf.slow {
		return true, false
	}
	tr := TraceRecord{
		Trace:     trace,
		Sampled:   buf.sampled,
		Slow:      buf.slow,
		Truncated: buf.truncated,
		Done:      time.Now(),
		Spans:     buf.spans,
	}
	if len(t.ring) < maxTraces {
		t.ring = append(t.ring, tr)
	} else {
		t.ring[t.next] = tr
		t.next = (t.next + 1) % len(t.ring)
	}
	t.seq++
	return true, true
}

// snapshot returns retained traces newest-first. Span slices are owned by
// the ring and immutable after finalize, so sharing them is safe.
func (t *tracer) snapshot() []TraceRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceRecord, 0, len(t.ring))
	// Ring order: slots [next, len) then [0, next) oldest→newest while
	// rotating; before the first wrap next stays 0 and append order is
	// chronological. Emit newest first either way.
	for i := len(t.ring) - 1; i >= 0; i-- {
		idx := (t.next + i) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// Traces returns the registry's retained traces, newest first.
func (r *Registry) Traces() []TraceRecord { return r.tr.snapshot() }

// TraceByID returns every retained fragment of one trace, oldest first.
// A distributed trace finalizes independently per process, so a ring can
// hold several fragments sharing an ID.
func (r *Registry) TraceByID(id TraceID) []TraceRecord {
	all := r.tr.snapshot()
	var out []TraceRecord
	for i := len(all) - 1; i >= 0; i-- { // snapshot is newest-first
		if all[i].Trace == id {
			out = append(out, all[i])
		}
	}
	return out
}

// traceFinalized bumps the retention counters; they live on the metrics
// side of the registry, so increment outside the tracer lock.
func (r *Registry) traceFinalized(kept bool) {
	if kept {
		r.Counter("mira_trace_kept_total", "Completed traces retained in the ring.").Inc()
	} else {
		r.Counter("mira_trace_dropped_total", "Completed traces discarded by sampling.").Inc()
	}
}

// ID generation: splitmix64 over an atomic counter seeded from the OS
// entropy pool. Cheap (one atomic add + mixing), collision-resistant
// enough for trace correlation, and valid (non-zero) by construction.
var idCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idCounter.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idCounter.Store(uint64(time.Now().UnixNano()))
	}
}

func newID() uint64 {
	for {
		z := idCounter.Add(0x9E3779B97F4A7C15)
		z ^= z >> 30
		z *= 0xBF58476D1CE4E5B9
		z ^= z >> 27
		z *= 0x94D049BB133111EB
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// mergeFragments flattens a set of fragments into one span list sorted by
// start time, for the single-trace tree view.
func mergeFragments(frags []TraceRecord) []SpanRecord {
	var spans []SpanRecord
	for _, f := range frags {
		spans = append(spans, f.Spans...)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return spans
}
