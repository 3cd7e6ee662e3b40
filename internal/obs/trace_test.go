package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceHeader(t *testing.T) {
	valid := SpanContext{Trace: 0xdeadbeefcafef00d, Span: 0x0123456789abcdef, Sampled: true}
	cases := []struct {
		name string
		in   string
		want SpanContext
		ok   bool
	}{
		{"valid sampled", valid.HeaderValue(), valid, true},
		{"valid unsampled", "deadbeefcafef00d/0123456789abcdef/0",
			SpanContext{Trace: 0xdeadbeefcafef00d, Span: 0x0123456789abcdef}, true},
		{"uppercase hex", "DEADBEEFCAFEF00D/0123456789ABCDEF/1", valid, true},
		{"empty", "", SpanContext{}, false},
		{"truncated", "deadbeefcafef00d/0123456789abcdef", SpanContext{}, false},
		{"oversized", "deadbeefcafef00d/0123456789abcdef/11", SpanContext{}, false},
		{"bad separator", "deadbeefcafef00d.0123456789abcdef/1", SpanContext{}, false},
		{"bad hex trace", "xeadbeefcafef00d/0123456789abcdef/1", SpanContext{}, false},
		{"bad hex span", "deadbeefcafef00d/x123456789abcdef/1", SpanContext{}, false},
		{"signed digit", "+eadbeefcafef00d/0123456789abcdef/1", SpanContext{}, false},
		{"bad flag", "deadbeefcafef00d/0123456789abcdef/2", SpanContext{}, false},
		{"zero trace", "0000000000000000/0123456789abcdef/1", SpanContext{}, false},
		{"zero span", "deadbeefcafef00d/0000000000000000/1", SpanContext{}, false},
		{"garbage", strings.Repeat("\xff", 35), SpanContext{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseTraceHeader(tc.in)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("ParseTraceHeader(%q) = %+v, %v; want %+v, %v", tc.in, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		sc := SpanContext{Trace: TraceID(newID()), Span: SpanID(newID()), Sampled: i%2 == 0}
		v := sc.HeaderValue()
		if len(v) != traceHeaderLen {
			t.Fatalf("HeaderValue %q: length %d, want %d", v, len(v), traceHeaderLen)
		}
		got, ok := ParseTraceHeader(v)
		if !ok || got != sc {
			t.Fatalf("roundtrip %+v -> %q -> %+v, %v", sc, v, got, ok)
		}
	}
}

func TestSpanParentLinkage(t *testing.T) {
	r := NewRegistry()
	r.ConfigureTracer(TracerConfig{})
	ctx, root := r.Span(context.Background(), "test.root")
	_, child := r.Span(ctx, "test.child")
	if child.Context().Trace != root.Context().Trace {
		t.Fatalf("child trace %s != root trace %s", child.Context().Trace, root.Context().Trace)
	}
	if child.parentID != root.Context().Span {
		t.Fatalf("child parent %s != root span %s", child.parentID, root.Context().Span)
	}
	child.End()
	if got := r.Traces(); len(got) != 0 {
		t.Fatalf("trace finalized with root still open: %d ring entries", len(got))
	}
	root.End()
	frags := r.TraceByID(root.Context().Trace)
	if len(frags) != 1 || len(frags[0].Spans) != 2 {
		t.Fatalf("want one fragment with 2 spans, got %+v", frags)
	}
}

func TestRemoteParentLinkage(t *testing.T) {
	r := NewRegistry()
	remote := SpanContext{Trace: TraceID(newID()), Span: SpanID(newID()), Sampled: true}
	ctx := ContextWithRemoteSpan(context.Background(), remote)
	_, s := r.Span(ctx, "test.handler")
	if s.Context().Trace != remote.Trace {
		t.Fatalf("span trace %s, want remote trace %s", s.Context().Trace, remote.Trace)
	}
	if s.parentID != remote.Span {
		t.Fatalf("span parent %s, want remote span %s", s.parentID, remote.Span)
	}
	if !s.Context().Sampled {
		t.Fatal("span did not inherit remote sampled flag")
	}
	s.End()
	if frags := r.TraceByID(remote.Trace); len(frags) != 1 {
		t.Fatalf("want 1 fragment for remote-parented trace, got %d", len(frags))
	}
}

func TestSampledOutFastSpansAddNoRingEntries(t *testing.T) {
	r := NewRegistry()
	r.ConfigureTracer(TracerConfig{NoSample: true, SlowSpan: time.Hour})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ctx, root := r.Span(context.Background(), "test.fast")
				_, child := r.Span(ctx, "test.fast_child")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Traces(); len(got) != 0 {
		t.Fatalf("sampled-out fast traces retained %d ring entries, want 0", len(got))
	}
	if n := len(r.tr.inflight); n != 0 {
		t.Fatalf("%d traces leaked in the inflight map", n)
	}
}

func TestSlowTracesAlwaysKept(t *testing.T) {
	r := NewRegistry()
	r.ConfigureTracer(TracerConfig{NoSample: true, SlowSpan: time.Nanosecond})
	_, s := r.Span(context.Background(), "test.slow")
	time.Sleep(time.Microsecond)
	s.End()
	frags := r.TraceByID(s.Context().Trace)
	if len(frags) != 1 || !frags[0].Slow {
		t.Fatalf("slow trace not retained: %+v", frags)
	}
	if frags[0].Sampled {
		t.Fatal("NoSample trace reported head-sampled")
	}
}

func TestRingBoundedAndNewestFirst(t *testing.T) {
	r := NewRegistry()
	var ids []TraceID
	for i := 0; i < maxTraces+6; i++ {
		_, s := r.Span(context.Background(), "test.ring")
		ids = append(ids, s.Context().Trace)
		s.End()
	}
	got := r.Traces()
	if len(got) != maxTraces {
		t.Fatalf("ring holds %d traces, want %d", len(got), maxTraces)
	}
	for i, tr := range got {
		if want := ids[len(ids)-1-i]; tr.Trace != want {
			t.Fatalf("ring[%d] = %s, want %s (newest first)", i, tr.Trace, want)
		}
	}
}

func TestMaxSpansTruncation(t *testing.T) {
	r := NewRegistry()
	ctx, root := r.Span(context.Background(), "test.trunc")
	for i := 0; i < maxSpans+3; i++ {
		_, c := r.Span(ctx, "test.trunc_child")
		c.End()
	}
	root.End()
	frags := r.TraceByID(root.Context().Trace)
	if len(frags) != 1 {
		t.Fatalf("want 1 fragment, got %d", len(frags))
	}
	if len(frags[0].Spans) != maxSpans || frags[0].Truncated != 4 {
		t.Fatalf("got %d spans, %d truncated; want %d spans, 4 truncated",
			len(frags[0].Spans), frags[0].Truncated, maxSpans)
	}
}

func TestDebugTracesEndpoints(t *testing.T) {
	r := NewRegistry()
	r.ConfigureTracer(TracerConfig{})
	ctx, root := r.Span(context.Background(), "test.request")
	_, child := r.Span(ctx, "test.scan")
	child.SetAttr("rows", "42")
	child.End()
	root.End()
	h := r.buildMux()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces: status %d", rec.Code)
	}
	var list []struct {
		Trace string `json:"trace"`
		Root  string `json:"root"`
		Spans int    `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("/debug/traces: bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(list) != 1 || list[0].Root != "test.request" || list[0].Spans != 2 {
		t.Fatalf("/debug/traces: got %+v", list)
	}
	if list[0].Trace != root.Context().Trace.String() {
		t.Fatalf("/debug/traces: trace %s, want %s", list[0].Trace, root.Context().Trace)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+list[0].Trace, nil))
	if rec.Code != 200 {
		t.Fatalf("tree view: status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "test.request") || !strings.Contains(body, "  test.scan") {
		t.Fatalf("tree view missing nested spans:\n%s", body)
	}
	if !strings.Contains(body, "rows=42") {
		t.Fatalf("tree view missing span attrs:\n%s", body)
	}

	for path, want := range map[string]int{
		"/debug/traces/zz":               400,
		"/debug/traces/0000000000000000": 400,
		"/debug/traces/ffffffffffffffff": 404,
	} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != want {
			t.Fatalf("%s: status %d, want %d", path, rec.Code, want)
		}
	}
}

func TestHistogramExemplarRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mira_test_exemplar_seconds", "test", []float64{0.1, 1})
	h.Observe(0.05)
	var buf strings.Builder
	r.WritePrometheus(&buf)
	if strings.Contains(buf.String(), "#") && strings.Contains(buf.String(), "trace_id") {
		t.Fatalf("exemplar rendered before any was recorded:\n%s", buf.String())
	}
	h.ObserveExemplar(0.5, "deadbeefcafef00d")
	buf.Reset()
	r.WritePrometheus(&buf)
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, ` # {trace_id="deadbeefcafef00d"} 0.5 `) {
			found = true
			if !strings.Contains(line, `le="1"`) {
				t.Fatalf("exemplar on wrong bucket: %s", line)
			}
		}
	}
	if !found {
		t.Fatalf("exemplar not rendered:\n%s", buf.String())
	}
}

func FuzzParseTraceHeader(f *testing.F) {
	f.Add("deadbeefcafef00d/0123456789abcdef/1")
	f.Add("deadbeefcafef00d/0123456789abcdef/0")
	f.Add("DEADBEEFCAFEF00D/0123456789ABCDEF/1")
	f.Add("")
	f.Add("deadbeefcafef00d/0123456789abcdef")
	f.Add("deadbeefcafef00d/0123456789abcdef/11")
	f.Add("0000000000000000/0000000000000000/1")
	f.Add(strings.Repeat("/", 35))
	f.Add(strings.Repeat("f", 35))
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceHeader(v)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected input %q returned non-zero context %+v", v, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted input %q yielded invalid context %+v", v, sc)
		}
		// Accepted headers must survive a render/parse round trip.
		re, ok2 := ParseTraceHeader(sc.HeaderValue())
		if !ok2 || re != sc {
			t.Fatalf("roundtrip of %q: %+v -> %+v (ok=%v)", v, sc, re, ok2)
		}
	})
}
