package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestSpanFeedsHistogram(t *testing.T) {
	r := NewRegistry()
	ctx, outer := r.Span(context.Background(), "test.outer")
	_, inner := r.Span(ctx, "test.inner")
	inner.End()
	outer.End()

	for _, name := range []string{"test.outer", "test.inner"} {
		if got := r.spanDurations().With(name).Count(); got != 1 {
			t.Errorf("%s span observations = %d, want 1", name, got)
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	var s *ActiveSpan
	s.End() // must not panic

	_, sp := Span(nil, "test.nilctx") // nil ctx is allowed
	sp.End()
}

func TestSpanBadNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid span name")
		}
	}()
	Span(context.Background(), "Bad Name")
}

func TestLoggerTextAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "text", "testcmd")
	l.Debugf("hidden")
	l.Infof("hello %d", 7)
	l.Warnf("careful")

	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Error("debug line emitted below min level")
	}
	for _, want := range []string{"info  testcmd: hello 7", "warn  testcmd: careful"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	l.setLevel(LevelDebug)
	l.Debugf("now visible")
	if !strings.Contains(buf.String(), "debug testcmd: now visible") {
		t.Errorf("debug line missing after setLevel:\n%s", buf.String())
	}
}

func TestLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "json", "testcmd")
	l.Errorf("bad %s", "thing")

	var line struct {
		TS        string `json:"ts"`
		Level     string `json:"level"`
		Component string `json:"component"`
		Msg       string `json:"msg"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, buf.String())
	}
	if line.Level != "error" || line.Component != "testcmd" || line.Msg != "bad thing" || line.TS == "" {
		t.Errorf("json line = %+v", line)
	}
}

func TestRunReportSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("mira_test_report_total", "c").Add(5)
	r.GaugeVec("mira_test_report_depth", "g", "shard").With("07").Set(2.5)
	h := r.Histogram("mira_test_report_seconds", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(3)

	rep := r.Snapshot()
	if rep.Schema != "mira-run-report/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Counters["mira_test_report_total"] != 5 {
		t.Errorf("counters = %v", rep.Counters)
	}
	if rep.Gauges[`mira_test_report_depth{shard="07"}`] != 2.5 {
		t.Errorf("gauges = %v", rep.Gauges)
	}
	snap := rep.Histograms["mira_test_report_seconds"]
	if snap.Count != 2 || snap.Sum != 3.5 || len(snap.Buckets) != 2 {
		t.Fatalf("histogram snap = %+v", snap)
	}
	if snap.Buckets[0].Count != 1 || snap.Buckets[1].Count != 2 {
		t.Errorf("cumulative buckets = %+v", snap.Buckets)
	}

	// The +Inf bound must serialize as the string "+Inf", keeping the
	// report parseable by strict JSON tooling.
	var buf bytes.Buffer
	if err := r.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"le": "+Inf"`) {
		t.Errorf("report lacks +Inf rendering:\n%s", buf.String())
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
}

func TestRunReportDropsNonFiniteGauges(t *testing.T) {
	r := NewRegistry()
	r.Gauge("mira_test_nan", "NaN until first refresh").Set(math.NaN())
	rep := r.Snapshot()
	if _, ok := rep.Gauges["mira_test_nan"]; ok {
		t.Error("NaN gauge leaked into the report")
	}
}

// TestSpanNamesResolvedOnce: a span name is validated and its duration
// histogram resolved at its first start only — later spans of the name
// leave the registry's name table as it is — while an invalid name, never
// admitted to the table, panics at every start.
func TestSpanNamesResolvedOnce(t *testing.T) {
	r := NewRegistry()
	_, sp := r.Span(context.Background(), "test.once")
	sp.End()
	table := r.spans.Load()
	for i := 0; i < 3; i++ {
		_, sp := r.Span(context.Background(), "test.once")
		sp.End()
	}
	if r.spans.Load() != table {
		t.Error("a known span name was resolved again")
	}
	if got := r.spanDurations().With("test.once").Count(); got != 4 {
		t.Errorf("test.once observations = %d, want 4", got)
	}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("start %d of an invalid span name did not panic", i)
				}
			}()
			r.Span(context.Background(), "Bad Name")
		}()
	}
}

// TestSpanNamesConcurrent: goroutines starting spans of the same new names
// at once each get the one histogram of a name (the race detector checks
// the name table's copy-on-write), and no observation is lost.
func TestSpanNamesConcurrent(t *testing.T) {
	r := NewRegistry()
	names := []string{"test.c0", "test.c1", "test.c2", "test.c3"}
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, name := range names {
					_, sp := r.Span(context.Background(), name)
					sp.End()
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range names {
		if got := r.spanDurations().With(name).Count(); got != goroutines*rounds {
			t.Errorf("%s observations = %d, want %d", name, got, goroutines*rounds)
		}
	}
}

// BenchmarkSpan is one child span started and ended under a traced parent,
// the per-request cost every served read pays for its handler span.
func BenchmarkSpan(b *testing.B) {
	r := NewRegistry()
	ctx, root := r.Span(context.Background(), "bench.root")
	defer root.End()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := r.Span(ctx, "bench.child")
		sp.End()
	}
}
