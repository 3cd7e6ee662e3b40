package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
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
