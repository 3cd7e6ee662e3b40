package tsdb

import (
	"context"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/topology"
)

// TestScanWorkerSpansJoinScanTrace pins the goroutine parent-linkage fix:
// the per-block decode spans started inside the scan's worker pool must
// be children of the merged-scan span, not fresh roots — the scan context
// has to be threaded into the pool, not dropped at the goroutine boundary.
func TestScanWorkerSpansJoinScanTrace(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	fill(t, 400, topology.AllRacks()[:6], s)

	ctx, root := obs.Span(context.Background(), "test.scan_trace")
	n := 0
	if err := s.EachRecordMergedTierCtx(ctx, 4, func(r sensors.Record, _ envdb.Tier) bool {
		n++
		return true
	}); err != nil {
		t.Fatalf("EachRecordMergedTierCtx: %v", err)
	}
	root.End()
	if n != 400*6 {
		t.Fatalf("scanned %d records, want %d", n, 400*6)
	}

	frags := obs.Default().TraceByID(root.Context().Trace)
	if len(frags) == 0 {
		t.Fatal("scan trace not retained")
	}
	var spans []obs.SpanRecord
	for _, f := range frags {
		spans = append(spans, f.Spans...)
	}
	var mergedID obs.SpanID
	for _, sp := range spans {
		if sp.Name == "tsdb.scan_chunked" {
			mergedID = sp.ID
			if sp.Parent != root.Context().Span {
				t.Fatalf("tsdb.scan_chunked parent %s, want root %s", sp.Parent, root.Context().Span)
			}
		}
	}
	if mergedID == 0 {
		t.Fatal("no tsdb.scan_chunked span in trace")
	}
	blocks := 0
	for _, sp := range spans {
		if sp.Name != "tsdb.scan_block" {
			continue
		}
		blocks++
		if sp.Parent == 0 {
			t.Fatal("tsdb.scan_block span is a root: worker pool dropped the scan context")
		}
		if sp.Parent != mergedID {
			t.Fatalf("tsdb.scan_block parent %s, want tsdb.scan_chunked %s", sp.Parent, mergedID)
		}
	}
	if blocks == 0 {
		t.Fatal("no tsdb.scan_block worker spans in trace")
	}
}

// TestPlainScanStartsNoSpans pins the no-pollution side of the same fix:
// the ranged scan run without a trace context (the auditor's path) must
// not mint root traces — neither for itself nor per decoded block.
func TestPlainScanStartsNoSpans(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	fill(t, 300, topology.AllRacks()[:4], s)

	before := make(map[obs.TraceID]bool)
	for _, tr := range obs.Default().Traces() {
		before[tr.Trace] = true
	}
	if err := s.EachChunkInRange(context.Background(), time.Unix(0, minTime), time.Unix(0, maxTime), 4,
		func(*envdb.Chunk) bool { return true }); err != nil {
		t.Fatalf("EachChunkInRange: %v", err)
	}
	for _, tr := range obs.Default().Traces() {
		if !before[tr.Trace] {
			t.Fatalf("untraced scan minted trace %s with %d spans (first: %q)",
				tr.Trace, len(tr.Spans), tr.Spans[0].Name)
		}
	}
}
