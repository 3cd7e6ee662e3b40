package tsdb

import (
	"context"
	"strconv"
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

// scanTraceSpans returns the spans of the retained trace root belongs to.
func scanTraceSpans(root *obs.ActiveSpan) []obs.SpanRecord {
	var spans []obs.SpanRecord
	for _, f := range obs.Default().TraceByID(root.Context().Trace) {
		spans = append(spans, f.Spans...)
	}
	return spans
}

// TestScanBlockSpansPerBlock: a traced scan records one tsdb.scan_block
// span per block, however many span runs the block decodes in, carrying
// the block's rows; and a scan stopped inside its blocks still ends their
// spans when its pool closes, so the request's trace completes.
func TestScanBlockSpansPerBlock(t *testing.T) {
	s := NewStore()
	fill(t, 12*288, topology.AllRacks()[:3], s) // blocks of up to 3,456 rows: several runs each
	s.SealAll()
	blocks := 0
	for i := range s.shards {
		blocks += len(s.shards[i].sealed)
	}

	ctx, root := obs.Span(context.Background(), "test.scan_blocks")
	stats := new(envdb.ScanStats)
	if err := s.EachChunkMergedCtx(envdb.ContextWithScanStats(ctx, stats), 2, func(*envdb.Chunk) bool { return true }); err != nil {
		t.Fatal(err)
	}
	root.End()
	n, rows := 0, 0
	for _, sp := range scanTraceSpans(root) {
		if sp.Name != "tsdb.scan_block" {
			continue
		}
		n++
		for _, a := range sp.Attrs {
			if a[0] == "rows" {
				r, err := strconv.Atoi(a[1])
				if err != nil {
					t.Fatal(err)
				}
				rows += r
			}
		}
	}
	if n != blocks || stats.BlocksDecoded.Load() != int64(blocks) || rows != s.Len() {
		t.Fatalf("%d tsdb.scan_block spans with %d rows, %d blocks counted; want %d spans and counted blocks with %d rows",
			n, rows, stats.BlocksDecoded.Load(), blocks, s.Len())
	}

	ctx, root = obs.Span(context.Background(), "test.scan_blocks_stopped")
	if err := s.EachChunkMergedCtx(ctx, 2, func(*envdb.Chunk) bool { return false }); err != nil {
		t.Fatal(err)
	}
	root.End()
	if spans := scanTraceSpans(root); len(spans) == 0 {
		t.Fatal("a stopped scan's trace never completed: a block span was left open")
	}
}
