package tsdb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// mergedReference derives the expected merged order from the per-rack
// Query reads of rackMajor: stable-sort by (instant, rack code). Within one
// rack the reads are already time-ordered, so the stable sort is exactly
// the merged scan's contract.
func mergedReference(s *Store) []sensors.Record {
	out := rackMajor(s, s.fleet)
	sort.SliceStable(out, func(a, b int) bool {
		ta, tb := out[a].Time.UnixNano(), out[b].Time.UnixNano()
		if ta != tb {
			return ta < tb
		}
		return out[a].Rack.Code() < out[b].Rack.Code()
	})
	return out
}

// collectMerged materializes every row of the merged chunk scan through
// Chunk.Record, so the result is comparable bit-for-bit against the
// reference.
func collectMerged(t *testing.T, s *Store, workers int) []sensors.Record {
	t.Helper()
	var out []sensors.Record
	if err := s.EachChunkMergedCtx(context.Background(), workers, func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			out = append(out, c.Record(i))
		}
		return true
	}); err != nil {
		t.Fatalf("EachChunkMergedCtx(%d): %v", workers, err)
	}
	return out
}

// sameRecords requires bit-identical sequences: same instants (including
// zone rendering, which the offline figures bucket by), same racks, same
// float bits on every channel.
func sameRecords(t *testing.T, label string, got, want []sensors.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: visited %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.Rack != w.Rack {
			t.Fatalf("%s: record %d = (%v, %v), want (%v, %v)", label, i, g.Time, g.Rack, w.Time, w.Rack)
		}
		if g.Time.Format(time.RFC3339) != w.Time.Format(time.RFC3339) {
			t.Fatalf("%s: record %d zone rendering %q, want %q",
				label, i, g.Time.Format(time.RFC3339), w.Time.Format(time.RFC3339))
		}
		for _, m := range sensors.AllMetrics() {
			if math.Float64bits(g.Value(m)) != math.Float64bits(w.Value(m)) {
				t.Fatalf("%s: record %d %v = %v, want %v", label, i, m, g.Value(m), w.Value(m))
			}
		}
	}
}

// TestMergedScanEquivalence: the record view of the merged scan
// (EachRecordMergedTierCtx, the row adapter over the chunk merge) must
// visit the reference sequence at every worker count, all raw-tier, and
// again on a warm-reopened store.
func TestMergedScanEquivalence(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	// All 48 racks, ~2 sealed partitions plus a live head each; every
	// tick exercises the full 48-way tie-break.
	const n = 600
	fill(t, n, topology.AllRacks(), s)

	want := mergedReference(s)
	if len(want) != n*topology.NumRacks {
		t.Fatalf("reference has %d records, want %d", len(want), n*topology.NumRacks)
	}
	rows := func(s *Store, workers int) []sensors.Record {
		t.Helper()
		var out []sensors.Record
		if err := s.EachRecordMergedTierCtx(context.Background(), workers, func(r sensors.Record, tier envdb.Tier) bool {
			if tier != envdb.TierRaw {
				t.Fatalf("workers=%d: record %d tier %v in an uncompacted store", workers, len(out), tier)
			}
			out = append(out, r)
			return true
		}); err != nil {
			t.Fatalf("EachRecordMergedTierCtx(%d): %v", workers, err)
		}
		return out
	}
	for _, workers := range []int{1, 3, 8, topology.NumRacks, 0} {
		sameRecords(t, fmt.Sprintf("workers=%d", workers), rows(s, workers), want)
	}

	// Warm reopen: flush to segments, reopen, merge again.
	dir := t.TempDir()
	if err := s.Flush(dir); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	re, err := Open(dir, Options{Partition: 24 * time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sameRecords(t, "warm reopen", rows(re, 4), want)
}

// TestMergedScanEarlyStop exercises abandonment: stopping the row view
// mid-chunk, and stopping the chunk scan after its first chunk, must not
// deadlock or leak workers (goroutine leaks show up as -race hammer
// flakiness; deadlocks as test timeouts).
func TestMergedScanEarlyStop(t *testing.T) {
	s := NewStoreWith(Options{Partition: 12 * time.Hour})
	fill(t, 500, topology.AllRacks(), s)

	seen := 0
	if err := s.EachRecordMergedTierCtx(context.Background(), 4, func(sensors.Record, envdb.Tier) bool {
		seen++
		return seen < 100
	}); err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if seen != 100 {
		t.Fatalf("visited %d records, want 100", seen)
	}

	for _, workers := range []int{1, 3} {
		chunks := 0
		if err := s.EachChunkMergedCtx(context.Background(), workers, func(*envdb.Chunk) bool {
			chunks++
			return false
		}); err != nil {
			t.Fatalf("abandoned scan: %v", err)
		}
		if chunks != 1 {
			t.Fatalf("workers=%d: visited %d chunks after stopping at the first", workers, chunks)
		}
	}
}

func TestMergedScanEmptyStore(t *testing.T) {
	s := NewStore()
	if err := s.EachChunkMergedCtx(context.Background(), 4, func(*envdb.Chunk) bool {
		t.Fatal("no chunks expected")
		return false
	}); err != nil {
		t.Fatalf("empty scan: %v", err)
	}
}

// TestMergedScanCorruption white-boxes a corrupt sealed payload into the
// tail of one shard: the merged scan must surface it as an error, not a
// panic, while a scan that stops after its first
// chunk stays clean — decoding is demand-driven, and a shard that alone
// holds the range still ends its chunk near the fill target instead of
// copying the whole shard into one chunk.
func TestMergedScanCorruption(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour})
	rack := topology.RackID{Row: 1, Col: 1}
	fill(t, 12000, []topology.RackID{rack}, s) // ≈167 six-hour blocks
	s.SealAll()

	sh := &s.shards[rack.Index()]
	if len(sh.sealed) < 100 {
		t.Fatalf("need ≥100 sealed blocks, got %d", len(sh.sealed))
	}
	last := sh.sealed[len(sh.sealed)-1]
	last.times = []byte{0xff, 0xff, 0xff}

	rows := 0
	if err := s.EachChunkMergedCtx(context.Background(), 2, func(c *envdb.Chunk) bool {
		rows = c.Len()
		return false
	}); err != nil {
		t.Fatalf("early-stopped scan should not surface the corrupt tail: %v", err)
	}
	if rows < chunkTargetRows || rows > 2*chunkTargetRows {
		t.Fatalf("first chunk holds %d rows, want about %d", rows, chunkTargetRows)
	}

	// A full scan must report it.
	if err := s.EachChunkMergedCtx(context.Background(), 2, func(*envdb.Chunk) bool { return true }); err == nil {
		t.Fatal("full scan over corrupt block should error")
	}
}

// TestWriteCSVSurfacesCorruption: a CSV export of a store with a corrupt
// sealed block (the corrupt-block scan shape) returns the scan's
// ErrCorrupt as an error instead of panicking or writing a silently short
// file.
func TestWriteCSVSurfacesCorruption(t *testing.T) {
	for _, shape := range scanShapes {
		if !shape.corrupt {
			continue
		}
		var buf bytes.Buffer
		if err := envdb.WriteCSV(context.Background(), &buf, shape.build(t)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: WriteCSV = %v, want an error wrapping ErrCorrupt", shape.name, err)
		}
	}
}

// TestMergedScanDuringIngest hammers merged scans against concurrent
// appends (run under -race by make check): scans run on snapshots, so
// each must observe an internally consistent, time-ordered sequence.
func TestMergedScanDuringIngest(t *testing.T) {
	s := NewStoreWith(Options{Partition: time.Hour})
	racks := []topology.RackID{{Row: 0, Col: 2}, {Row: 1, Col: 7}, {Row: 2, Col: 11}, {Row: 1, Col: 14}}
	const perRack = 1500

	var wg sync.WaitGroup
	for _, rack := range racks {
		wg.Add(1)
		go func(rack topology.RackID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(rack.Index())))
			for i := 0; i < perRack; i++ {
				ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
				if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(rack)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scanning := true; scanning; {
		select {
		case <-done:
			scanning = false
		default:
		}
		var prevT int64 = math.MinInt64
		prevRack := -1
		n := 0
		if err := s.EachRecordMergedTierCtx(context.Background(), 3, func(r sensors.Record, _ envdb.Tier) bool {
			k := r.Time.UnixNano()
			if k < prevT || (k == prevT && r.Rack.Index() <= prevRack) {
				t.Errorf("merge order violation at record %d: (%d,%d) after (%d,%d)",
					n, k, r.Rack.Index(), prevT, prevRack)
				return false
			}
			prevT, prevRack = k, r.Rack.Index()
			n++
			return true
		}); err != nil {
			t.Fatalf("scan during ingest: %v", err)
		}
	}

	// Steady state: the final scan sees everything.
	if got := len(collectMerged(t, s, 4)); got != perRack*len(racks) {
		t.Fatalf("final scan visited %d records, want %d", got, perRack*len(racks))
	}
}
