package tsdb

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// TestChunkedScanEquivalence is the chunked path's correctness anchor on
// a full-machine store: the batch-columnar scan must visit record
// sequences bit-identical to the reference — same instants, racks and
// float bits — at every worker count, and again after a warm reopen.
func TestChunkedScanEquivalence(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	// All 48 racks, several sealed partitions plus a live head each, so
	// every tick exercises the full 48-way tie interleave.
	const n = 600
	fill(t, n, topology.AllRacks(), s)

	want := mergedReference(s)
	if len(want) != n*topology.NumRacks {
		t.Fatalf("reference has %d records, want %d", len(want), n*topology.NumRacks)
	}
	for _, workers := range []int{1, 3, 8, 0} {
		sameRecords(t, fmt.Sprintf("chunked workers=%d", workers), collectMerged(t, s, workers), want)
	}

	dir := t.TempDir()
	if err := s.Flush(dir); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	re, err := Open(dir, Options{Partition: 24 * time.Hour})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	sameRecords(t, "chunked warm reopen", collectMerged(t, re, 2), want)
}

// TestChunkedScanTiers checks that chunk rows carry the storage tier over
// a compacted store: every downsampled row of a rack precedes its raw
// rows, and both tiers appear.
func TestChunkedScanTiers(t *testing.T) {
	s := NewStoreWith(Options{
		Partition: 6 * time.Hour,
		Retention: 12 * time.Hour,
	})
	racks := []topology.RackID{{Row: 0, Col: 0}, {Row: 1, Col: 9}}
	fill(t, 600, racks, s)
	if _, err := s.Compact(t.TempDir()); err != nil {
		t.Fatalf("Compact: %v", err)
	}

	rows := 0
	sawRaw := map[uint16]bool{}
	sawDown := false
	if err := s.EachChunkMergedCtx(context.Background(), 2, func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			switch c.Tiers[i] {
			case envdb.TierRaw:
				sawRaw[c.Racks[i]] = true
			case envdb.TierDownsampled:
				sawDown = true
				if sawRaw[c.Racks[i]] {
					t.Fatalf("row %d: rack code %d has a downsampled row after a raw one", rows+i, c.Racks[i])
				}
			default:
				t.Fatalf("row %d: tier %v", rows+i, c.Tiers[i])
			}
		}
		rows += c.Len()
		return true
	}); err != nil {
		t.Fatalf("EachChunkMergedCtx: %v", err)
	}
	if rows != s.Len() {
		t.Fatalf("chunked visited %d rows, want %d", rows, s.Len())
	}
	if !sawDown || len(sawRaw) != len(racks) {
		t.Fatal("compacted store did not yield both tiers — test store mis-built")
	}
}

// TestChunkedScanEqualTimestampsAcrossSeal pins the cross-run continuation
// of the round merge: sealing mid-partition can split records with equal
// timestamps for one rack across two runs, and the chunk path must still
// emit them consecutively in the right global slot.
func TestChunkedScanEqualTimestampsAcrossSeal(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	rng := rand.New(rand.NewSource(5))
	racks := []topology.RackID{{Row: 0, Col: 1}, {Row: 0, Col: 2}}
	ts := base
	for i := 0; i < 40; i++ {
		for _, rack := range racks {
			if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 19 {
			// Seal with the next appends repeating this exact timestamp:
			// rack 0's equal-timestamp records now span a sealed block and
			// the fresh head.
			s.SealAll()
			continue // do not advance ts
		}
		ts = ts.Add(timeutil.SampleInterval)
	}
	want := mergedReference(s)
	sameRecords(t, "equal timestamps across seal", collectMerged(t, s, 2), want)
}

// TestChunkedScanEarlyStopAndEmpty: stopping after the first chunk must
// release the pool without deadlock, and an empty store must yield no
// callback at all.
func TestChunkedScanEarlyStopAndEmpty(t *testing.T) {
	s := NewStoreWith(Options{Partition: 12 * time.Hour})
	fill(t, 500, topology.AllRacks(), s)
	chunks := 0
	if err := s.EachChunkMergedCtx(context.Background(), 4, func(c *envdb.Chunk) bool {
		if c.Len() == 0 {
			t.Fatal("empty chunk delivered")
		}
		chunks++
		return false
	}); err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if chunks != 1 {
		t.Fatalf("visited %d chunks after stopping at the first, want 1", chunks)
	}

	if err := NewStore().EachChunkMergedCtx(context.Background(), 2, func(*envdb.Chunk) bool {
		t.Fatal("no chunks expected from an empty store")
		return false
	}); err != nil {
		t.Fatalf("empty scan: %v", err)
	}
}

// TestChunkedScanCorruption: a corrupt sealed payload must surface as an
// error from the chunked scan, not a panic.
func TestChunkedScanCorruption(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour})
	rack := topology.RackID{Row: 1, Col: 1}
	fill(t, 500, []topology.RackID{rack}, s)
	s.SealAll()
	sh := &s.shards[rack.Index()]
	sh.sealed[len(sh.sealed)-1].times = []byte{0xff, 0xff, 0xff}
	if err := s.EachChunkMergedCtx(context.Background(), 2, func(*envdb.Chunk) bool { return true }); err == nil {
		t.Fatal("chunked scan over corrupt block should error")
	}
}

// TestScanStopsAtRangeEnd pins the early-termination bugfix on the ranged
// entry: a scan whose range ends early in the trace yields exactly the
// range, and stops walking the block list at the first block past the
// range instead of bounds-checking every remaining block (before the fix,
// the same `continue` pattern kept the stream alive to the end of the
// trace). The cursor check drives the machinery under EachChunkInRange —
// scanShards and the chunk merge — directly, since the streams are
// internal to the scan.
func TestScanStopsAtRangeEnd(t *testing.T) {
	s := NewStoreWith(Options{Partition: time.Hour})
	rack := topology.RackID{Row: 0, Col: 7}
	const n = 1200 // 100 one-hour partitions at 300 s cadence
	fill(t, n, []topology.RackID{rack}, s)
	s.SealAll()

	// Range covering only the first ~2 partitions.
	from := base
	to := base.Add(20 * timeutil.SampleInterval)
	var got []int64
	if err := s.EachChunkInRange(context.Background(), from, to, 1, func(c *envdb.Chunk) bool {
		got = append(got, c.Times...)
		return true
	}); err != nil {
		t.Fatalf("EachChunkInRange: %v", err)
	}
	if len(got) != 20 || got[0] != from.UnixNano() || got[19] >= to.UnixNano() {
		t.Fatalf("visited %d records, want the 20 in [from, to)", len(got))
	}

	cm := chunkMerger{streams: s.scanShards(context.Background(), from, to, 1)}
	cm.pool = cm.streams[0].pool
	for cm.fill() {
	}
	if cm.err != nil {
		t.Fatalf("merge: %v", cm.err)
	}
	cm.close() // workers joined: stream state is safe to inspect
	st := cm.streams[rack.Index()]
	if total := len(st.blocks); total < 100 {
		t.Fatalf("test store has %d blocks, want ≥100", total)
	}
	// Two blocks decoded, then the third (first past the range) terminates
	// the stream without advancing the cursor over the tail.
	if st.nextBlock > 3 {
		t.Fatalf("stream advanced to block %d of %d; early termination should stop ≤3", st.nextBlock, len(st.blocks))
	}
}
