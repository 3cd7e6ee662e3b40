package tsdb

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// The freeze-then-compress tests drive the block lifecycle through sealHook,
// which runs at the start of every compression. The hook is process-global,
// so none of them may run in parallel; each installs it before starting the
// goroutines that reach it and clears it after they have joined.

// hourTicks builds tick-major records for racks over ticks [from, to) at the
// coolant-monitor cadence. With Partition: time.Hour a partition is 12 ticks
// and base sits on a partition boundary.
func hourTicks(racks []topology.RackID, from, to int) []sensors.Record {
	rng := rand.New(rand.NewSource(int64(from)))
	var out []sensors.Record
	for i := from; i < to; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range racks {
			out = append(out, synthRecord(rng, rack, ts))
		}
	}
	return out
}

// sealGate parks compressions: every seal that starts while the gate is
// closed announces itself on entered and waits for open.
type sealGate struct {
	entered  chan *sealedBlock
	release  chan struct{}
	released atomic.Bool
}

func parkSeals(t *testing.T) *sealGate {
	t.Helper()
	// entered holds more than any test's block count, so a seal never
	// blocks on announcing itself and every one of them parks on release.
	g := &sealGate{entered: make(chan *sealedBlock, 4096), release: make(chan struct{})}
	sealHook = func(b *sealedBlock) {
		g.entered <- b
		<-g.release
	}
	t.Cleanup(func() { sealHook = nil })
	return g
}

func (g *sealGate) open() {
	g.released.Store(true)
	close(g.release)
}

// waitParked blocks until one compression is parked in the gate.
func (g *sealGate) waitParked(t *testing.T) *sealedBlock {
	t.Helper()
	select {
	case b := <-g.entered:
		return b
	case <-time.After(10 * time.Second):
		t.Fatal("no compression started")
		return nil
	}
}

// stillBlocked asserts done has not fired while the gate is closed. A
// correct store can never fail it; one that returns early fails it as soon
// as the goroutine gets scheduled inside the grace period.
func stillBlocked(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s returned while compression was still parked", what)
	case <-time.After(30 * time.Millisecond):
	}
}

// TestSealNeverUnderShardLock: at all three seal sites compression starts
// only after the sealing goroutine has released every shard lock it held —
// its own shard's and, for a fleet batch, the ones later in the lock order.
func TestSealNeverUnderShardLock(t *testing.T) {
	racks := topology.AllRacks()
	sites := []struct {
		name string
		roll func(s *Store) error // closes one block per rack
	}{
		{"Append", func(s *Store) error {
			for _, r := range hourTicks(racks, 12, 13) {
				if err := s.Append(r); err != nil {
					return err
				}
			}
			return nil
		}},
		{"AppendTick", func(s *Store) error { return s.AppendTick(hourTicks(racks, 10, 14)) }},
		{"SealAll", func(s *Store) error { s.SealAll(); return nil }},
	}
	for _, site := range sites {
		t.Run(site.name, func(t *testing.T) {
			s := NewStoreWith(Options{Partition: time.Hour})
			if err := s.AppendTick(hourTicks(racks, 0, 10)); err != nil {
				t.Fatal(err)
			}
			seals := 0
			sealHook = func(b *sealedBlock) {
				seals++
				owner := -1
				for i := range s.shards {
					sh := &s.shards[i]
					if !sh.mu.TryRLock() {
						t.Errorf("seal %d started with shard %d write-locked", seals, i)
						return
					}
					if n := len(sh.sealed); n > 0 && sh.sealed[n-1] == b {
						owner = i
					}
					sh.mu.RUnlock()
				}
				if owner < 0 {
					t.Errorf("seal %d: block not published on any shard before compression", seals)
				}
				if b.raw.Load() == nil {
					t.Errorf("seal %d: hook saw an already-sealed block", seals)
				}
			}
			defer func() { sealHook = nil }()
			if err := site.roll(s); err != nil {
				t.Fatal(err)
			}
			if seals != len(racks) {
				t.Errorf("%d compressions, want one per rack (%d)", seals, len(racks))
			}
			if _, frozen := s.stats(); frozen != 0 {
				t.Errorf("%d blocks still frozen after %s returned", frozen, site.name)
			}
		})
	}
}

// readSurface is everything the read paths answer over a fixed window that
// straddles the first partition boundary.
type readSurface struct {
	query       []sensors.Record
	seriesT     []time.Time
	seriesV     []float64
	aggs        []WindowAgg
	chunked     []sensors.Record
	merged      []sensors.Record
	first, last time.Time
	n           int
}

func readAll(t *testing.T, s *Store, rack topology.RackID) readSurface {
	t.Helper()
	boundary := base.Add(time.Hour)
	var rs readSurface
	rs.query = s.Query(rack, base, base.Add(3*time.Hour))
	rs.seriesT, rs.seriesV = s.Series(rack, sensors.MetricOutletTemp, boundary.Add(-30*time.Minute), boundary.Add(30*time.Minute))
	aggs, err := s.Aggregate(rack, sensors.MetricPower, boundary.Add(-30*time.Minute), boundary.Add(30*time.Minute), 20*time.Minute)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	rs.aggs = aggs
	if err := s.EachChunkMerged(2, func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			rs.chunked = append(rs.chunked, c.Record(i))
		}
		return true
	}); err != nil {
		t.Fatalf("EachChunkMerged: %v", err)
	}
	rs.merged = collectMerged(t, s, 2)
	var ok bool
	if rs.first, rs.last, ok = s.Bounds(); !ok {
		t.Fatal("Bounds: empty store")
	}
	rs.n = s.Len()
	return rs
}

// TestReadsServedWhileSealParked: with the compression of a just-closed
// partition parked, every read path answers completely from the frozen
// block's raw columns — bit-identical to the answers after the seal — and
// ingest into the new head carries on.
func TestReadsServedWhileSealParked(t *testing.T) {
	racks := []topology.RackID{{Row: 0, Col: 1}, {Row: 1, Col: 8}, {Row: 2, Col: 15}}
	s := NewStoreWith(Options{Partition: time.Hour})
	if err := s.AppendTick(hourTicks(racks, 0, 12)); err != nil {
		t.Fatal(err)
	}
	gate := parkSeals(t)
	rolled := make(chan error, 1)
	go func() { rolled <- s.AppendTick(hourTicks(racks, 12, 18)) }()
	gate.waitParked(t)

	// The roll has applied and unlocked; a second batch lands in the new
	// heads while the first writer is still compressing.
	if err := s.AppendTick(hourTicks(racks, 18, 24)); err != nil {
		t.Fatalf("AppendTick beside a parked seal: %v", err)
	}
	st, frozen := s.stats()
	if frozen != len(racks) || st.SealedBlocks != 0 || st.SealedBytes != 0 {
		t.Errorf("parked: frozen=%d sealed blocks=%d bytes=%d, want %d/0/0", frozen, st.SealedBlocks, st.SealedBytes, len(racks))
	}
	if want := int64(24*len(racks)) * 8 * (1 + int64(sensors.NumMetrics)); st.HeadBytes != want {
		t.Errorf("parked: HeadBytes = %d, want %d (frozen blocks are uncompressed memory)", st.HeadBytes, want)
	}
	during := make([]readSurface, len(racks))
	for i, rack := range racks {
		during[i] = readAll(t, s, rack)
	}

	gate.open()
	if err := <-rolled; err != nil {
		t.Fatalf("rolling AppendTick: %v", err)
	}
	if st, frozen := s.stats(); frozen != 0 || st.SealedBlocks != len(racks) || st.SealedBytes == 0 {
		t.Errorf("at rest: frozen=%d sealed blocks=%d bytes=%d, want 0/%d/>0", frozen, st.SealedBlocks, st.SealedBytes, len(racks))
	}
	for i, rack := range racks {
		d, a := during[i], readAll(t, s, rack)
		if len(d.query) != 24 || len(d.seriesT) != 12 || d.n != 24*len(racks) {
			t.Fatalf("rack %v parked: %d query rows, %d series rows, Len %d; want 24, 12, %d",
				rack, len(d.query), len(d.seriesT), d.n, 24*len(racks))
		}
		sameRecords(t, "Query parked vs sealed", d.query, a.query)
		sameRecords(t, "EachChunkMerged parked vs sealed", d.chunked, a.chunked)
		sameRecords(t, "EachRecordMerged parked vs sealed", d.merged, a.merged)
		sameRecords(t, "chunked vs merged while parked", d.chunked, d.merged)
		sameAggs(t, "Aggregate parked vs sealed", d.aggs, a.aggs)
		for _, w := range d.aggs {
			if w.Count != 4 {
				t.Fatalf("rack %v: straddling window %v holds %d samples, want 4", rack, w.Start, w.Count)
			}
		}
		for k := range a.seriesT {
			if !d.seriesT[k].Equal(a.seriesT[k]) || d.seriesV[k] != a.seriesV[k] {
				t.Fatalf("rack %v: Series row %d parked (%v, %v) != sealed (%v, %v)",
					rack, k, d.seriesT[k], d.seriesV[k], a.seriesT[k], a.seriesV[k])
			}
		}
		if !d.first.Equal(a.first) || !d.last.Equal(a.last) || d.n != a.n {
			t.Fatalf("rack %v: Bounds/Len parked (%v, %v, %d) != sealed (%v, %v, %d)",
				rack, d.first, d.last, d.n, a.first, a.last, a.n)
		}
	}
}

// dirFiles reads every regular file under dir, keyed by relative path.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlushWaitsForParkedSeal: SealAll and Flush issued while another
// goroutine's compression is in flight return only once every closed block
// is sealed, and the segments Flush then writes are byte-identical to those
// of a twin store fed the same records with nothing concurrent.
func TestFlushWaitsForParkedSeal(t *testing.T) {
	fleet := topology.Fleet{Halls: 2, Racks: topology.NumRacks}
	var racks []topology.RackID
	for g := 0; g < fleet.NumRacks(); g += 7 {
		racks = append(racks, fleet.RackAt(g))
	}
	opts := Options{Partition: time.Hour, Fleet: fleet}
	first, second := hourTicks(racks, 0, 12), hourTicks(racks, 12, 18)

	s := NewStoreWith(opts)
	if err := s.AppendTick(first); err != nil {
		t.Fatal(err)
	}
	gate := parkSeals(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.AppendTick(second); err != nil {
			t.Errorf("rolling AppendTick: %v", err)
		}
	}()
	gate.waitParked(t)

	dir := t.TempDir()
	sealed, flushed := make(chan struct{}), make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(sealed)
		s.SealAll()
		if !gate.released.Load() {
			t.Error("SealAll returned before the in-flight compression finished")
		}
		if _, frozen := s.stats(); frozen != 0 {
			t.Errorf("SealAll returned with %d blocks frozen", frozen)
		}
	}()
	go func() {
		defer wg.Done()
		defer close(flushed)
		if err := s.Flush(dir); err != nil {
			t.Errorf("Flush: %v", err)
		}
		if !gate.released.Load() {
			t.Error("Flush returned before the in-flight compression finished")
		}
	}()
	stillBlocked(t, sealed, "SealAll")
	stillBlocked(t, flushed, "Flush")
	gate.open()
	wg.Wait()
	sealHook = nil

	twin := NewStoreWith(opts)
	if err := twin.AppendTick(first); err != nil {
		t.Fatal(err)
	}
	if err := twin.AppendTick(second); err != nil {
		t.Fatal(err)
	}
	twinDir := t.TempDir()
	if err := twin.Flush(twinDir); err != nil {
		t.Fatal(err)
	}
	got, want := dirFiles(t, dir), dirFiles(t, twinDir)
	if len(got) != len(want) || len(want) != len(racks) {
		t.Fatalf("%d segment files, twin wrote %d, want %d", len(got), len(want), len(racks))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Errorf("%s: %d bytes differ from the twin's %d", name, len(got[name]), len(w))
		}
	}
}

// TestCompactRacingPartitionRoll: a compaction whose fold prefix includes a
// block another goroutine has frozen and is still compressing waits for the
// payload instead of folding raw columns, and ends bit-identical to a twin
// compacted with nothing concurrent.
func TestCompactRacingPartitionRoll(t *testing.T) {
	racks := []topology.RackID{{Row: 0, Col: 2}, {Row: 2, Col: 11}}
	opts := Options{Partition: time.Hour}
	history, roll := hourTicks(racks, 0, 60), hourTicks(racks, 60, 66)
	cutoff := base.Add(5 * time.Hour) // folds hours 0-4; hour 4 is the block the roll closes

	s := NewStoreWith(opts)
	if err := s.AppendTick(history); err != nil {
		t.Fatal(err)
	}
	gate := parkSeals(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.AppendTick(roll); err != nil {
			t.Errorf("rolling AppendTick: %v", err)
		}
	}()
	parked := gate.waitParked(t)

	compacted := make(chan struct{})
	var cst CompactStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(compacted)
		var err error
		if cst, err = s.CompactBefore("", cutoff); err != nil {
			t.Errorf("CompactBefore: %v", err)
		}
		if parked.raw.Load() != nil {
			t.Error("compaction finished with the rolled block still frozen")
		}
	}()
	stillBlocked(t, compacted, "CompactBefore")
	gate.open()
	wg.Wait()
	sealHook = nil

	twin := NewStoreWith(opts)
	if err := twin.AppendTick(history); err != nil {
		t.Fatal(err)
	}
	if err := twin.AppendTick(roll); err != nil {
		t.Fatal(err)
	}
	tst, err := twin.CompactBefore("", cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if cst != tst || cst.Blocks != 5*len(racks) {
		t.Fatalf("raced compaction %+v, twin %+v, want %d blocks folded", cst, tst, 5*len(racks))
	}
	if s.Len() != twin.Len() {
		t.Fatalf("Len = %d, twin %d", s.Len(), twin.Len())
	}
	sameRecords(t, "raced compaction vs twin", collectMerged(t, s, 2), collectMerged(t, twin, 2))
	want := snapshotAggs(t, twin, racks)
	for ctx, aggs := range snapshotAggs(t, s, racks) {
		sameAggs(t, "raced compaction "+ctx, aggs, want[ctx])
	}
}
