package tsdb

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// fleetTicks builds n tick-major full-fleet ticks: one record per rack per
// timestamp, the frame shape a pushing client accumulates.
func fleetTicks(fleet topology.Fleet, n int) []sensors.Record {
	rng := rand.New(rand.NewSource(7))
	out := make([]sensors.Record, 0, n*fleet.NumRacks())
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for g := 0; g < fleet.NumRacks(); g++ {
			out = append(out, synthRecord(rng, fleet.RackAt(g), ts))
		}
	}
	return out
}

// dumpStore flattens everything the store yields, rack by rack.
func dumpStore(s *Store) []sensors.Record { return rackMajor(s, s.fleet) }

// sameBits compares two records field by field on exact float64 bit
// patterns — the equivalence the batched ingest path must preserve.
func sameBits(a, b sensors.Record) bool {
	if !a.Time.Equal(b.Time) || a.Rack != b.Rack {
		return false
	}
	for _, m := range sensors.AllMetrics() {
		if math.Float64bits(a.Value(m)) != math.Float64bits(b.Value(m)) {
			return false
		}
	}
	return true
}

func requireSameDump(t *testing.T, got, want []sensors.Record, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: record %d differs:\n got  %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

// TestAppendTickMatchesAppend pins bit-identity between the two ingest
// paths: a store fed whole frames through AppendTick holds exactly the
// records — same quantized float64 bits, same partitions, same downsample
// selections — as a store fed one record at a time, before and after
// sealing.
func TestAppendTickMatchesAppend(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		ticks int
	}{
		{"default", Options{Partition: 24 * time.Hour}, 30},
		{"partition-roll", Options{Partition: time.Hour}, 40}, // frames span partition seals
		{"downsample", Options{Partition: 24 * time.Hour, Downsample: 3}, 31},
		{"fleet-2-hall", Options{Partition: 24 * time.Hour, Fleet: topology.Fleet{Halls: 2, Racks: topology.NumRacks}}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet := tc.opts.Fleet.Norm()
			recs := fleetTicks(fleet, tc.ticks)
			one := NewStoreWith(tc.opts)
			for _, r := range recs {
				if err := one.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			batched := NewStoreWith(tc.opts)
			// Uneven frames: multiple ticks per AppendTick, with a ragged
			// tail, so frames cross partition and downsample boundaries.
			frame := 7 * fleet.NumRacks()
			for off := 0; off < len(recs); off += frame {
				end := off + frame
				if end > len(recs) {
					end = len(recs)
				}
				if err := batched.AppendTick(recs[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			requireSameDump(t, dumpStore(batched), dumpStore(one), "pre-seal dump")
			one.SealAll()
			batched.SealAll()
			requireSameDump(t, dumpStore(batched), dumpStore(one), "post-seal dump")
		})
	}
}

// TestAppendTickAtomicOnError is the partial-batch regression pin: a batch
// that fails validation — out-of-order against the store, out-of-order
// within the batch, or a rack outside the fleet — leaves the store
// byte-identical, and a corrected batch retried afterwards is accepted in
// full.
func TestAppendTickAtomicOnError(t *testing.T) {
	fleet := topology.Fleet{}.Norm()
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	seed := fleetTicks(fleet, 2)
	if err := s.AppendTick(seed); err != nil {
		t.Fatal(err)
	}
	before := dumpStore(s)
	outOfOrderBefore := metOutOfOrder.Value()

	next := fleetTicks(fleet, 3)[2*fleet.NumRacks():] // tick 2, after the seed

	// Mid-batch record older than the rack's stored watermark.
	stale := append([]sensors.Record(nil), next...)
	stale[17].Time = base.Add(-time.Hour)
	if err := s.AppendTick(stale); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("stale batch error = %v, want out-of-order", err)
	}
	// Two records for one rack in the wrong order within the batch itself.
	disordered := append([]sensors.Record(nil), next...)
	disordered = append(disordered, disordered[3])
	disordered[len(disordered)-1].Time = disordered[3].Time.Add(-timeutil.SampleInterval)
	if err := s.AppendTick(disordered); err == nil || !strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("disordered batch error = %v, want out-of-order", err)
	}
	// A rack from a hall this store is not sized for.
	foreign := append([]sensors.Record(nil), next...)
	foreign[5].Rack.Hall = 1
	if err := s.AppendTick(foreign); err == nil || !strings.Contains(err.Error(), "outside fleet") {
		t.Fatalf("foreign-rack batch error = %v, want outside fleet", err)
	}

	requireSameDump(t, dumpStore(s), before, "store after rejected batches")
	if got := metOutOfOrder.Value() - outOfOrderBefore; got != 2 {
		t.Fatalf("mira_tsdb_out_of_order_total advanced by %d, want 2", got)
	}

	// The corrected batch — same tick, valid shape — lands in full.
	if err := s.AppendTick(next); err != nil {
		t.Fatal(err)
	}
	if want := len(before) + len(next); s.Len() != want {
		t.Fatalf("store has %d records after corrected retry, want %d", s.Len(), want)
	}
}

// TestAppendTickEmpty: a zero-length batch is a no-op, not an error.
func TestAppendTickEmpty(t *testing.T) {
	s := NewStore()
	if err := s.AppendTick(nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("store has %d records after empty batch", s.Len())
	}
}

// TestAppendTickConcurrent drives concurrent batched ingest for disjoint
// halls of a fleet store (run under -race): per-shard locking must keep
// writers independent and the ascending lock order deadlock-free.
func TestAppendTickConcurrent(t *testing.T) {
	fleet := topology.Fleet{Halls: 4, Racks: topology.NumRacks}
	s := NewStoreWith(Options{Partition: 24 * time.Hour, Fleet: fleet})
	const ticks = 24
	var wg sync.WaitGroup
	errs := make([]error, fleet.Halls)
	for h := 0; h < fleet.Halls; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			hallFleet := topology.Fleet{Halls: 1, Racks: fleet.Racks}
			recs := fleetTicks(hallFleet, ticks)
			for i := range recs {
				recs[i].Rack.Hall = h
			}
			for off := 0; off < len(recs); off += 3 * fleet.Racks {
				end := off + 3*fleet.Racks
				if end > len(recs) {
					end = len(recs)
				}
				if err := s.AppendTick(recs[off:end]); err != nil {
					errs[h] = err
					return
				}
			}
		}(h)
	}
	wg.Wait()
	for h, err := range errs {
		if err != nil {
			t.Fatalf("hall %d: %v", h, err)
		}
	}
	if want := fleet.Halls * ticks * fleet.Racks; s.Len() != want {
		t.Fatalf("store has %d records, want %d", s.Len(), want)
	}
}

// TestConcurrentFirstAppend races the very first appends on a fresh store
// across goroutines (run under -race): the calendar-zone latch must be a
// single atomic publication, and every read afterwards sees one winner.
func TestConcurrentFirstAppend(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	fleet := topology.Fleet{}.Norm()
	tick := fleetTicks(fleet, 1)
	var wg sync.WaitGroup
	errs := make([]error, len(tick))
	for i := range tick {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := tick[i]
			if i%2 == 0 {
				r.Time = r.Time.UTC() // two zones race for the latch
			}
			errs[i] = s.Append(r)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if s.Len() != len(tick) {
		t.Fatalf("store has %d records, want %d", s.Len(), len(tick))
	}
	// Whichever zone won, every record reads back in the same one.
	want := s.Query(tick[0].Rack, base.Add(-time.Hour).UTC(), base.Add(time.Hour).UTC())[0].Time.Location()
	for _, r := range dumpStore(s) {
		if r.Time.Location() != want {
			t.Fatalf("mixed calendar zones in one store: %v and %v", r.Time.Location(), want)
		}
	}
}
