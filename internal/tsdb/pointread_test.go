package tsdb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// pointRacks are the racks every point-read shape fills.
var pointRacks = []topology.RackID{{Row: 0, Col: 3}, {Row: 1, Col: 11}, {Row: 2, Col: 6}}

// appendSamples appends samples [i0, i1) at the coolant-monitor cadence
// for every rack of pointRacks to each store.
func appendSamples(t *testing.T, rng *rand.Rand, i0, i1 int, dbs ...envdb.DB) {
	t.Helper()
	for i := i0; i < i1; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range pointRacks {
			rec := synthRecord(rng, rack, ts)
			for _, db := range dbs {
				if err := db.Append(rec); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
		}
	}
}

// freezeHeads closes every non-empty head without compressing it, leaving
// a frozen block that serves reads from its raw columns — the state a
// partition roll publishes before its seal finishes.
func freezeHeads(s *Store) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.head != nil && len(sh.head.times) > 0 {
			sh.sealed = append(sh.sealed, freezeHead(sh.head))
			sh.head = nil
		}
		sh.mu.Unlock()
	}
}

// pointShape is one store layout the point reads must serve. build returns
// the store and a slice store holding every record appended to it.
type pointShape struct {
	name  string
	build func(t *testing.T) (*Store, *envdb.Store)
}

// The 6 h partition holds 72 samples, so sealed blocks are no larger than
// the raw views beside them: a decode into an arena that had adopted a
// raw view's columns would write into them.
var pointShapes = []pointShape{
	{"sealed", func(t *testing.T) (*Store, *envdb.Store) {
		s, raw := NewStoreWith(Options{Partition: 6 * time.Hour}), &envdb.Store{}
		appendSamples(t, rand.New(rand.NewSource(1)), 0, 600, s, raw)
		s.SealAll()
		return s, raw
	}},
	// 24 h partitions hold 288 samples: two restart spans per block, the
	// second partial, so point reads decode from restarts inside a block.
	{"sealed-long", func(t *testing.T) (*Store, *envdb.Store) {
		s, raw := NewStoreWith(Options{Partition: 24 * time.Hour}), &envdb.Store{}
		appendSamples(t, rand.New(rand.NewSource(5)), 0, 900, s, raw)
		s.SealAll()
		return s, raw
	}},
	{"frozen", func(t *testing.T) (*Store, *envdb.Store) {
		s, raw := NewStoreWith(Options{Partition: 6 * time.Hour}), &envdb.Store{}
		rng := rand.New(rand.NewSource(2))
		appendSamples(t, rng, 0, 288, s, raw)
		freezeHeads(s)
		appendSamples(t, rng, 288, 432, s, raw)
		freezeHeads(s)
		appendSamples(t, rng, 432, 470, s, raw)
		return s, raw
	}},
	{"head", func(t *testing.T) (*Store, *envdb.Store) {
		s, raw := NewStoreWith(Options{Partition: 1000 * time.Hour}), &envdb.Store{}
		rng := rand.New(rand.NewSource(3))
		appendSamples(t, rng, 0, 200, s, raw)
		s.SealAll()
		appendSamples(t, rng, 200, 400, s, raw)
		return s, raw
	}},
	{"cold", func(t *testing.T) (*Store, *envdb.Store) {
		s, raw := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour}), &envdb.Store{}
		appendSamples(t, rand.New(rand.NewSource(4)), 0, 600, s, raw)
		if _, err := s.Compact(""); err != nil {
			t.Fatal(err)
		}
		if s.Stats().ColdBlocks == 0 {
			t.Fatal("cold shape compacted nothing")
		}
		return s, raw
	}},
}

// yieldStore is a slice store holding the records s yields (window means
// for compacted windows), read through the merged scan rather than the
// point reads it is the reference for.
func yieldStore(t *testing.T, s *Store) *envdb.Store {
	t.Helper()
	ref := &envdb.Store{}
	if err := envdb.ScanRecords(context.Background(), s, 1, func(r sensors.Record, _ envdb.Tier) bool {
		if err := ref.Append(r); err != nil {
			t.Fatal(err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ref
}

// mustDecode returns v, failing on an error the store's reads never make.
func mustDecode[T any](v T, err error) T {
	mustOK(err)
	return v
}

// pointResult is one point read — op over hours [h0, h0+hours) of the
// trace, so every range sits on the compaction grid — and its answer.
type pointResult struct {
	op        string
	rack      topology.RackID
	m         sensors.Metric
	h0, hours int
	from, to  time.Time
	recs      []sensors.Record
	times     []time.Time
	vals      []float64
	aggs      []WindowAgg
}

func (r pointResult) String() string {
	return fmt.Sprintf("%s %v %v [%v, %v)", r.op, r.rack, r.m, r.from, r.to)
}

// clone deep-copies the answer.
func (r pointResult) clone() pointResult {
	r.recs, r.times, r.vals, r.aggs = slices.Clone(r.recs), slices.Clone(r.times), slices.Clone(r.vals), slices.Clone(r.aggs)
	return r
}

// read issues the read r describes and returns r with its answer.
func (r pointResult) read(s *Store) (pointResult, error) {
	r.from = base.Add(time.Duration(r.h0) * time.Hour)
	r.to = r.from.Add(time.Duration(r.hours) * time.Hour)
	var err error
	switch r.op {
	case "query":
		r.recs = s.Query(r.rack, r.from, r.to)
	case "series":
		r.times, r.vals = s.Series(r.rack, r.m, r.from, r.to)
	default:
		r.aggs, err = s.Aggregate(r.rack, r.m, r.from, r.to, time.Hour)
	}
	return r, err
}

// checkPoint compares a point read with the slice-store references: ref
// holds the records the store yields, raw the records appended, which
// bruteAgg aggregates on the hour grid the compacted tier is exact on.
func checkPoint(ref, raw *envdb.Store, r pointResult) error {
	switch r.op {
	case "query":
		return diffRecords(r.recs, ref.Query(r.rack, r.from, r.to))
	case "series":
		times, vals := ref.Series(r.rack, r.m, r.from, r.to)
		if len(times) != len(r.times) || len(vals) != len(r.vals) {
			return fmt.Errorf("%d points, want %d", len(r.times), len(times))
		}
		for i := range times {
			if !r.times[i].Equal(times[i]) || r.times[i].Format(time.RFC3339) != times[i].Format(time.RFC3339) ||
				math.Float64bits(r.vals[i]) != math.Float64bits(vals[i]) {
				return fmt.Errorf("point %d = (%v, %v), want (%v, %v)", i, r.times[i], r.vals[i], times[i], vals[i])
			}
		}
		return nil
	default:
		return diffAggs(r.aggs, bruteAgg(raw.Query(r.rack, r.from, r.to), r.m, channelScales[r.m],
			r.from.UnixNano(), r.to.UnixNano(), int64(time.Hour)))
	}
}

func diffRecords(got, want []sensors.Record) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) || g.Rack != w.Rack || g.Time.Format(time.RFC3339) != w.Time.Format(time.RFC3339) {
			return fmt.Errorf("record %d = (%v, %v), want (%v, %v)", i, g.Time, g.Rack, w.Time, w.Rack)
		}
		for _, m := range sensors.AllMetrics() {
			if math.Float64bits(g.Value(m)) != math.Float64bits(w.Value(m)) {
				return fmt.Errorf("record %d %v = %v, want %v", i, m, g.Value(m), w.Value(m))
			}
		}
	}
	return nil
}

func diffAggs(got, want []WindowAgg) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d windows, want %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if !g.Start.Equal(w.Start) || g.Count != w.Count ||
			math.Float64bits(g.Min) != math.Float64bits(w.Min) ||
			math.Float64bits(g.Max) != math.Float64bits(w.Max) ||
			math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			return fmt.Errorf("window %d = %+v, want %+v", k, g, w)
		}
	}
	return nil
}

// sameResult reports whether a result still equals its earlier deep copy.
func sameResult(got, want pointResult) error {
	if err := diffRecords(got.recs, want.recs); err != nil {
		return err
	}
	if !slices.EqualFunc(got.times, want.times, time.Time.Equal) ||
		!slices.EqualFunc(got.vals, want.vals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		return fmt.Errorf("series changed")
	}
	return diffAggs(got.aggs, want.aggs)
}

// TestPointReadsDoNotAlias pins the pooled decode arenas behind Query,
// Series and Aggregate: on every store shape, a Query, a Series and an
// Aggregate answer must be unchanged after more than a hundred further
// point reads of other racks and blocks from several goroutines (a result
// aliasing arena memory would be overwritten by them), and every answer
// must equal the slice-store reference (an arena that adopted a head or
// frozen block's live columns would decode other blocks into them). The
// goroutines start together on the same one-hour reads of every block of
// a rack nothing has read yet, so they race to build the same restart
// indexes. Run under -race it also checks that pooled arenas never pass
// between goroutines unsynchronized and that an index is published to
// every reader that waits for its build.
func TestPointReadsDoNotAlias(t *testing.T) {
	for _, shape := range pointShapes {
		t.Run(shape.name, func(t *testing.T) {
			s, raw := shape.build(t)
			ref := raw
			if s.Stats().ColdBlocks > 0 {
				ref = yieldStore(t, s)
			}
			_, last, _ := s.Bounds()
			hours := int(last.Sub(base)/time.Hour) + 1
			first := []pointResult{
				{op: "query", rack: pointRacks[0], m: sensors.MetricFlow, h0: 0, hours: 7},
				{op: "series", rack: pointRacks[0], m: sensors.MetricInletTemp, h0: 1, hours: 9},
				{op: "aggregate", rack: pointRacks[0], m: sensors.MetricPower, h0: 2, hours: 11},
			}
			kept := make([]pointResult, len(first))
			for i := range first {
				r, err := first[i].read(s)
				if err == nil {
					err = checkPoint(ref, raw, r)
				}
				if err != nil {
					t.Fatalf("%v: %v", r, err)
				}
				first[i], kept[i] = r, r.clone()
			}

			const workers, perWorker = 4, 40
			ops := []string{"query", "series", "aggregate"}
			var wg sync.WaitGroup
			start := make(chan struct{})
			errs := make(chan error, workers*(perWorker+hours))
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					<-start
					for h0 := 0; h0 < hours; h0 += 2 {
						r, err := pointResult{
							op:    ops[(int(seed)+h0)%len(ops)],
							rack:  pointRacks[1],
							m:     sensors.MetricOutletTemp,
							h0:    h0,
							hours: 1,
						}.read(s)
						if err == nil {
							err = checkPoint(ref, raw, r)
						}
						if err != nil {
							errs <- fmt.Errorf("first touch %v: %v", r, err)
						}
					}
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < perWorker; i++ {
						h0 := rng.Intn(hours)
						r, err := pointResult{
							op:    ops[rng.Intn(len(ops))],
							rack:  pointRacks[1+rng.Intn(len(pointRacks)-1)],
							m:     sensors.Metric(rng.Intn(int(sensors.NumMetrics))),
							h0:    h0,
							hours: 1 + rng.Intn(hours+2-h0),
						}.read(s)
						if err == nil {
							err = checkPoint(ref, raw, r)
						}
						if err != nil {
							errs <- fmt.Errorf("%v: %v", r, err)
						}
					}
				}(int64(w))
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for i, r := range first {
				if err := sameResult(r, kept[i]); err != nil {
					t.Fatalf("%v changed under later reads: %v", r, err)
				}
				again, err := r.read(s)
				if err == nil {
					err = checkPoint(ref, raw, again)
				}
				if err != nil {
					t.Fatalf("%v reread: %v", r, err)
				}
			}
		})
	}
}

// boundsFold is Bounds as a fold over every block view of every shard
// snapshot: the reference the allocation-free Bounds must equal.
func boundsFold(s *Store) (first, last time.Time, ok bool) {
	var minN, maxN int64
	for i := range s.shards {
		snap := s.shards[i].snapshot()
		for _, bv := range snap.appendBlocks(nil, math.MinInt64, math.MaxInt64) {
			lo, hi := bv.bounds()
			if !ok || lo < minN {
				minN = lo
			}
			if !ok || hi > maxN {
				maxN = hi
			}
			ok = true
		}
	}
	if !ok {
		return time.Time{}, time.Time{}, false
	}
	return time.Unix(0, minN).In(s.location()), time.Unix(0, maxN).In(s.location()), true
}

// TestBoundsMatchesFold checks Bounds against the fold on every merged-scan
// shape and every point-read shape (frozen blocks, a cold tier), on a store
// whose every shard is empty, and on one rack filled behind empty shards.
func TestBoundsMatchesFold(t *testing.T) {
	stores := map[string]*Store{"all-empty": NewStoreWith(Options{Fleet: topology.Fleet{Halls: 3, Racks: 4}})}
	lone := NewStoreWith(Options{Partition: 6 * time.Hour})
	fill(t, 100, []topology.RackID{{Row: 2, Col: 15}}, lone)
	stores["one-rack-last"] = lone
	for _, shape := range scanShapes {
		stores["scan/"+shape.name] = shape.build(t)
	}
	for _, shape := range pointShapes {
		stores["point/"+shape.name], _ = shape.build(t)
	}
	for name, s := range stores {
		f, l, ok := s.Bounds()
		wf, wl, wok := boundsFold(s)
		if ok != wok || !f.Equal(wf) || !l.Equal(wl) || f.Location() != wf.Location() || l.Location() != wl.Location() {
			t.Errorf("%s: Bounds = (%v, %v, %v), fold (%v, %v, %v)", name, f, l, ok, wf, wl, wok)
		}
	}
}

// TestBoundsAllocations: the telemetry server derives every response's
// zone from Bounds, so it must not allocate, whatever the fleet size.
func TestBoundsAllocations(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour, Fleet: topology.Fleet{Halls: 2, Racks: topology.NumRacks}})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for g := 0; g < s.fleet.NumRacks(); g += 5 {
			if err := s.Append(synthRecord(rng, s.fleet.RackAt(g), ts)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Bounds() }); allocs != 0 {
		t.Fatalf("Bounds allocates %v times per call, want 0", allocs)
	}
}

// blocksTouched counts the blocks of rack holding rows in [from, to): a
// point read grows each result slice once per such block.
func blocksTouched(s *Store, rack topology.RackID, from, to time.Time) int {
	ar := pointRead(s.readShard(rack), from.UnixNano(), to.UnixNano())
	defer ar.release()
	n := 0
	var rd blockReader
	for _, bv := range ar.views {
		rd.reset(bv)
		run := mustDecode(rd.next(rd.rows, colTimes, &ar.scanArena))
		if lo, hi := searchRange(run.times, from.UnixNano(), to.UnixNano()); lo < hi {
			n++
		}
	}
	return n
}

// TestPointReadAllocations caps what a warm point read allocates on a
// sealed store, for every window of BenchmarkPointReads: its result slices,
// grown once per block the range touches, and nothing for decoding. A
// read's first call warms it: it fills the pool and builds the restart
// index of every block the range covers in part, which are set-up costs a
// block pays once. sync.Pool drops items at random under the race
// detector, so the race build skips it; the Makefile runs it without. The
// collector is off while it counts, because every collection empties the
// pool and the refill is not what a warm read costs.
func TestPointReadAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is randomized under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, rack, newest := pointBenchStore(t, 60)
	for _, e := range pointEnds(newest) {
		for _, w := range dashboardWindows {
			checkPointAllocations(t, s, rack, w.name+e.suffix, e.t.Add(-w.d), e.t)
		}
	}
}

// checkPointAllocations runs TestPointReadAllocations on one window.
func checkPointAllocations(t *testing.T, s *Store, rack topology.RackID, name string, from, end time.Time) {
	t.Helper()
	blocks := float64(blocksTouched(s, rack, from, end))
	if blocks == 0 {
		t.Fatalf("%s window reads no block", name)
	}
	cases := []struct {
		op   string
		want float64
		read func()
	}{
		{"query", blocks, func() { s.Query(rack, from, end) }},
		{"series", 2 * blocks, func() { s.Series(rack, sensors.MetricOutletTemp, from, end) }},
		{"aggregate", 1, func() { mustDecode(s.Aggregate(rack, sensors.MetricPower, from, end, time.Hour)) }},
	}
	for _, c := range cases {
		c.read() // warm the pool and build the restart indexes
		if got := testing.AllocsPerRun(50, c.read); got > c.want {
			t.Errorf("%s %s: %v allocs per read, want ≤ %v", c.op, name, got, c.want)
		}
	}
}

// dashboardWindows are the read spans of the dashboard mix.
var dashboardWindows = []struct {
	name string
	d    time.Duration
}{{"1h", time.Hour}, {"24h", 24 * time.Hour}, {"7d", 7 * 24 * time.Hour}, {"30d", 30 * 24 * time.Hour}}

// pointBenchStore is a sealed store of days of one rack at 30-day
// partitions; end is just past its newest sample.
func pointBenchStore(tb testing.TB, days int) (*Store, topology.RackID, time.Time) {
	tb.Helper()
	recs := benchRecords(days * 288)
	s := NewStore()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	s.SealAll()
	return s, recs[0].Rack, recs[len(recs)-1].Time.Add(time.Second)
}

// pointEnds are where the dashboard's windows end on a store whose newest
// sample is just before end: at end itself (70 % of the mix), and in
// history, inside a block and off the restart grid (the other 30 %).
func pointEnds(end time.Time) []struct {
	suffix string
	t      time.Time
} {
	return []struct {
		suffix string
		t      time.Time
	}{{"", end}, {"-past", end.Add(-17*24*time.Hour - 37*time.Minute)}}
}

// pointSink keeps the benchmarked reads' results live.
var pointSink int

// BenchmarkPointReads runs the dashboard's point reads — Query, Series and
// Aggregate in hour buckets — over windows of a 60-day sealed store ending
// at its newest sample and, in the "-past" cells, 17 days before it.
func BenchmarkPointReads(b *testing.B) {
	s, rack, newest := pointBenchStore(b, 60)
	for _, e := range pointEnds(newest) {
		for _, w := range dashboardWindows {
			benchPointWindow(b, s, rack, w.name+e.suffix, e.t.Add(-w.d), e.t)
		}
	}
}

// benchPointWindow benchmarks the three point reads over [from, end).
func benchPointWindow(b *testing.B, s *Store, rack topology.RackID, name string, from, end time.Time) {
	b.Run("query/"+name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pointSink += len(s.Query(rack, from, end))
		}
	})
	b.Run("series/"+name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, vals := s.Series(rack, sensors.MetricOutletTemp, from, end)
			pointSink += len(vals)
		}
	})
	b.Run("aggregate/"+name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aggs, err := s.Aggregate(rack, sensors.MetricPower, from, end, time.Hour)
			if err != nil {
				b.Fatal(err)
			}
			pointSink += len(aggs)
		}
	})
}
