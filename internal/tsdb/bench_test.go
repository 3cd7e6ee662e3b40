package tsdb

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// benchRecords pre-generates n sequential samples for one rack.
func benchRecords(n int) []sensors.Record {
	rng := rand.New(rand.NewSource(42))
	rack := topology.RackID{Row: 1, Col: 4}
	out := make([]sensors.Record, n)
	for i := range out {
		out[i] = synthRecord(rng, rack, base.Add(time.Duration(i)*timeutil.SampleInterval))
	}
	return out
}

// BenchmarkAppend measures tsdb ingest throughput (records/op includes the
// amortized cost of sealing a 30-day block every 8640 appends).
func BenchmarkAppend(b *testing.B) {
	recs := benchRecords(1 << 16)
	s := NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		// Keep time monotonic across wraps.
		r.Time = r.Time.Add(time.Duration(i/len(recs)*len(recs)) * timeutil.SampleInterval)
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendSliceStore is the envdb.Store baseline for ingest.
func BenchmarkAppendSliceStore(b *testing.B) {
	recs := benchRecords(1 << 16)
	s := envdb.NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := recs[i%len(recs)]
		r.Time = r.Time.Add(time.Duration(i/len(recs)*len(recs)) * timeutil.SampleInterval)
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStore builds a sealed store with days of telemetry on one rack.
func benchStore(b *testing.B, days int) (*Store, topology.RackID, time.Time) {
	b.Helper()
	n := days * 288 // samples/day at 300 s
	recs := benchRecords(n)
	s := NewStore()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	s.SealAll()
	return s, recs[0].Rack, base.Add(time.Duration(n) * timeutil.SampleInterval)
}

// BenchmarkCompression reports the sealed footprint against the slice
// store's in-memory record size: bytes/sample is the Gorilla-style metric
// (compressed bytes per timestamp+value pair, 6 values per record).
func BenchmarkCompression(b *testing.B) {
	s, _, _ := benchStore(b, 120)
	st := s.Stats()
	sliceBytesPerRecord := float64(unsafe.Sizeof(sensors.Record{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st = s.Stats()
	}
	b.ReportMetric(st.BytesPerSample, "B/sample")
	b.ReportMetric(st.BytesPerRecord, "B/record")
	b.ReportMetric(sliceBytesPerRecord, "sliceB/record")
	b.ReportMetric(sliceBytesPerRecord/float64(sensors.NumMetrics), "sliceB/sample")
}

// BenchmarkQueryRange scans a 30-day range (8640 records) per op,
// decompressing all six channels.
func BenchmarkQueryRange(b *testing.B) {
	s, rack, _ := benchStore(b, 120)
	from := base.Add(10 * 24 * time.Hour)
	to := from.Add(30 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.Query(rack, from, to); len(got) == 0 {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkQueryRangeParallel runs the same scan from many goroutines: the
// RWMutex-per-shard design and lock-free block decoding let range queries
// scale with cores (compare ns/op against BenchmarkQueryRange — on a
// single-core host the two match, demonstrating zero contention overhead;
// on multi-core hosts ns/op drops roughly linearly).
func BenchmarkQueryRangeParallel(b *testing.B) {
	s, rack, _ := benchStore(b, 120)
	from := base.Add(10 * 24 * time.Hour)
	to := from.Add(30 * 24 * time.Hour)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if got := s.Query(rack, from, to); len(got) == 0 {
				b.Fatal("empty query")
			}
		}
	})
}

// BenchmarkSeries extracts one metric over 30 days — the pushdown path that
// decodes a single compressed column instead of materializing records.
func BenchmarkSeries(b *testing.B) {
	s, rack, _ := benchStore(b, 120)
	from := base.Add(10 * 24 * time.Hour)
	to := from.Add(30 * 24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, vs := s.Series(rack, sensors.MetricOutletTemp, from, to); len(vs) == 0 {
			b.Fatal("empty series")
		}
	}
}

// BenchmarkAggregate computes daily min/max/mean over 90 days without
// materializing any records.
func BenchmarkAggregate(b *testing.B) {
	s, rack, end := benchStore(b, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if aggs, err := s.Aggregate(rack, sensors.MetricPower, base, end, 24*time.Hour); err != nil || len(aggs) == 0 {
			b.Fatalf("empty aggregate (err %v)", err)
		}
	}
}

// benchStoreAllRacks builds a sealed full-machine store: every rack,
// days of telemetry, so merged scans exercise the 48-way heap and the
// shard fan-out.
func benchStoreAllRacks(b *testing.B, days int) *Store {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	s := NewStoreWith(Options{Partition: 7 * 24 * time.Hour})
	n := days * 288
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range topology.AllRacks() {
			if err := s.Append(synthRecord(rng, rack, ts)); err != nil {
				b.Fatal(err)
			}
		}
	}
	s.SealAll()
	return s
}

// BenchmarkEachRecord is the full-trace replay benchmark on the batch-
// columnar path: the chunked merged scan in global (timestamp, rack) order
// with a single decode worker pipelined against the merge loop — the shape
// offline replay uses. Compare against BenchmarkEachRecordSerial (rack-
// major, no merge) and BenchmarkEachRecordParallel (record-at-a-time
// merge) for the chunked-vs-record contrast.
func BenchmarkEachRecord(b *testing.B) {
	s := benchStoreAllRacks(b, 7)
	want := s.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := s.EachChunkMerged(1, func(c *envdb.Chunk) bool { n += c.Len(); return true }); err != nil {
			b.Fatal(err)
		}
		if n != want {
			b.Fatalf("visited %d, want %d", n, want)
		}
	}
	b.ReportMetric(float64(want), "records/op")
}

// BenchmarkEachRecordSerial is the serial full-trace replay baseline:
// rack-major order, one shard at a time, records materialized one by one.
func BenchmarkEachRecordSerial(b *testing.B) {
	s := benchStoreAllRacks(b, 7)
	want := s.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		s.EachRecord(func(sensors.Record) { n++ })
		if n != want {
			b.Fatalf("visited %d, want %d", n, want)
		}
	}
	b.ReportMetric(float64(want), "records/op")
}

// BenchmarkEachRecordParallel replays the same trace through the parallel
// fan-out + k-way merge in global timestamp order. The GOMAXPROCS sub-
// benchmarks show the decode scaling; on a single-core host all worker
// counts collapse to serial throughput plus merge overhead.
func BenchmarkEachRecordParallel(b *testing.B) {
	s := benchStoreAllRacks(b, 7)
	want := s.Len()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := s.EachRecordMerged(workers, func(sensors.Record) bool { n++; return true }); err != nil {
					b.Fatal(err)
				}
				if n != want {
					b.Fatalf("visited %d, want %d", n, want)
				}
			}
			b.ReportMetric(float64(want), "records/op")
		})
	}
}

// benchTicks pre-generates n time-ordered full-machine ticks flattened
// tick-major: 48 records per timestamp, the stream shape a pushing
// client accumulates into one ingest frame.
func benchTicks(n int) []sensors.Record {
	rng := rand.New(rand.NewSource(42))
	racks := topology.AllRacks()
	out := make([]sensors.Record, 0, n*len(racks))
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range racks {
			out = append(out, synthRecord(rng, rack, ts))
		}
	}
	return out
}

// resetHeads truncates every shard's head in place, keeping slice
// capacity, so the ingest benchmarks measure steady-state append cost
// instead of the one-time slice growth of a cold store. Benchmark-only:
// it reaches into shard internals under the shard locks.
func resetHeads(s *Store) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.head != nil {
			sh.head.times = sh.head.times[:0]
			for m := range sh.head.vals {
				sh.head.vals[m] = sh.head.vals[m][:0]
			}
		}
		sh.total = 0
		sh.lastT = 0
		sh.hasLast = false
		sh.counter = 0
		sh.mu.Unlock()
	}
}

// benchIngestTicks drives one 85-tick ingest frame (85 ticks × 48 racks
// = 4080 records) per op through the given ingest function against a
// warm store: heads are pre-grown to the full working set, then
// truncated in place (untimed) every 47 ops — 85×47 samples stay under
// the next head-capacity boundary — so both variants measure the
// per-record append path, not allocation. Each op consumes a distinct
// frame from the pre-generated stream, so neither variant gets to replay
// a cache-resident batch. The huge partition keeps sealing out of the
// loop.
func benchIngestTicks(b *testing.B, ingest func(envdb.DB, []sensors.Record) error) {
	const ticksPerOp = 85
	const opsPerStore = 47
	recs := benchTicks(ticksPerOp * opsPerStore)
	frame := ticksPerOp * topology.NumRacks // records per op
	s := NewStoreWith(Options{Partition: 1000000 * time.Hour})
	for _, r := range recs { // grow head capacity once, untimed
		if err := s.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	resetHeads(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := i % opsPerStore
		if i > 0 && op == 0 {
			b.StopTimer()
			resetHeads(s)
			b.StartTimer()
		}
		if err := ingest(s, recs[op*frame:(op+1)*frame]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	records := int64(b.N) * int64(frame)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// BenchmarkIngestTickLoop is the pre-batch ingest baseline: the shape a
// server without AppendTick uses on each ingest frame — one locked
// Append per record through the envdb.DB interface, 4080 lock
// round-trips per frame.
func BenchmarkIngestTickLoop(b *testing.B) {
	benchIngestTicks(b, func(db envdb.DB, frame []sensors.Record) error {
		for _, r := range frame {
			if err := db.Append(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkIngestTickBatch is the batched ingest path: one AppendTick
// per frame validates the whole batch up front, locks each touched shard
// once, and bulk-fills each head's 85-sample run. Compare ns/record
// against BenchmarkIngestTickLoop — the ratio is the per-record cost the
// batch path strips from the ingest hot loop.
func BenchmarkIngestTickBatch(b *testing.B) {
	benchIngestTicks(b, func(db envdb.DB, frame []sensors.Record) error {
		return db.(envdb.BatchAppender).AppendTick(frame)
	})
}

// benchStoreFleet builds a sealed 4-hall fleet store (192 racks) with
// days of telemetry on every rack, ingested tick-at-a-time.
func benchStoreFleet(b *testing.B, days int) *Store {
	b.Helper()
	fleet := topology.Fleet{Halls: 4, Racks: topology.NumRacks}
	rng := rand.New(rand.NewSource(42))
	racks := fleet.AllRacks()
	s := NewStoreWith(Options{Partition: 7 * 24 * time.Hour, Fleet: fleet})
	n := days * 288
	tick := make([]sensors.Record, len(racks))
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for j, rack := range racks {
			tick[j] = synthRecord(rng, rack, ts)
		}
		if err := s.AppendTick(tick); err != nil {
			b.Fatal(err)
		}
	}
	s.SealAll()
	return s
}

// BenchmarkFleetScanChunked replays a 4-hall / 192-rack fleet store
// through the chunked merged scan — the 192-way merge a fleet-wide
// analysis or audit pass runs, four times the single-machine fan-out of
// BenchmarkEachRecord.
func BenchmarkFleetScanChunked(b *testing.B) {
	s := benchStoreFleet(b, 2)
	want := s.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := s.EachChunkMerged(1, func(c *envdb.Chunk) bool { n += c.Len(); return true }); err != nil {
			b.Fatal(err)
		}
		if n != want {
			b.Fatalf("visited %d, want %d", n, want)
		}
	}
	b.ReportMetric(float64(want), "records/op")
}
