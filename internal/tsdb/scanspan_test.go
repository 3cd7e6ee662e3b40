package tsdb

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// scanStoreDays is the history of scanBenchStore: two 30-day partitions'
// worth, so the store holds a full 8,640-row block per rack between two
// partial ones.
const scanStoreDays = 60

var (
	scanStoreOnce sync.Once
	scanStore     *Store
)

// scanBenchStore is the sealed store BenchmarkScan and the scan memory
// tests read: every rack of one hall at the 300 s cadence for
// scanStoreDays, in blocks of the default 30-day partition. It is built
// once per test binary and only read.
func scanBenchStore(tb testing.TB) *Store {
	tb.Helper()
	scanStoreOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		s := NewStore()
		racks := topology.AllRacks()
		tick := make([]sensors.Record, len(racks))
		for i := 0; i < scanStoreDays*288; i++ {
			ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
			for j, rack := range racks {
				tick[j] = synthRecord(rng, rack, ts)
			}
			if err := s.AppendTick(tick); err != nil {
				panic(err)
			}
		}
		s.SealAll()
		scanStore = s
	})
	return scanStore
}

// countScan runs the full merged scan of s on workers and returns its rows.
func countScan(tb testing.TB, s *Store, workers int) int {
	n := 0
	if err := s.EachChunkMergedCtx(context.Background(), workers, func(c *envdb.Chunk) bool {
		n += c.Len()
		return true
	}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// dropPools empties every sync.Pool: a pool keeps its items through one
// collection (in its victim cache) and drops them at the second.
func dropPools() {
	runtime.GC()
	runtime.GC()
}

// BenchmarkScan is the full merged scan of scanBenchStore on GOMAXPROCS
// workers: "warm" back to back, the shape of repeated replays, and "gc"
// with the pools emptied before each scan (dropPools), the shape of a scan
// in a process whose heap churns, so B/op shows what one scan allocates
// from nothing.
func BenchmarkScan(b *testing.B) {
	s := scanBenchStore(b)
	want := s.Len()
	for _, c := range []struct {
		name string
		gc   bool
	}{{"warm", false}, {"gc", true}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if c.gc {
					b.StopTimer()
					dropPools()
					b.StartTimer()
				}
				if n := countScan(b, s, 0); n != want {
					b.Fatalf("scanned %d rows, want %d", n, want)
				}
			}
			b.ReportMetric(float64(want), "records/op")
		})
	}
}

// scanBlock decodes sealed block b the way the merged scan does, a span
// at a time through one blockReader over two alternating arenas, and joins
// the spans. It fails when a run has more than scanSpan rows or the block
// decodes in other than ceil(count/scanSpan) runs.
func scanBlock(t *testing.T, b *sealedBlock) ([]int64, [sensors.NumMetrics][]float64, error) {
	t.Helper()
	var rd blockReader
	var arenas [2]scanArena
	var times []int64
	var cols [sensors.NumMetrics][]float64
	runs := 0
	for rd.reset(blockView{sealed: b}); rd.row < rd.rows; {
		ar := &arenas[runs&1]
		run, err := rd.next(scanSpan, allCols, ar)
		if err != nil {
			return nil, cols, err
		}
		runs++
		if len(run.times) > scanSpan {
			t.Fatalf("run %d covers %d rows of a %d-row span limit", runs, len(run.times), scanSpan)
		}
		times = append(times, run.times...)
		for m := range cols {
			cols[m] = append(cols[m], ar.floats(run, m, 0, len(run.times))...)
		}
	}
	if want := (b.count + scanSpan - 1) / scanSpan; runs != want {
		t.Fatalf("a %d-row block scanned in %d runs, want %d", b.count, runs, want)
	}
	return times, cols, nil
}

// decodeTimes and decodeChannel are the whole-block oracle of the reader
// tests: each stream decoded straight through its codec from the stream
// head, errors wrapped as the reader wraps them.
func (b *sealedBlock) decodeTimes() ([]int64, error) {
	ts, err := decodeTimes(b.times, b.count)
	if err != nil {
		return nil, b.wrap("timestamps", err)
	}
	return ts, nil
}

func (b *sealedBlock) decodeChannel(m sensors.Metric) ([]float64, error) {
	c := b.ch[m]
	if c.enc == encXOR {
		vals, err := decodeXOR(c.data, b.count)
		if err != nil {
			return nil, b.wrap(m.String(), err)
		}
		return vals, nil
	}
	ints, err := decodeIntsPacked(c.data, b.count)
	if err != nil {
		return nil, b.wrap(m.String(), err)
	}
	vals := make([]float64, len(ints))
	for i, n := range ints {
		vals[i] = float64(n) / c.scale
	}
	return vals, nil
}

// sameFloatBits reports whether two float columns hold the same bit patterns.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// spanXORColumns are XOR columns for the span checks: noise with NaN,
// +Inf, -Inf and -0 sprinkled in, and a stretch of repeats between fresh
// windows.
func spanXORColumns(rng *rand.Rand, n int) [][]float64 {
	special, steps := make([]float64, n), make([]float64, n)
	for i := range special {
		special[i] = rng.NormFloat64() * 100
		switch rng.Intn(20) {
		case 0:
			special[i] = math.NaN()
		case 1:
			special[i] = math.Inf(1)
		case 2:
			special[i] = math.Inf(-1)
		case 3:
			special[i] = math.Copysign(0, -1)
		}
		steps[i] = float64(i / 100)
		if rng.Intn(50) == 0 {
			steps[i] = rng.ExpFloat64() * 1e300
		}
	}
	return [][]float64{special, steps}
}

// spanRowCounts are the block sizes the span decode is checked on: one
// row, group, restart and span edges on both sides, and a 30-day block at
// the 300 s cadence.
var spanRowCounts = []int{1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 8640}

// TestScanSpansMatchWholeDecode: the merged scan's span runs of a sealed
// block, joined, equal the whole-block decodes bit for bit — timestamps
// fixed and irregular (repeats, month-long gaps), integer columns with
// noise, width-0 groups and >56-bit groups, and XOR columns holding NaN,
// ±Inf and -0.
func TestScanSpansMatchWholeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, n := range spanRowCounts {
		for _, irregular := range []bool{false, true} {
			t.Run(fmt.Sprintf("rows=%d/irregular=%v", n, irregular), func(t *testing.T) {
				b := restartBlock(restartTimes(rng, n, irregular), restartColumns(rng, n))
				for k, col := range spanXORColumns(rng, n) {
					b.ch[len(b.ch)-1-k] = channelData{enc: encXOR, data: encodeXOR(col)}
				}
				times, cols, err := scanBlock(t, b)
				if err != nil {
					t.Fatal(err)
				}
				if b.idx != nil {
					t.Fatal("the scan built the block's restart index")
				}
				want, err := b.decodeTimes()
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(times, want) {
					t.Fatal("span timestamps differ from the whole-block decode")
				}
				for m := range cols {
					want, err := b.decodeChannel(sensors.Metric(m))
					if err != nil {
						t.Fatal(err)
					}
					if !sameFloatBits(cols[m], want) {
						t.Fatalf("channel %d (encoding %d): span decode differs from the whole-block decode", m, b.ch[m].enc)
					}
				}
			})
		}
	}
}

// checkScanSpans is FuzzDecodeBlock's span check: data as the XOR column
// and as the integer column of a count-row block with valid fixed-cadence
// timestamps. Scanned span by span, each must equal the whole-column
// decode, or both must fail with ErrCorrupt.
func checkScanSpans(t *testing.T, data []byte, count int) {
	reg := make([]int64, count)
	for i := range reg {
		reg[i] = int64(i) * 300e9
	}
	zeros := encodeXOR(make([]float64, count))
	for _, c := range []channelData{{enc: encXOR, data: data}, {enc: encIntPacked, scale: 1, data: data}} {
		b := &sealedBlock{minT: reg[0], maxT: reg[count-1], count: count, times: encodeTimes(reg)}
		for m := range b.ch {
			b.ch[m] = channelData{enc: encXOR, data: zeros}
		}
		b.ch[sensors.MetricFlow] = c
		want, werr := b.decodeChannel(sensors.MetricFlow)
		_, cols, err := scanBlock(t, b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("encoding %d: span scan error %v, whole decode error %v", c.enc, err, werr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || !errors.Is(werr, ErrCorrupt) {
				t.Fatalf("encoding %d: errors do not wrap ErrCorrupt: span %v, whole %v", c.enc, err, werr)
			}
			continue
		}
		if !sameFloatBits(cols[sensors.MetricFlow], want) {
			t.Fatalf("encoding %d: span scan differs from the whole decode", c.enc)
		}
	}
}

// TestScanInBlockRange: a ranged scan that starts and ends inside blocks —
// the incremental auditor's shape — yields exactly the rows of the full
// scan inside the range, for ranges within one span, across span and
// block edges, and reaching into the head, and decodes no span past the
// one the range ends in.
func TestScanInBlockRange(t *testing.T) {
	s := NewStore()
	racks := []topology.RackID{{Row: 0, Col: 3}, {Row: 1, Col: 5}, {Row: 2, Col: 0}}
	fill(t, 40*288, racks, s) // a sealed 30-day block per rack, then the head
	full, err := scanChunks(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	ranges := [][2]time.Duration{
		{17 * time.Minute, 3 * time.Hour},                    // inside one span
		{3*24*time.Hour + 7*time.Minute, 9 * 24 * time.Hour}, // across spans
		{20 * 24 * time.Hour, 35 * 24 * time.Hour},           // across the block edge into the head
	}
	for i := 0; i < 5; i++ {
		a := time.Duration(rng.Int63n(int64(40 * 24 * time.Hour)))
		ranges = append(ranges, [2]time.Duration{a, a + time.Duration(rng.Int63n(int64(5*24*time.Hour)))})
	}
	// The first range lies inside every rack's first span: each stream
	// decodes that one run, no span after it and nothing of the head.
	runs := metScanDecodeDur.Count()
	if err := s.EachChunkInRange(context.Background(), base.Add(ranges[0][0]), base.Add(ranges[0][1]), 1,
		func(*envdb.Chunk) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := metScanDecodeDur.Count() - runs; got != uint64(len(racks)) {
		t.Fatalf("a range inside the first span decoded %d runs, want %d (one per rack)", got, len(racks))
	}
	for _, r := range ranges {
		from, to := base.Add(r[0]), base.Add(r[1])
		var want []tieredRecord
		for _, tr := range full {
			if !tr.r.Time.Before(from) && tr.r.Time.Before(to) {
				want = append(want, tr)
			}
		}
		var got []tieredRecord
		for _, workers := range []int{1, 3} {
			got = got[:0]
			if err := s.EachChunkInRange(context.Background(), from, to, workers, func(c *envdb.Chunk) bool {
				for i := 0; i < c.Len(); i++ {
					got = append(got, tieredRecord{c.Record(i), c.Tiers[i]})
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sameTiered(t, fmt.Sprintf("[%v, %v) workers=%d", r[0], r[1], workers), got, want)
		}
	}
}

// TestScanMemoryBounded: a full merged scan of scanBenchStore with the
// pools emptied allocates at most 16 MB — span-sized decode buffers, not
// whole 30-day blocks (≈ 53 MB for the 48 racks).
func TestScanMemoryBounded(t *testing.T) {
	s := scanBenchStore(t)
	want := s.Len()
	var before, after runtime.MemStats
	dropPools()
	runtime.ReadMemStats(&before)
	n := countScan(t, s, 0)
	runtime.ReadMemStats(&after)
	if n != want {
		t.Fatalf("scanned %d rows, want %d", n, want)
	}
	const limit = 16e6
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("a full scan allocated %.1f MB, want at most %.0f MB", float64(got)/1e6, float64(limit)/1e6)
	}
}

// TestScanWireChunksFollowMergedChunks: /v1/scan?order=time of
// scanBenchStore sends one wire chunk per merged chunk, in order, so no
// chunk on the wire is larger than the merge's.
func TestScanWireChunksFollowMergedChunks(t *testing.T) {
	s := scanBenchStore(t)
	var merged []int
	if err := s.EachChunkMergedCtx(context.Background(), 0, func(c *envdb.Chunk) bool {
		merged = append(merged, c.Len())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(telemetrynet.NewServer(s, telemetrynet.ServerOptions{}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/scan?order=time")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d, %v", resp.StatusCode, err)
	}
	// Stream header (magic, flags, zone), then [count | rows | crc32] chunks
	// of 58-byte untiered rows, ending with a zero-count chunk.
	const rowSize = 2 + 8 + 8*int(sensors.NumMetrics)
	var wire []int
	for p := 12; ; {
		if p+8 > len(body) {
			t.Fatalf("scan body truncated at byte %d", p)
		}
		count := int(binary.LittleEndian.Uint32(body[p:]))
		if count == 0 {
			break
		}
		wire = append(wire, count)
		p += 4 + count*rowSize + 4
	}
	if !slices.Equal(wire, merged) {
		t.Fatalf("wire chunks %d (largest %d rows) differ from the %d merged chunks (largest %d rows)",
			len(wire), slices.Max(wire), len(merged), slices.Max(merged))
	}
}

// TestColdScanDecodesCountsOnce: the merged scan decodes a cold block's
// window starts, its window counts once for all six channels, and the six
// channels — eight payload decodes.
func TestColdScanDecodesCountsOnce(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour})
	rack := topology.RackID{Row: 0, Col: 0}
	fill(t, 600, []topology.RackID{rack}, s)
	if _, err := s.Compact(""); err != nil {
		t.Fatal(err)
	}
	cold := s.shards[rack.Index()].cold
	if len(cold) != 1 {
		t.Fatalf("%d cold blocks, want 1", len(cold))
	}
	before := metDecode.Value()
	rows := 0
	if err := s.EachChunkInRange(context.Background(), base, time.Unix(0, cold[0].maxT+1), 1, func(c *envdb.Chunk) bool {
		rows += c.Len()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != cold[0].count {
		t.Fatalf("scanned %d rows, want the cold block's %d windows", rows, cold[0].count)
	}
	if got, want := metDecode.Value()-before, uint64(2+sensors.NumMetrics); got != want {
		t.Fatalf("scanning a cold block made %d payload decodes, want %d", got, want)
	}
}

// TestColdPointReadsDecodeCountsOnce: a one-rack 6-hour Query over one
// cold block decodes the window starts, the window counts once for all six
// channels, and the six channels — eight payload decodes, as the scan
// does — and a one-window Aggregate decodes the starts, the counts once
// and its one channel.
func TestColdPointReadsDecodeCountsOnce(t *testing.T) {
	s := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour})
	rack := topology.RackID{Row: 0, Col: 0}
	fill(t, 600, []topology.RackID{rack}, s)
	if _, err := s.Compact(""); err != nil {
		t.Fatal(err)
	}
	cold := s.shards[rack.Index()].cold
	if len(cold) != 1 || cold[0].maxT-cold[0].minT < int64(6*time.Hour) {
		t.Fatalf("want one cold block of more than 6 hours, have %d", len(cold))
	}
	from := time.Unix(0, cold[0].minT)
	to := from.Add(6 * time.Hour)
	before := metDecode.Value()
	if recs := s.Query(rack, from, to); len(recs) != 6 {
		t.Fatalf("queried %d records, want 6 hourly windows", len(recs))
	}
	if got, want := metDecode.Value()-before, uint64(2+sensors.NumMetrics); got != want {
		t.Fatalf("a 6-hour Query over a cold block made %d payload decodes, want %d", got, want)
	}
	before = metDecode.Value()
	aggs, err := s.Aggregate(rack, sensors.MetricPower, from, to, 0)
	if err != nil || len(aggs) != 1 || aggs[0].Count != 72 {
		t.Fatalf("Aggregate = %+v, %v; want one window of 72 samples", aggs, err)
	}
	if got := metDecode.Value() - before; got != 3 {
		t.Fatalf("a one-window Aggregate over a cold block made %d payload decodes, want 3", got)
	}
}
