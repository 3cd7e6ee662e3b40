package analysis

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
)

// TestCollectFromStoreMixedLocations: records carrying the same instant in
// different time.Locations (Chicago-simulated vs UTC CSV-reimported) must
// land in the same tick. Grouping by time.Time map keys split them, which
// halved the reconstructed per-tick system power and plant flow.
func TestCollectFromStoreMixedLocations(t *testing.T) {
	db := &envdb.Store{}
	rackA := topology.RackID{Row: 0, Col: 1}
	rackB := topology.RackID{Row: 1, Col: 8}
	start := time.Date(2015, 3, 10, 0, 0, 0, 0, timeutil.Chicago)
	const ticks = 6
	for i := 0; i < ticks; i++ {
		ts := start.Add(time.Duration(i) * timeutil.SampleInterval)
		ra := flatRecord(ts, rackA)
		ra.Flow = 10
		rb := flatRecord(ts.UTC(), rackB) // same instant, different location
		rb.Flow = 20
		if err := db.Append(ra); err != nil {
			t.Fatal(err)
		}
		if err := db.Append(rb); err != nil {
			t.Fatal(err)
		}
	}

	c := CollectFromStoreCtx(context.Background(), db, CollectOptions{})
	fig := c.Fig3CoolantTimeline()
	// One tick per instant → the plant flow is the two racks' sum, not the
	// mean of two half-populated ticks.
	if want := 30.0; math.Abs(fig.FlowBeforeTheta-want) > 1e-9 {
		t.Errorf("plant flow = %v GPM, want %v (instants split into per-location ticks?)", fig.FlowBeforeTheta, want)
	}
	// System power likewise sums both racks per tick.
	trend := c.Fig2YearlyTrend()
	if len(trend.PowerMW) == 0 {
		t.Fatal("no power samples collected")
	}
	wantMW := float64(2*units.Watts(55e3)) / 1e6
	for i, p := range trend.PowerMW {
		if math.Abs(p-wantMW) > 1e-9 {
			t.Errorf("month %d power = %v MW, want %v", i, p, wantMW)
		}
	}
}

// multiDayStore simulates a multi-day full-machine trace (every rack,
// coolant-monitor cadence) into a compressed store with enough variation
// to make every figure's aggregates non-trivial.
func multiDayStore(t testing.TB, days int) *tsdb.Store {
	t.Helper()
	db := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillTrace(t, db, 0, days*288) // 300 s cadence
	return db
}

// fillTrace appends ticks [from, to) of the deterministic multi-day trace
// to db. The rng is re-seeded and fast-forwarded through skipped ticks, so
// any tick range yields the same records regardless of where it starts —
// a compacted store's hot window can be rebuilt record-for-record.
func fillTrace(t testing.TB, db *tsdb.Store, from, to int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	start := time.Date(2015, 3, 10, 0, 0, 0, 0, timeutil.Chicago)
	for i := 0; i < to; i++ {
		ts := start.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range topology.AllRacks() {
			r := flatRecord(ts, rack)
			r.Flow = units.GPM(26 + rng.Float64())
			r.InletTemp = units.Fahrenheit(64 + rng.Float64())
			r.OutletTemp = units.Fahrenheit(79 + rng.Float64())
			r.DCTemperature = units.Fahrenheit(80 + 2*rng.Float64())
			r.DCHumidity = units.RelativeHumidity(30 + 4*rng.Float64())
			r.Power = units.Watts(55000 + 100*rng.Float64())
			if i < from {
				continue
			}
			if err := db.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReplayMergedBoundedMemory pins the same one-tick bound on the
// merged scans of the other stores: the slice store's chunk-filling
// k-way merge, and a remote client decoding the server's time-ordered
// stream. Both replay through the same tick grouping as a local store,
// where a buffering replay would hold ticks × racks records.
func TestReplayMergedBoundedMemory(t *testing.T) {
	db := multiDayStore(t, 3) // 864 ticks × 48 racks ≈ 41k records
	slice := &envdb.Store{}
	for _, r := range sortedRecords(db) {
		if err := slice.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(telemetrynet.NewServer(db, telemetrynet.ServerOptions{}).Handler())
	defer srv.Close()
	for name, store := range map[string]envdb.DB{
		"slice":  slice,
		"remote": telemetrynet.NewClient(srv.URL, telemetrynet.ClientOptions{}),
	} {
		c := NewCollector()
		maxTick, err := replay(context.Background(), store, 4, 0, c)
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		c.Finalize()
		if maxTick != topology.NumRacks {
			t.Fatalf("%s: peak tick buffer = %d records, want %d (one per rack)", name, maxTick, topology.NumRacks)
		}
		if got := c.Fig7RackCoolant(); len(got.FlowGPM) != topology.NumRacks {
			t.Fatalf("%s: replay produced %d rack means", name, len(got.FlowGPM))
		}
	}
}

// sortedRecords is the merged scan's order written out in test code: the
// store's records read rack by rack through Query, in fleet order, then
// stable-sorted by (instant, rack code).
func sortedRecords(db *tsdb.Store) []sensors.Record {
	var out []sensors.Record
	fleet := db.Fleet()
	for g := 0; g < fleet.NumRacks(); g++ {
		out = append(out, db.Query(fleet.RackAt(g), time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64))...)
	}
	sort.SliceStable(out, func(a, b int) bool {
		ta, tb := out[a].Time.UnixNano(), out[b].Time.UnixNano()
		if ta != tb {
			return ta < tb
		}
		return out[a].Rack.Code() < out[b].Rack.Code()
	})
	return out
}

// TestReplayChunkedMatchesRecords pins the replay's correctness bar: the
// column-reading replay and a record-at-a-time replay written out in test
// code — sorted records grouped by instant, each tick's power summed and
// fed to the collector's OnTick and OnSample — must produce Figs. 2–9
// bit-identical, not merely close.
func TestReplayChunkedMatchesRecords(t *testing.T) {
	db := multiDayStore(t, 2)
	chunked := CollectFromStoreCtx(context.Background(), db, CollectOptions{Workers: 3})

	records := NewCollector()
	recs := sortedRecords(db)
	for lo := 0; lo < len(recs); {
		hi := lo
		var power units.Watts
		for ; hi < len(recs) && recs[hi].Time.UnixNano() == recs[lo].Time.UnixNano(); hi++ {
			power += recs[hi].Power
		}
		records.OnTick(recs[lo].Time, power, nanUtil)
		for _, r := range recs[lo:hi] {
			records.OnSample(r)
		}
		lo = hi
	}
	records.Finalize()

	// Fig2/Fig3/Fig8 carry NaN fields when the trace has no summer months,
	// and NaN != NaN under DeepEqual; the %+v rendering distinguishes
	// every non-NaN float while treating NaN as equal to itself. Fig2
	// carries the reconstructed system power.
	if got, want := fmt.Sprintf("%+v", chunked.Fig2YearlyTrend()), fmt.Sprintf("%+v", records.Fig2YearlyTrend()); got != want {
		t.Errorf("Fig2 differs:\n chunked %s\n records %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", chunked.Fig3CoolantTimeline()), fmt.Sprintf("%+v", records.Fig3CoolantTimeline()); got != want {
		t.Errorf("Fig3 differs:\n chunked %s\n records %s", got, want)
	}
	// Fig4 reads the monthly reservoirs, the one median the replay keeps;
	// Figs 5 and 6 carry NaN utilization offline.
	if got, want := fmt.Sprintf("%+v", chunked.Fig4MonthlyProfile()), fmt.Sprintf("%+v", records.Fig4MonthlyProfile()); got != want {
		t.Errorf("Fig4 differs:\n chunked %s\n records %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", chunked.Fig5WeekdayProfile()), fmt.Sprintf("%+v", records.Fig5WeekdayProfile()); got != want {
		t.Errorf("Fig5 differs:\n chunked %s\n records %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", chunked.Fig6RackPowerUtil()), fmt.Sprintf("%+v", records.Fig6RackPowerUtil()); got != want {
		t.Errorf("Fig6 differs:\n chunked %s\n records %s", got, want)
	}
	if got, want := chunked.Fig7RackCoolant(), records.Fig7RackCoolant(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig7 differs:\n chunked %+v\n records %+v", got, want)
	}
	if got, want := fmt.Sprintf("%+v", chunked.Fig8AmbientTimeline()), fmt.Sprintf("%+v", records.Fig8AmbientTimeline()); got != want {
		t.Errorf("Fig8 differs:\n chunked %s\n records %s", got, want)
	}
	if got, want := chunked.Fig9RackAmbient(), records.Fig9RackAmbient(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig9 differs:\n chunked %+v\n records %+v", got, want)
	}
}

// TestReplayChunkedBoundedMemory pins the replay's memory bound on a
// multi-day full-machine trace: the tick buffer stays exactly one tick —
// one record per rack — even though the scan hands over multi-tick
// chunks, where a buffering replay would hold ticks × racks records.
func TestReplayChunkedBoundedMemory(t *testing.T) {
	db := multiDayStore(t, 3) // 864 ticks × 48 racks ≈ 41k records
	c := NewCollector()
	maxTick, err := replay(context.Background(), db, 4, 0, c)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	c.Finalize()
	if maxTick != topology.NumRacks {
		t.Fatalf("peak tick buffer = %d records, want %d (one per rack)", maxTick, topology.NumRacks)
	}
	if got := c.Fig7RackCoolant(); len(got.FlowGPM) != topology.NumRacks {
		t.Fatalf("replay produced %d rack means", len(got.FlowGPM))
	}
}

// closeF reports a ≈ b within relative tolerance tol (NaN equals NaN).
func closeF(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// closeSlice reports elementwise closeF over equal-length slices.
func closeSlice(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !closeF(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// TestPushdownMatchesReplay: Figs. 7/9 computed via aggregation pushdown
// (compressed columns only, no replay) must match the full replay. The
// pushdown sums accumulate in the quantized integer domain (so they stay
// exact across retention compaction) while the replay folds floats in tick
// order, so the comparison allows summation-order rounding — a relative
// tolerance far tighter than any figure resolution, not bit-equality.
func TestPushdownMatchesReplay(t *testing.T) {
	const tol = 1e-9
	db := multiDayStore(t, 2)
	c := CollectFromStoreCtx(context.Background(), db, CollectOptions{Workers: 2})

	fig7, err := Fig7CoolantPushdownHall(context.Background(), db, 0)
	if err != nil {
		t.Fatalf("Fig7CoolantPushdownHall: %v", err)
	}
	if want := c.Fig7RackCoolant(); !closeSlice(fig7.FlowGPM, want.FlowGPM, tol) ||
		!closeSlice(fig7.InletF, want.InletF, tol) ||
		!closeSlice(fig7.OutletF, want.OutletF, tol) ||
		!closeF(fig7.FlowSpreadPct, want.FlowSpreadPct, tol) ||
		!closeF(fig7.InletSpreadPct, want.InletSpreadPct, tol) ||
		!closeF(fig7.OutletSpreadPct, want.OutletSpreadPct, tol) {
		t.Errorf("Fig7 pushdown differs:\n pushdown %+v\n replay   %+v", fig7, want)
	}
	fig9, err := Fig9AmbientPushdownHall(context.Background(), db, 0)
	if err != nil {
		t.Fatalf("Fig9AmbientPushdownHall: %v", err)
	}
	if want := c.Fig9RackAmbient(); !closeSlice(fig9.TempF, want.TempF, tol) ||
		!closeSlice(fig9.HumidityRH, want.HumidityRH, tol) ||
		!closeF(fig9.TempSpreadPct, want.TempSpreadPct, tol) ||
		!closeF(fig9.HumSpreadPct, want.HumSpreadPct, tol) ||
		fig9.MaxHumidityRack != want.MaxHumidityRack ||
		!closeF(fig9.RowEndTempExcess, want.RowEndTempExcess, tol) ||
		!closeF(fig9.RowEndHumidityDeficit, want.RowEndHumidityDeficit, tol) {
		t.Errorf("Fig9 pushdown differs:\n pushdown %+v\n replay   %+v", fig9, want)
	}
}

// TestReplaySkipsDownsampledTier: after retention compaction the replay
// figures must cover exactly the retained hot window. A downsampled
// window's record is an aggregate stand-in, not a monitor tick — feeding
// it to the collector would fabricate ticks — so the compacted store's
// replay must equal, record for record, the replay of a store holding
// only the hot-window ticks.
func TestReplaySkipsDownsampledTier(t *testing.T) {
	db := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour, Retention: 24 * time.Hour})
	fillTrace(t, db, 0, 3*288)
	st, err := db.Compact("")
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Windows == 0 {
		t.Fatal("compaction folded nothing; the downsampled tier is not exercised")
	}

	// Every shard sees the same tick sequence, so the folded-record count
	// identifies exactly which prefix of ticks moved to the cold tier
	// (partition boundaries fall on UTC days, not local ones, so the prefix
	// is not a whole number of local days).
	fromTick := int(st.SourceRecords) / topology.NumRacks
	if fromTick*topology.NumRacks != int(st.SourceRecords) || fromTick <= 0 || fromTick >= 3*288 {
		t.Fatalf("compaction folded %d records; want a whole positive prefix of %d-rack ticks", st.SourceRecords, topology.NumRacks)
	}
	hot := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillTrace(t, hot, fromTick, 3*288)

	got := CollectFromStoreCtx(context.Background(), db, CollectOptions{Workers: 3})
	want := CollectFromStoreCtx(context.Background(), hot, CollectOptions{Workers: 3})
	if g, w := fmt.Sprintf("%+v", got.Fig3CoolantTimeline()), fmt.Sprintf("%+v", want.Fig3CoolantTimeline()); g != w {
		t.Errorf("Fig3 differs:\n compacted %s\n hot-only  %s", g, w)
	}
	if g, w := got.Fig7RackCoolant(), want.Fig7RackCoolant(); !reflect.DeepEqual(g, w) {
		t.Errorf("Fig7 differs:\n compacted %+v\n hot-only  %+v", g, w)
	}
	if g, w := got.Fig9RackAmbient(), want.Fig9RackAmbient(); !reflect.DeepEqual(g, w) {
		t.Errorf("Fig9 differs:\n compacted %+v\n hot-only  %+v", g, w)
	}
}

// TestPushdownCompactionInvariant: the Fig. 7/9 pushdown figures must be
// bit-identical before and after retention compaction. The downsampled
// tier stores per-window sums in the quantized integer domain, and
// integer addition is associative — so folding a year of raw records into
// hourly windows changes nothing about a whole-range mean.
func TestPushdownCompactionInvariant(t *testing.T) {
	db := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour, Retention: 24 * time.Hour})
	fillTrace(t, db, 0, 3*288)

	before7, err := Fig7CoolantPushdownHall(context.Background(), db, 0)
	if err != nil {
		t.Fatalf("Fig7CoolantPushdownHall: %v", err)
	}
	before9, err := Fig9AmbientPushdownHall(context.Background(), db, 0)
	if err != nil {
		t.Fatalf("Fig9AmbientPushdownHall: %v", err)
	}
	st, err := db.Compact("")
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Windows == 0 {
		t.Fatal("compaction folded nothing; the invariant is not exercised")
	}
	after7, err := Fig7CoolantPushdownHall(context.Background(), db, 0)
	if err != nil {
		t.Fatalf("Fig7CoolantPushdownHall after compact: %v", err)
	}
	after9, err := Fig9AmbientPushdownHall(context.Background(), db, 0)
	if err != nil {
		t.Fatalf("Fig9AmbientPushdownHall after compact: %v", err)
	}
	if !reflect.DeepEqual(before7, after7) {
		t.Errorf("Fig7 changed under compaction:\n before %+v\n after  %+v", before7, after7)
	}
	if !reflect.DeepEqual(before9, after9) {
		t.Errorf("Fig9 changed under compaction:\n before %+v\n after  %+v", before9, after9)
	}
}

// figuresCRC is the CRC-32 of Figs. 2–9 rendered with %+v, which prints
// every float in its shortest round-trip form: two collectors print the
// same number only if every figure agrees bit for bit.
func figuresCRC(c *Collector) uint32 {
	h := crc32.NewIEEE()
	for _, fig := range []any{
		c.Fig2YearlyTrend(), c.Fig3CoolantTimeline(), c.Fig4MonthlyProfile(), c.Fig5WeekdayProfile(),
		c.Fig6RackPowerUtil(), c.Fig7RackCoolant(), c.Fig8AmbientTimeline(), c.Fig9RackAmbient(),
	} {
		fmt.Fprintf(h, "%+v\n", fig)
	}
	return h.Sum32()
}

// TestFiguresPinned pins Figs. 2–9 of a store replay and of the live
// six-year run to constants recorded before the replay read chunk columns
// and the profiles dropped what no figure reads: an accumulator change
// that moves any figure bit fails here, whichever path it is on. The
// replay runs first so -short (which skips the live run) still checks it.
func TestFiguresPinned(t *testing.T) {
	const (
		wantReplay = 203523793
		wantLive   = 566891508
	)
	replayed := CollectFromStoreCtx(context.Background(), multiDayStore(t, 2), CollectOptions{Workers: 3})
	if got := figuresCRC(replayed); got != wantReplay {
		t.Errorf("replayed figures CRC-32 = %d, want %d", got, wantReplay)
	}
	live, _, _ := fullSim(t)
	if got := figuresCRC(live); got != wantLive {
		t.Errorf("live figures CRC-32 = %d, want %d", got, wantLive)
	}
}

// BenchmarkReplay measures what every figure study pays per stored record:
// CollectFromStoreCtx over a week-long full-machine trace in a local
// compressed store, scan and collector together.
//
//	go test -run '^$' -bench '^BenchmarkReplay$' -benchmem ./internal/analysis/
func BenchmarkReplay(b *testing.B) {
	const days = 7
	db := multiDayStore(b, days)
	records := days * 288 * topology.NumRacks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CollectFromStoreCtx(context.Background(), db, CollectOptions{})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
