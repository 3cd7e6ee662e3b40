package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mira/internal/envdb"
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
	db := envdb.NewStore()
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

	c := CollectFromStore(db)
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
	wantMW := float64(2*units.KW(55)) / 1e6
	for i, p := range trend.PowerMW {
		if math.Abs(p-wantMW) > 1e-9 {
			t.Errorf("month %d power = %v MW, want %v", i, p, wantMW)
		}
	}
}

// multiDayStore simulates a multi-day full-machine trace (every rack,
// coolant-monitor cadence) into a compressed store with enough variation
// to make every figure's aggregates non-trivial.
func multiDayStore(t *testing.T, days int) *tsdb.Store {
	t.Helper()
	db := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillTrace(t, db, 0, days*288) // 300 s cadence
	return db
}

// fillTrace appends ticks [from, to) of the deterministic multi-day trace
// to db. The rng is re-seeded and fast-forwarded through skipped ticks, so
// any tick range yields the same records regardless of where it starts —
// a compacted store's hot window can be rebuilt record-for-record.
func fillTrace(t *testing.T, db *tsdb.Store, from, to int) {
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

// TestReplayMergedBoundedMemory pins the tentpole's memory bound on a
// multi-day full-machine trace: the streaming replay's peak buffering is
// exactly one tick — one record per rack — where the old path
// materialized the whole trace (ticks × racks records) in a map.
func TestReplayMergedBoundedMemory(t *testing.T) {
	db := multiDayStore(t, 3) // 864 ticks × 48 racks ≈ 41k records
	c := NewCollector()
	maxTick, err := replayMerged(db, 4, c)
	if err != nil {
		t.Fatalf("replayMerged: %v", err)
	}
	c.Finalize()
	if maxTick != topology.NumRacks {
		t.Fatalf("peak tick buffer = %d records, want %d (one per rack)", maxTick, topology.NumRacks)
	}
	if got := c.Fig7RackCoolant(); len(got.FlowGPM) != topology.NumRacks {
		t.Fatalf("replay produced %d rack means", len(got.FlowGPM))
	}
}

// TestReplayChunkedMatchesRecords pins the tentpole's correctness bar: the
// batch-columnar replay (what a local store gets) and the record-at-a-time
// replay (the remote client's only path, and the reference here) must
// produce figures that are bit-identical — not merely close — because both
// materialize records from the same decoded columns in the same visit
// order.
func TestReplayChunkedMatchesRecords(t *testing.T) {
	db := multiDayStore(t, 2)
	chunked := CollectFromStoreOpts(db, CollectOptions{Workers: 3})
	records := NewCollector()
	if _, err := replayMerged(db, 3, records); err != nil {
		t.Fatalf("replayMerged: %v", err)
	}
	records.Finalize()

	if got, want := fmt.Sprintf("%+v", chunked.Fig3CoolantTimeline()), fmt.Sprintf("%+v", records.Fig3CoolantTimeline()); got != want {
		t.Errorf("Fig3 differs:\n chunked %s\n records %s", got, want)
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

// TestReplayChunkedBoundedMemory: the chunked replay's tick buffer stays
// one record per rack even though the scan hands over multi-tick chunks.
func TestReplayChunkedBoundedMemory(t *testing.T) {
	db := multiDayStore(t, 2)
	c := NewCollector()
	maxTick, err := replayChunked(db, 4, c)
	if err != nil {
		t.Fatalf("replayChunked: %v", err)
	}
	c.Finalize()
	if maxTick != topology.NumRacks {
		t.Fatalf("peak tick buffer = %d records, want %d (one per rack)", maxTick, topology.NumRacks)
	}
}

// noShardScan hides the ShardScanner capability so CollectFromStore takes
// the buffering fallback path.
type noShardScan struct{ envdb.DB }

// TestCollectFromStoreFallbackEquivalence: the streaming merged replay
// and the legacy buffering fallback must produce identical figures from
// the same store.
func TestCollectFromStoreFallbackEquivalence(t *testing.T) {
	db := multiDayStore(t, 2)
	merged := CollectFromStoreParallel(db, 3)
	fallback := CollectFromStore(noShardScan{db})

	// Fig3/Fig8 carry NaN fields when the trace has no summer months, and
	// NaN != NaN under DeepEqual; the %+v rendering distinguishes every
	// non-NaN float while treating NaN as equal to itself.
	if got, want := fmt.Sprintf("%+v", merged.Fig3CoolantTimeline()), fmt.Sprintf("%+v", fallback.Fig3CoolantTimeline()); got != want {
		t.Errorf("Fig3 differs:\n merged  %s\n grouped %s", got, want)
	}
	if got, want := merged.Fig7RackCoolant(), fallback.Fig7RackCoolant(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig7 differs:\n merged  %+v\n grouped %+v", got, want)
	}
	if got, want := fmt.Sprintf("%+v", merged.Fig8AmbientTimeline()), fmt.Sprintf("%+v", fallback.Fig8AmbientTimeline()); got != want {
		t.Errorf("Fig8 differs:\n merged  %s\n grouped %s", got, want)
	}
	if got, want := merged.Fig9RackAmbient(), fallback.Fig9RackAmbient(); !reflect.DeepEqual(got, want) {
		t.Errorf("Fig9 differs:\n merged  %+v\n grouped %+v", got, want)
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
	c := CollectFromStoreParallel(db, 2)

	fig7, err := Fig7CoolantPushdown(db)
	if err != nil {
		t.Fatalf("Fig7CoolantPushdown: %v", err)
	}
	if want := c.Fig7RackCoolant(); !closeSlice(fig7.FlowGPM, want.FlowGPM, tol) ||
		!closeSlice(fig7.InletF, want.InletF, tol) ||
		!closeSlice(fig7.OutletF, want.OutletF, tol) ||
		!closeF(fig7.FlowSpreadPct, want.FlowSpreadPct, tol) ||
		!closeF(fig7.InletSpreadPct, want.InletSpreadPct, tol) ||
		!closeF(fig7.OutletSpreadPct, want.OutletSpreadPct, tol) {
		t.Errorf("Fig7 pushdown differs:\n pushdown %+v\n replay   %+v", fig7, want)
	}
	fig9, err := Fig9AmbientPushdown(db)
	if err != nil {
		t.Fatalf("Fig9AmbientPushdown: %v", err)
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

	got := CollectFromStoreParallel(db, 3)
	want := CollectFromStoreParallel(hot, 3)
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

	before7, err := Fig7CoolantPushdown(db)
	if err != nil {
		t.Fatalf("Fig7CoolantPushdown: %v", err)
	}
	before9, err := Fig9AmbientPushdown(db)
	if err != nil {
		t.Fatalf("Fig9AmbientPushdown: %v", err)
	}
	st, err := db.Compact("")
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Windows == 0 {
		t.Fatal("compaction folded nothing; the invariant is not exercised")
	}
	after7, err := Fig7CoolantPushdown(db)
	if err != nil {
		t.Fatalf("Fig7CoolantPushdown after compact: %v", err)
	}
	after9, err := Fig9AmbientPushdown(db)
	if err != nil {
		t.Fatalf("Fig9AmbientPushdown after compact: %v", err)
	}
	if !reflect.DeepEqual(before7, after7) {
		t.Errorf("Fig7 changed under compaction:\n before %+v\n after  %+v", before7, after7)
	}
	if !reflect.DeepEqual(before9, after9) {
		t.Errorf("Fig9 changed under compaction:\n before %+v\n after  %+v", before9, after9)
	}
}
