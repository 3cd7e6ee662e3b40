package tsdb

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

var base = time.Date(2015, 3, 1, 0, 0, 0, 0, timeutil.Chicago)

// round3 quantizes to the store's default precision so the slice store and
// tsdb return bit-identical values in parity tests.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// synthRecord fabricates a coolant-monitor sample with the sensor model's
// noise amplitudes, pre-quantized to the CSV schema precision.
func synthRecord(rng *rand.Rand, rack topology.RackID, ts time.Time) sensors.Record {
	day := float64(ts.Sub(base)) / float64(24*time.Hour)
	seasonal := 5 * math.Sin(2*math.Pi*day/365)
	return sensors.Record{
		Time:          ts,
		Rack:          rack,
		DCTemperature: units.Fahrenheit(round3(82 + seasonal + rng.NormFloat64()*0.25)),
		DCHumidity:    units.RelativeHumidity(round3(32 - seasonal + rng.NormFloat64()*0.35)),
		Flow:          units.GPM(round3(26.5 + rng.NormFloat64()*0.10)),
		InletTemp:     units.Fahrenheit(round3(64 + rng.NormFloat64()*0.08)),
		OutletTemp:    units.Fahrenheit(round3(79 + rng.NormFloat64()*0.12)),
		Power:         units.Watts(math.Round(10*(57000+rng.NormFloat64()*250)) / 10),
	}
}

// fill appends n samples at the coolant-monitor cadence for each given rack
// to every provided store.
func fill(t *testing.T, n int, racks []topology.RackID, dbs ...envdb.DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range racks {
			rec := synthRecord(rng, rack, ts)
			for _, db := range dbs {
				if err := db.Append(rec); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
		}
	}
}

// rackMajor reads every record of db rack by rack through Query over every
// representable instant, in fleet order: a whole-store reference that
// shares nothing with the merged scan.
func rackMajor(db envdb.DB, fleet topology.Fleet) []sensors.Record {
	var out []sensors.Record
	for g := 0; g < fleet.NumRacks(); g++ {
		out = append(out, db.Query(fleet.RackAt(g), time.Unix(0, minTime), time.Unix(0, maxTime))...)
	}
	return out
}

// TestParityWithSliceStore drives identical data through envdb.Store and
// tsdb.Store — across several sealed partitions plus a live head — and
// requires identical query results.
func TestParityWithSliceStore(t *testing.T) {
	ts := NewStoreWith(Options{Partition: 24 * time.Hour}) // 288 samples/block
	ref := &envdb.Store{}
	racks := []topology.RackID{{Row: 0, Col: 1}, {Row: 1, Col: 8}, {Row: 2, Col: 15}}
	const n = 1000 // ~3.5 partitions
	fill(t, n, racks, ts, ref)

	if ts.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", ts.Len(), ref.Len())
	}
	if st := ts.Stats(); st.SealedBlocks < 9 { // ≥3 sealed partitions × 3 racks
		t.Fatalf("expected multiple sealed blocks, got %d", st.SealedBlocks)
	}
	from := base.Add(100 * timeutil.SampleInterval)
	to := base.Add(700 * timeutil.SampleInterval)
	for _, rack := range racks {
		got := ts.Query(rack, from, to)
		want := ref.Query(rack, from, to)
		if len(got) != len(want) {
			t.Fatalf("rack %v: Query len = %d, want %d", rack, len(got), len(want))
		}
		for i := range want {
			if !got[i].Time.Equal(want[i].Time) {
				t.Fatalf("rack %v sample %d: time %v, want %v", rack, i, got[i].Time, want[i].Time)
			}
			if got[i].Rack != want[i].Rack {
				t.Fatalf("rack %v sample %d: rack %v", rack, i, got[i].Rack)
			}
			for _, m := range sensors.AllMetrics() {
				if got[i].Value(m) != want[i].Value(m) {
					t.Fatalf("rack %v sample %d %v: %v, want %v", rack, i, m, got[i].Value(m), want[i].Value(m))
				}
			}
		}
		gt, gv := ts.Series(rack, sensors.MetricOutletTemp, from, to)
		wt, wv := ref.Series(rack, sensors.MetricOutletTemp, from, to)
		if len(gt) != len(wt) {
			t.Fatalf("Series len = %d, want %d", len(gt), len(wt))
		}
		for i := range wv {
			if gv[i] != wv[i] || !gt[i].Equal(wt[i]) {
				t.Fatalf("Series[%d] = (%v, %v), want (%v, %v)", i, gt[i], gv[i], wt[i], wv[i])
			}
		}
	}

	// Whole-range reads of every rack agree too.
	sameRecords(t, "whole-range reads", rackMajor(ts, ts.fleet), rackMajor(ref, ts.fleet))
}

func TestOutOfOrderAppend(t *testing.T) {
	s := NewStore()
	r := topology.RackID{Row: 1, Col: 1}
	rng := rand.New(rand.NewSource(1))
	if err := s.Append(synthRecord(rng, r, base.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(synthRecord(rng, r, base)); err == nil {
		t.Error("out-of-order append should fail")
	}
	if err := s.Append(synthRecord(rng, r, base.Add(time.Hour))); err != nil {
		t.Errorf("equal-time append should succeed: %v", err)
	}
	// Other racks are independent shards.
	if err := s.Append(synthRecord(rng, topology.RackID{Row: 0, Col: 0}, base)); err != nil {
		t.Errorf("other-rack append should succeed: %v", err)
	}
}

func TestQuantizationOnIngest(t *testing.T) {
	s := NewStore()
	r := topology.RackID{Row: 0, Col: 3}
	rec := sensors.Record{
		Time: base, Rack: r,
		DCTemperature: 80.00049, DCHumidity: 31.9996,
		Flow: 26.5001, InletTemp: 64.123456, OutletTemp: 79,
		Power: units.Watts(57000.04),
	}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	got := s.Query(r, base, base.Add(time.Minute))[0]
	if float64(got.DCTemperature) != 80.0 || float64(got.DCHumidity) != 32.0 ||
		float64(got.Flow) != 26.5 || float64(got.InletTemp) != 64.123 ||
		float64(got.Power) != 57000.0 {
		t.Errorf("quantized record = %+v", got)
	}
	// Stored values round-trip losslessly through seal/decode.
	s.SealAll()
	after := s.Query(r, base, base.Add(time.Minute))[0]
	for _, m := range sensors.AllMetrics() {
		if after.Value(m) != got.Value(m) {
			t.Errorf("%v changed across seal: %v -> %v", m, got.Value(m), after.Value(m))
		}
	}
}

// TestRawStoreLossless checks the XOR path end to end: a NaN or an infinity
// keeps its block's channel off the decimal grid, so it is sealed as raw
// float64 bits, and every value survives seal/decode bit for bit.
func TestRawStoreLossless(t *testing.T) {
	s := NewStore()
	r := topology.RackID{Row: 2, Col: 9}
	rng := rand.New(rand.NewSource(11))
	var want []sensors.Record
	for i := 0; i < 700; i++ {
		rec := sensors.Record{
			Time:          base.Add(time.Duration(i) * timeutil.SampleInterval),
			Rack:          r,
			DCTemperature: units.Fahrenheit(round3(82 + rng.NormFloat64())),
			DCHumidity:    units.RelativeHumidity(round3(rng.Float64() * 100)),
			Flow:          units.GPM(round3(26.5 + rng.NormFloat64()*0.1)),
			InletTemp:     units.Fahrenheit(round3(64 + rng.NormFloat64()*0.08)),
			OutletTemp:    units.Fahrenheit(round3(79 + rng.NormFloat64()*0.12)),
			Power:         units.Watts(math.Round(10*(57000+rng.NormFloat64()*250)) / 10),
		}
		switch i {
		case 100:
			rec.Flow = units.GPM(math.NaN())
		case 200:
			rec.Power = units.Watts(math.Inf(1))
		}
		want = append(want, rec)
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	s.SealAll()
	b := s.readShard(r).sealed[0]
	for m, want := range map[sensors.Metric]byte{
		sensors.MetricFlow: encXOR, sensors.MetricPower: encXOR, sensors.MetricInletTemp: encIntPacked,
	} {
		if got := b.ch[m].enc; got != want {
			t.Errorf("%v sealed with encoding %d, want %d", m, got, want)
		}
	}
	got := s.Query(r, base, base.Add(1000*timeutil.SampleInterval))
	if len(got) != len(want) {
		t.Fatalf("Query len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for _, m := range sensors.AllMetrics() {
			g, w := math.Float64bits(got[i].Value(m)), math.Float64bits(want[i].Value(m))
			if g != w {
				t.Fatalf("sample %d %v: bits %x, want %x", i, m, g, w)
			}
		}
	}
}

func TestAggregatePushdown(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	rack := topology.RackID{Row: 1, Col: 2}
	const n = 2000
	fill(t, n, []topology.RackID{rack}, s)
	from := base.Add(37 * timeutil.SampleInterval)
	to := base.Add(1800 * timeutil.SampleInterval)
	window := 6 * time.Hour

	got, err := s.Aggregate(rack, sensors.MetricPower, from, to, window)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	wantWindows := int((to.Sub(from) + window - 1) / window)
	if len(got) != wantWindows {
		t.Fatalf("windows = %d, want %d", len(got), wantWindows)
	}
	// Naive reference from Query.
	recs := s.Query(rack, from, to)
	want := make([]WindowAgg, wantWindows)
	for i := range want {
		want[i] = WindowAgg{Start: from.Add(time.Duration(i) * window), Min: math.NaN(), Max: math.NaN()}
	}
	for _, r := range recs {
		k := int(r.Time.Sub(from) / window)
		v := r.Value(sensors.MetricPower)
		w := &want[k]
		if w.Count == 0 || v < w.Min {
			w.Min = v
		}
		if w.Count == 0 || v > w.Max {
			w.Max = v
		}
		w.Sum += v
		w.Count++
	}
	for k := range want {
		g, w := got[k], want[k]
		if !g.Start.Equal(w.Start) || g.Count != w.Count {
			t.Fatalf("window %d: (%v, %d), want (%v, %d)", k, g.Start, g.Count, w.Start, w.Count)
		}
		if w.Count == 0 {
			if !math.IsNaN(g.Min) || !math.IsNaN(g.Max) || !math.IsNaN(g.Mean()) {
				t.Fatalf("window %d: empty window should be NaN, got %+v", k, g)
			}
			continue
		}
		if g.Min != w.Min || g.Max != w.Max || math.Abs(g.Sum-w.Sum) > 1e-6*math.Abs(w.Sum) {
			t.Fatalf("window %d: %+v, want %+v", k, g, w)
		}
	}

	// Whole-range aggregate (window <= 0).
	all, err := s.Aggregate(rack, sensors.MetricPower, from, to, 0)
	if err != nil {
		t.Fatalf("whole-range Aggregate: %v", err)
	}
	if len(all) != 1 || all[0].Count != len(recs) {
		t.Fatalf("whole-range aggregate = %+v, want count %d", all, len(recs))
	}
	if inv, err := s.Aggregate(rack, sensors.MetricPower, to, from, window); err != nil || inv != nil {
		t.Errorf("inverted range should aggregate to nil, nil; got %v, %v", inv, err)
	}
}

func TestAggregateWindowCountClamp(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	rack := topology.RackID{Row: 0, Col: 0}
	fill(t, 2000, []topology.RackID{rack}, s)
	from := base
	to := base.AddDate(6, 0, 0)

	// A 1ns window over a multi-year range would need ~2e17 WindowAgg
	// allocations; it must error out instead of attempting them. The old
	// ceiling-division window count also overflowed int64 here (span +
	// winN - 1 with a large winN), so exercise both extremes.
	if _, err := s.Aggregate(rack, sensors.MetricPower, from, to, time.Nanosecond); err == nil {
		t.Fatal("1ns window over six years should error, not allocate")
	}
	if aggs, err := s.Aggregate(rack, sensors.MetricPower, from, to, time.Duration(math.MaxInt64)); err != nil || len(aggs) != 1 {
		t.Fatalf("huge window: %d windows, err %v; want 1 window", len(aggs), err)
	}
	// A legitimate fine-grained resolution still works under the clamp.
	aggs, err := s.Aggregate(rack, sensors.MetricPower, from, from.Add(100000*time.Second), time.Second)
	if err != nil {
		t.Fatalf("100k windows: %v", err)
	}
	if len(aggs) != 100000 {
		t.Fatalf("windows = %d, want 100000", len(aggs))
	}
	// Every representable instant, a range a server request can ask for,
	// whose span overflows int64: one whole window, weekly windows the
	// clamp admits, or the clamp's error — never a panic.
	first, last := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	if aggs, err := s.Aggregate(rack, sensors.MetricPower, first, last, 0); err != nil || len(aggs) != 1 || aggs[0].Count != 2000 {
		t.Fatalf("whole representable range: %+v, err %v; want one window of 2000 samples", aggs, err)
	}
	if _, err := s.Aggregate(rack, sensors.MetricPower, first, last, time.Nanosecond); !errors.Is(err, envdb.ErrAggregateShape) {
		t.Fatalf("1ns windows over the representable range: err %v, want ErrAggregateShape", err)
	}
	weekly, err := s.Aggregate(rack, sensors.MetricPower, first, last, 7*24*time.Hour)
	if err != nil {
		t.Fatalf("weekly windows over the representable range: %v", err)
	}
	n := 0
	for _, w := range weekly {
		n += w.Count
	}
	if n != 2000 {
		t.Fatalf("weekly windows over the representable range hold %d samples, want 2000", n)
	}
}

// TestScanMatchesQuery: the merged scan yields exactly the per-rack Query
// results over every representable instant in (time, rack code) order, on
// a store holding all four kinds of block view at once — cold, sealed,
// frozen (its seal parked in sealHook) and head — and a scan that stops
// early delivers a prefix of it.
func TestScanMatchesQuery(t *testing.T) {
	racks := []topology.RackID{{Row: 0, Col: 7}, {Row: 1, Col: 2}, {Row: 2, Col: 13}}
	s := NewStoreWith(Options{Partition: time.Hour, Retention: 2 * time.Hour})
	if err := s.AppendTick(hourTicks(racks, 0, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(""); err != nil {
		t.Fatal(err)
	}
	gate := parkSeals(t)
	rolled := make(chan error, 1)
	go func() { rolled <- s.AppendTick(hourTicks(racks, 60, 66)) }()
	gate.waitParked(t)
	if err := s.AppendTick(hourTicks(racks, 66, 70)); err != nil {
		t.Fatal(err)
	}
	defer func() {
		gate.open()
		if err := <-rolled; err != nil {
			t.Fatal(err)
		}
	}()
	st, frozen := s.stats()
	if st.ColdBlocks == 0 || st.SealedBlocks == 0 || frozen == 0 || st.HeadBytes <= int64(frozen)*12*8*(1+int64(sensors.NumMetrics)) {
		t.Fatalf("store holds %d cold, %d sealed and %d frozen blocks and %d head bytes; want every tier", st.ColdBlocks, st.SealedBlocks, frozen, st.HeadBytes)
	}
	want := mergedReference(s)
	if len(want) != s.Len() {
		t.Fatalf("Query yielded %d records, the store holds %d", len(want), s.Len())
	}
	sameRecords(t, "merged scan vs Query", collectMerged(t, s, 2), want)
	stop := len(want) / 3
	var got []sensors.Record
	if err := envdb.ScanRecords(context.Background(), s, 2, func(r sensors.Record, _ envdb.Tier) bool {
		got = append(got, r)
		return len(got) < stop
	}); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "early-stopped merged scan", got, want[:stop])
}

func TestDownsample(t *testing.T) {
	s := NewStoreWith(Options{Downsample: 3})
	ref := &envdb.Store{Downsample: 3}
	rack := topology.RackID{Row: 0, Col: 0}
	fill(t, 9, []topology.RackID{rack}, s, ref)
	if s.Len() != ref.Len() || s.Len() != 3 {
		t.Errorf("downsampled Len = %d (ref %d), want 3", s.Len(), ref.Len())
	}
}

func TestCSVRoundTripByteIdentical(t *testing.T) {
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	racks := []topology.RackID{{Row: 0, Col: 13}, {Row: 1, Col: 8}}
	fill(t, 400, racks, s)
	s.SealAll()

	var first bytes.Buffer
	if err := envdb.WriteCSV(context.Background(), &first, s); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := envdb.ReadCSV(bytes.NewReader(first.Bytes()), s2); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("round-trip Len = %d, want %d", s2.Len(), s.Len())
	}
	var second bytes.Buffer
	if err := envdb.WriteCSV(context.Background(), &second, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("export → import → export is not byte-identical")
	}
}

// TestCompressionBudget is the acceptance gate: realistic noisy telemetry
// must seal at ≤ 4 bytes per (timestamp, value) sample — versus ~15 for the
// 88-byte records of the slice store — while round-tripping losslessly.
func TestCompressionBudget(t *testing.T) {
	s := NewStore()
	racks := []topology.RackID{{Row: 0, Col: 0}, {Row: 1, Col: 8}, {Row: 2, Col: 15}, {Row: 0, Col: 9}}
	const n = 17280 // 60 days at 300 s: two 30-day partitions per rack
	rng := rand.New(rand.NewSource(7))
	want := make(map[topology.RackID][]sensors.Record)
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range racks {
			rec := synthRecord(rng, rack, ts)
			want[rack] = append(want[rack], rec)
			if err := s.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.SealAll()
	st := s.Stats()
	if st.SealedRecords != n*len(racks) {
		t.Fatalf("sealed %d records, want %d", st.SealedRecords, n*len(racks))
	}
	if st.BytesPerSample > 4 {
		t.Errorf("compression = %.2f bytes/sample, want <= 4 (%.2f bytes/record)",
			st.BytesPerSample, st.BytesPerRecord)
	}
	t.Logf("sealed: %.2f bytes/sample, %.2f bytes/record, %d blocks, %.2f MiB total",
		st.BytesPerSample, st.BytesPerRecord, st.SealedBlocks, float64(st.SealedBytes)/(1<<20))

	// Lossless: decoding returns exactly the values stored (the synthetic
	// inputs are pre-quantized, so ingest quantization is the identity).
	for _, rack := range racks {
		recs := s.Query(rack, base, base.Add(time.Duration(n)*timeutil.SampleInterval))
		if len(recs) != n {
			t.Fatalf("rack %v: %d records, want %d", rack, len(recs), n)
		}
		for k, w := range want[rack] {
			if !recs[k].Time.Equal(w.Time) {
				t.Fatalf("rack %v sample %d: time %v, want %v", rack, k, recs[k].Time, w.Time)
			}
			for _, m := range sensors.AllMetrics() {
				if recs[k].Value(m) != w.Value(m) {
					t.Fatalf("rack %v sample %d %v: %v, want %v", rack, k, m, recs[k].Value(m), w.Value(m))
				}
			}
		}
	}
}

func TestZeroValueStore(t *testing.T) {
	var s Store
	rack := topology.RackID{Row: 2, Col: 2}
	rng := rand.New(rand.NewSource(5))
	if err := s.Append(synthRecord(rng, rack, base)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || len(s.Query(rack, base, base.Add(time.Minute))) != 1 {
		t.Error("zero-value store should be usable")
	}
}

func TestQueryEmptyRange(t *testing.T) {
	s := NewStore()
	rack := topology.RackID{Row: 0, Col: 5}
	rng := rand.New(rand.NewSource(6))
	if err := s.Append(synthRecord(rng, rack, base)); err != nil {
		t.Fatal(err)
	}
	if got := s.Query(rack, base.Add(time.Hour), base.Add(2*time.Hour)); len(got) != 0 {
		t.Errorf("empty-range query returned %d records", len(got))
	}
	if got := s.Query(topology.RackID{Row: 2, Col: 2}, base, base.Add(time.Hour)); len(got) != 0 {
		t.Errorf("unknown rack query returned %d records", len(got))
	}
}

// TestDownsampleWatermark mirrors the envdb test: samples skipped by
// downsampling still advance the out-of-order watermark, so a record older
// than a skipped sample is rejected rather than silently breaking order.
func TestDownsampleWatermark(t *testing.T) {
	s := NewStoreWith(Options{Downsample: 3})
	rack := topology.RackID{Row: 0, Col: 2}
	rng := rand.New(rand.NewSource(7))
	if err := s.Append(synthRecord(rng, rack, base)); err != nil { // kept
		t.Fatal(err)
	}
	if err := s.Append(synthRecord(rng, rack, base.Add(2*time.Minute))); err != nil { // skipped
		t.Fatal(err)
	}
	if err := s.Append(synthRecord(rng, rack, base.Add(time.Minute))); err == nil {
		t.Error("append behind a downsample-skipped sample should fail")
	}
}

// TestNegativeZeroHasOneGrid: the store's decimal grid has a single zero.
// A value that rounds to zero from below (or is -0 outright) must read back
// as the same 0 from the head, from the sealed block and from a reopened
// segment, through Append and AppendTick alike — a -0 head value would
// export as "-0.000" and then silently turn into "0.000" once sealed.
func TestNegativeZeroHasOneGrid(t *testing.T) {
	rack := topology.RackID{Row: 0, Col: 3}
	rng := rand.New(rand.NewSource(5))
	recs := make([]sensors.Record, 10)
	for i := range recs {
		recs[i] = synthRecord(rng, rack, base.Add(time.Duration(i)*timeutil.SampleInterval))
	}
	recs[4].DCTemperature = -0.0001
	recs[4].Power = units.Watts(math.Copysign(0, -1))
	export := func(s *Store) string {
		t.Helper()
		var buf bytes.Buffer
		if err := envdb.WriteCSV(context.Background(), &buf, s); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	s, batched := NewStore(), NewStore()
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.AppendTick(recs); err != nil {
		t.Fatal(err)
	}
	head := export(s)
	if strings.Contains(head, "-0.0") {
		t.Errorf("head export holds a negative zero:\n%s", head)
	}
	if got := export(batched); got != head {
		t.Errorf("AppendTick head exports differently from Append:\n%s\nvs\n%s", got, head)
	}
	s.SealAll()
	if sealed := export(s); sealed != head {
		t.Errorf("export changed when the head was sealed:\nhead:\n%s\nsealed:\n%s", head, sealed)
	}
	dir := t.TempDir()
	if err := s.Flush(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reopened := export(re); reopened != head {
		t.Errorf("export changed across Flush and Open:\nhead:\n%s\nreopened:\n%s", head, reopened)
	}
}
