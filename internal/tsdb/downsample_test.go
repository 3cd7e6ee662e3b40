package tsdb

// Tests pinning the retention/downsampling tier: codec round trips, the
// exactness property (post-compaction aggregates equal pre-compaction
// brute force bit for bit), crash safety at the two interesting disk
// points, and the on-disk reduction the tier exists to deliver.

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mira/internal/atomicfile"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// TestDownChannelIntsRoundTrip drives the cold integer codec over
// randomized aggregate columns shaped like real telemetry (quantized
// values with signal drift plus noise), including negative values and
// single-record windows.
func TestDownChannelIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(300)
		sums := make([]int64, n)
		mins := make([]int64, n)
		maxs := make([]int64, n)
		counts := make([]int64, n)
		level := int64(rng.Intn(2_000_001)) - 1_000_000
		for i := 0; i < n; i++ {
			counts[i] = 1 + int64(rng.Intn(20))
			level += int64(rng.Intn(201)) - 100
			lo, hi := level, level
			var sum int64
			for j := int64(0); j < counts[i]; j++ {
				v := level + int64(rng.Intn(1001)) - 500
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				sum += v
			}
			sums[i], mins[i], maxs[i] = sum, lo, hi
		}
		data := encodeDownChannelInts(sums, mins, maxs, counts)
		gs, gm, gx, err := decodeDownInts(data, counts)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			if gs[i] != sums[i] || gm[i] != mins[i] || gx[i] != maxs[i] {
				t.Fatalf("trial %d window %d: got (%d,%d,%d), want (%d,%d,%d)",
					trial, i, gs[i], gm[i], gx[i], sums[i], mins[i], maxs[i])
			}
		}
		// Truncations must error, never panic or fabricate windows.
		for cut := 0; cut < len(data); cut += 1 + len(data)/17 {
			if _, _, _, err := decodeDownInts(data[:cut], counts); err == nil {
				t.Fatalf("trial %d: truncation at %d/%d decoded cleanly", trial, cut, len(data))
			}
		}
	}
}

// TestRangeCoderRoundTrip exercises the adaptive symbol coder directly,
// including the escape path for values far above the bypass shift.
func TestRangeCoderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := make([]uint64, 5000)
	for i := range vals {
		switch rng.Intn(10) {
		case 0: // escape range
			vals[i] = rng.Uint64() >> uint(rng.Intn(40))
		default: // tree range
			vals[i] = uint64(rng.Intn(200))
		}
	}
	for _, shift := range []uint{0, 1, chooseShift(vals), symMaxShift} {
		e := newRCEncoder()
		em := newSymModel(shift)
		for _, v := range vals {
			e.symbol(em, v)
		}
		data := e.finish()
		d := newRCDecoder(data)
		dm := newSymModel(shift)
		for i, want := range vals {
			if got := d.symbol(dm); got != want {
				t.Fatalf("shift %d: symbol %d = %d, want %d", shift, i, got, want)
			}
		}
		if d.short {
			t.Fatalf("shift %d: decoder ran short on a valid stream", shift)
		}
	}
}

// quantizedValue mirrors ingest quantization so the brute force below
// reproduces exactly what the store holds.
func quantizedValue(r sensors.Record, m sensors.Metric, scale float64) int64 {
	return int64(math.Round(r.Value(m) * scale))
}

// bruteAgg computes Aggregate's contract directly from raw records in the
// quantized integer domain — the pre-compaction ground truth the
// downsampled tier must reproduce bit for bit.
func bruteAgg(recs []sensors.Record, m sensors.Metric, scale float64, fromN, toN, winN int64) []WindowAgg {
	nWin := (toN - fromN - 1) / winN
	out := make([]WindowAgg, nWin+1)
	sums := make([]int64, nWin+1)
	mins := make([]int64, nWin+1)
	maxs := make([]int64, nWin+1)
	for k := range out {
		out[k] = WindowAgg{Start: time.Unix(0, fromN+int64(k)*winN).In(timeutil.Chicago), Min: math.NaN(), Max: math.NaN()}
	}
	for _, r := range recs {
		tN := r.Time.UnixNano()
		if tN < fromN || tN >= toN {
			continue
		}
		k := (tN - fromN) / winN
		q := quantizedValue(r, m, scale)
		if out[k].Count == 0 || q < mins[k] {
			mins[k] = q
		}
		if out[k].Count == 0 || q > maxs[k] {
			maxs[k] = q
		}
		sums[k] += q
		out[k].Count++
	}
	for k := range out {
		if out[k].Count == 0 {
			continue
		}
		out[k].Min = float64(mins[k]) / scale
		out[k].Max = float64(maxs[k]) / scale
		out[k].Sum = float64(sums[k]) / scale
	}
	return out
}

// sameAggs compares aggregate slices bit for bit (NaN equals NaN).
func sameAggs(t *testing.T, ctx string, got, want []WindowAgg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d windows, want %d", ctx, len(got), len(want))
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for k := range got {
		g, w := got[k], want[k]
		if !g.Start.Equal(w.Start) || g.Count != w.Count ||
			bits(g.Min) != bits(w.Min) || bits(g.Max) != bits(w.Max) || bits(g.Sum) != bits(w.Sum) {
			t.Fatalf("%s: window %d differs:\n got  %+v\n want %+v", ctx, k, g, w)
		}
	}
}

// TestCompactionPropertyAggregate is the exactness property test:
// randomized traces, partitions (including hour-unaligned ones), cutoffs,
// and query grids — every Aggregate over the compacted store must equal
// the brute-force answer from the pre-compaction raw records bit for bit,
// including windows straddling the hot/cold boundary. Series over the
// cold range must yield window starts and exact window means.
func TestCompactionPropertyAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	racks := []topology.RackID{{Row: 0, Col: 2}, {Row: 1, Col: 8}}
	hourN := int64(time.Hour)
	for trial, part := range []time.Duration{24 * time.Hour, 7 * time.Hour, 30 * time.Hour, 13 * time.Hour} {
		db := NewStoreWith(Options{Partition: part})
		ticks := 1500 + rng.Intn(1500) // 5-10 days at 300 s cadence
		byRack := make(map[topology.RackID][]sensors.Record)
		fillRecs := func() {
			r2 := rand.New(rand.NewSource(int64(7 + trial)))
			for i := 0; i < ticks; i++ {
				ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
				for _, rack := range racks {
					rec := synthRecord(r2, rack, ts)
					byRack[rack] = append(byRack[rack], rec)
					if err := db.Append(rec); err != nil {
						t.Fatalf("append: %v", err)
					}
				}
			}
		}
		fillRecs()

		cutTick := ticks/3 + rng.Intn(ticks/2)
		cutoff := base.Add(time.Duration(cutTick) * timeutil.SampleInterval)
		st, err := db.CompactBefore("", cutoff)
		if err != nil {
			t.Fatalf("trial %d: CompactBefore: %v", trial, err)
		}
		if st.Windows == 0 {
			t.Fatalf("trial %d: compaction folded nothing (cutoff tick %d of %d)", trial, cutTick, ticks)
		}
		if got := db.Stats(); got.ColdWindows != st.Windows {
			t.Fatalf("trial %d: Stats reports %d cold windows, compaction wrote %d", trial, got.ColdWindows, st.Windows)
		}

		first, last, ok := db.Bounds()
		if !ok {
			t.Fatalf("trial %d: empty bounds after compaction", trial)
		}
		firstN := first.UnixNano()
		if firstN != floorDiv(firstN, hourN)*hourN {
			t.Fatalf("trial %d: cold bounds start %v not window-aligned", trial, first)
		}
		lastN := last.UnixNano() + 1

		for _, rack := range racks {
			recs := byRack[rack]
			for m := sensors.Metric(0); m < sensors.NumMetrics; m++ {
				scale := channelScales[m]
				// Whole-range single window.
				got, err := db.Aggregate(rack, m, first, last.Add(time.Nanosecond), 0)
				if err != nil {
					t.Fatalf("aggregate: %v", err)
				}
				sameAggs(t, "whole-range", got, bruteAgg(recs, m, scale, firstN, lastN, lastN-firstN))

				// Window-grid-aligned queries straddling the hot/cold boundary.
				for q := 0; q < 4; q++ {
					winN := hourN * int64(1+rng.Intn(6))
					fromN := floorDiv(firstN, winN)*winN + int64(rng.Intn(4))*winN
					toN := fromN + winN*int64(3+rng.Intn(60))
					if toN > lastN {
						toN = fromN + ((lastN-fromN-1)/winN+1)*winN
					}
					got, err := db.Aggregate(rack, m, time.Unix(0, fromN), time.Unix(0, toN), time.Duration(winN))
					if err != nil {
						t.Fatalf("aggregate: %v", err)
					}
					sameAggs(t, "grid", got, bruteAgg(recs, m, scale, fromN, toN, winN))
				}
			}

			// Series over the compacted store: cold windows surface as one
			// record at the window start valued at the exact integer-domain
			// mean, followed by the hot raw records verbatim. Both racks see
			// the same tick sequence, so the per-shard folded prefix is the
			// total folded count split evenly.
			folded := int(st.SourceRecords) / len(racks)
			if folded <= 0 || folded >= len(recs) {
				t.Fatalf("folded prefix %d of %d records", folded, len(recs))
			}
			coldWinEnd := floorDiv(recs[folded-1].Time.UnixNano(), hourN)*hourN + hourN
			if bn := recs[folded].Time.UnixNano(); bn < coldWinEnd {
				t.Fatalf("fold split a window: first hot tick %d inside cold window ending %d", bn, coldWinEnd)
			}
			m := sensors.MetricFlow
			scale := channelScales[m]
			wantAgg := bruteAgg(recs, m, scale, firstN, lastN, hourN)
			var wantT []int64
			var wantV []float64
			for k := range wantAgg {
				if wantAgg[k].Count == 0 || wantAgg[k].Start.UnixNano() >= coldWinEnd {
					continue
				}
				wantT = append(wantT, wantAgg[k].Start.UnixNano())
				wantV = append(wantV, wantAgg[k].Sum/float64(wantAgg[k].Count))
			}
			for _, r := range recs[folded:] {
				wantT = append(wantT, r.Time.UnixNano())
				wantV = append(wantV, float64(quantizedValue(r, m, scale))/scale)
			}
			ts, vals := db.Series(rack, m, first, last.Add(time.Nanosecond))
			if len(ts) != len(wantT) {
				t.Fatalf("series has %d points, want %d (%d cold windows + %d raw)",
					len(ts), len(wantT), len(wantT)-(len(recs)-folded), len(recs)-folded)
			}
			for i := range ts {
				if ts[i].UnixNano() != wantT[i] || math.Float64bits(vals[i]) != math.Float64bits(wantV[i]) {
					t.Fatalf("series point %d = (%v, %v), want (%v, %v)",
						i, ts[i], vals[i], time.Unix(0, wantT[i]).In(timeutil.Chicago), wantV[i])
				}
			}
		}
	}
}

// TestCompactionCrashSafety kills compaction at the two interesting disk
// points — after the cold segment is written but before its rename, and
// after the rename but before the raw segment rewrite — and requires a
// reopen to serve the exact pre-compaction answers both times, then a
// clean re-compaction to succeed.
func TestCompactionCrashSafety(t *testing.T) {
	racks := []topology.RackID{{Row: 0, Col: 2}, {Row: 1, Col: 8}}
	cases := []struct {
		name  string
		stage atomicfile.Stage
	}{
		{"after-cold-write", atomicfile.BeforeRename},
		{"after-cold-rename", atomicfile.AfterRename},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() { atomicfile.Hook = nil }()
			dir := t.TempDir()
			db := NewStoreWith(Options{Partition: 24 * time.Hour, Retention: 24 * time.Hour})
			fill(t, 5*288, racks, db)
			if err := db.Flush(dir); err != nil {
				t.Fatalf("flush: %v", err)
			}
			want := snapshotAggs(t, db, racks)
			wantLen := db.Len()

			injected := errors.New("injected crash")
			atomicfile.Hook = func(stage atomicfile.Stage, path string) error {
				if stage == tc.stage && strings.HasSuffix(path, ".cold.seg") {
					return injected
				}
				return nil
			}
			if _, err := db.Compact(dir); !errors.Is(err, injected) {
				t.Fatalf("Compact error = %v, want the injected crash", err)
			}

			// Reopen: the half-written state must resolve to the exact
			// pre-compaction store (raw wins over any renamed cold segment).
			re, err := Open(dir, Options{Partition: 24 * time.Hour, Retention: 24 * time.Hour})
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			if re.Len() != wantLen {
				t.Fatalf("reopen after %s: Len = %d, want %d", tc.name, re.Len(), wantLen)
			}
			for ctx, aggs := range snapshotAggs(t, re, racks) {
				sameAggs(t, "reopen "+ctx, aggs, want[ctx])
			}

			// The failpoints cleared, the same store compacts cleanly and a
			// further reopen serves identical whole-range aggregates from the
			// now-downsampled tier.
			atomicfile.Hook = nil
			st, err := re.Compact(dir)
			if err != nil {
				t.Fatalf("clean compact after %s: %v", tc.name, err)
			}
			if st.Windows == 0 {
				t.Fatalf("clean compact after %s folded nothing", tc.name)
			}
			re2, err := Open(dir, Options{Partition: 24 * time.Hour, Retention: 24 * time.Hour})
			if err != nil {
				t.Fatalf("reopen after clean compact: %v", err)
			}
			if got := re2.Stats(); got.ColdWindows != st.Windows {
				t.Fatalf("reopen serves %d cold windows, compaction wrote %d", got.ColdWindows, st.Windows)
			}
			for ctx, aggs := range snapshotAggs(t, re2, racks) {
				sameAggs(t, "compacted "+ctx, aggs, want[ctx])
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Errorf("stray temp file %s after clean compaction", e.Name())
				}
			}
		})
	}
}

// TestPublishSyncsDirectories pins the power-failure half of the publish
// discipline by counting atomicfile's hook calls. Flush fsyncs every
// directory it renamed into exactly once, after the last rename there.
// Compact fsyncs a shard's directory after the cold rename and before the
// raw segment is rewritten: the raw data may only go once the cold segment's
// name is durable.
func TestPublishSyncsDirectories(t *testing.T) {
	type event struct {
		stage atomicfile.Stage
		path  string
	}
	var log []event
	atomicfile.Hook = func(stage atomicfile.Stage, path string) error {
		if stage != atomicfile.BeforeRename {
			log = append(log, event{stage, path})
		}
		return nil
	}
	defer func() { atomicfile.Hook = nil }()

	dir := t.TempDir()
	fleet := topology.Fleet{Halls: 2, Racks: topology.NumRacks}
	db := NewStoreWith(Options{Partition: 24 * time.Hour, Retention: 24 * time.Hour, Fleet: fleet})
	racks := []topology.RackID{{Row: 0, Col: 2}, {Row: 1, Col: 8}, {Row: 0, Col: 2, Hall: 1}}
	fill(t, 5*288, racks, db)

	if err := db.Flush(dir); err != nil {
		t.Fatalf("flush: %v", err)
	}
	renames, syncs := map[string]int{}, map[string]int{}
	for _, e := range log {
		switch d := filepath.Dir(e.path); e.stage {
		case atomicfile.AfterRename:
			if syncs[d] > 0 {
				t.Errorf("flush renamed %s after syncing its directory", e.path)
			}
			renames[d]++
		case atomicfile.DirSync:
			syncs[e.path]++
		}
	}
	for h := 0; h < fleet.Halls; h++ {
		d := filepath.Join(dir, hallDirName(h))
		if renames[d] == 0 || syncs[d] != 1 {
			t.Errorf("flush: %d renames into %s, %d directory syncs, want some and 1", renames[d], d, syncs[d])
		}
	}
	if syncs[dir] != 1 {
		t.Errorf("flush synced the fleet directory %d times, want 1 (the hall directories' names)", syncs[dir])
	}

	log = nil
	st, err := db.Compact(dir)
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st.Shards != len(racks) {
		t.Fatalf("compacted %d shards, want %d", st.Shards, len(racks))
	}
	// Per shard: cold rename, directory sync, raw rename — in that order.
	if len(log) != 3*len(racks) {
		t.Fatalf("compact: %d hook events, want %d: %v", len(log), 3*len(racks), log)
	}
	for i := 0; i < len(log); i += 3 {
		cold, sync, raw := log[i], log[i+1], log[i+2]
		if cold.stage != atomicfile.AfterRename || !strings.HasSuffix(cold.path, ".cold.seg") ||
			sync.stage != atomicfile.DirSync || sync.path != filepath.Dir(cold.path) ||
			raw.stage != atomicfile.AfterRename || raw.path != strings.TrimSuffix(cold.path, ".cold.seg")+".seg" {
			t.Fatalf("compact shard events %v, want cold rename, sync of its directory, raw rename", log[i:i+3])
		}
	}
}

// snapshotAggs captures whole-range and hourly aggregates for every rack
// and metric — the query surface the crash-safety test holds invariant.
func snapshotAggs(t *testing.T, db *Store, racks []topology.RackID) map[string][]WindowAgg {
	t.Helper()
	first, last, ok := db.Bounds()
	if !ok {
		t.Fatal("empty store")
	}
	out := make(map[string][]WindowAgg)
	for _, rack := range racks {
		for m := sensors.Metric(0); m < sensors.NumMetrics; m++ {
			for _, win := range []time.Duration{0, time.Hour} {
				aggs, err := db.Aggregate(rack, m, first, last.Add(time.Nanosecond), win)
				if err != nil {
					t.Fatalf("aggregate: %v", err)
				}
				out[rack.String()+"/"+m.String()+"/"+win.String()] = aggs
			}
		}
	}
	return out
}

// TestCompactionReduction pins the tier's reason to exist: folding
// full-rate history into 1-hour windows must shrink the compacted range
// at least 4x on disk. (The bar was 5x against varbit-encoded raw blocks;
// the word-packed raw encoding is ~12% denser, which lowers the ratio
// without changing the cold tier's absolute size.) Long streams matter
// for the adaptive codec, so this uses a year-scale trace.
func TestCompactionReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("year-scale ingest")
	}
	racks := []topology.RackID{{Row: 0, Col: 2}, {Row: 2, Col: 11}}
	db := NewStoreWith(Options{Retention: 90 * 24 * time.Hour})
	fill(t, 360*288, racks, db)
	dir := t.TempDir()
	if err := db.Flush(dir); err != nil {
		t.Fatalf("flush: %v", err)
	}
	before := db.Stats().DiskBytes

	first, last, _ := db.Bounds()
	wholeBefore := snapshotAggs(t, db, racks)

	st, err := db.Compact(dir)
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if st.Windows == 0 || st.SourceRecords == 0 {
		t.Fatal("compaction folded nothing")
	}
	if r := st.Reduction(); r < 4.0 {
		t.Errorf("compacted-range reduction = %.2fx (payload %d -> %d bytes), want >= 4x",
			r, st.BytesBefore, st.BytesAfter)
	}
	after := db.Stats().DiskBytes
	if after >= before {
		t.Errorf("disk footprint grew: %d -> %d bytes", before, after)
	}
	t.Logf("folded %d records into %d windows: payload %.2fx smaller, disk %d -> %d bytes over %s..%s",
		st.SourceRecords, st.Windows, st.Reduction(), before, after,
		first.Format("2006-01-02"), last.Format("2006-01-02"))

	// The whole-range answers survive both the fold and a reopen.
	for ctx, aggs := range snapshotAggs(t, db, racks) {
		sameAggs(t, "post-compact "+ctx, aggs, wholeBefore[ctx])
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for ctx, aggs := range snapshotAggs(t, re, racks) {
		sameAggs(t, "reopen "+ctx, aggs, wholeBefore[ctx])
	}
}

// TestCompactAppendConcurrent runs memory-only compaction against live
// appends on the same shards; the race detector and the final record
// count pin the locking story.
func TestCompactAppendConcurrent(t *testing.T) {
	rack := topology.RackID{Row: 1, Col: 4}
	db := NewStoreWith(Options{Partition: 6 * time.Hour, Retention: 12 * time.Hour})
	rng := rand.New(rand.NewSource(17))
	const total = 4 * 288
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			if _, err := db.Compact(""); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		rec := synthRecord(rng, rack, base.Add(time.Duration(i)*timeutil.SampleInterval))
		if err := db.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	<-done
	if _, err := db.Compact(""); err != nil {
		t.Fatalf("final compact: %v", err)
	}
	// Every ingested record is answerable: the whole-range count across
	// tiers equals what was appended.
	first, last, _ := db.Bounds()
	aggs, err := db.Aggregate(rack, sensors.MetricFlow, first, last.Add(time.Nanosecond), 0)
	if err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if aggs[0].Count != total {
		t.Fatalf("whole-range count = %d, want %d", aggs[0].Count, total)
	}
}

// BenchmarkCompact measures folding 30-day partitions of one shard into
// hourly windows, memory-only (the disk rewrite is covered by Flush
// benchmarks).
func BenchmarkCompact(b *testing.B) {
	recs := benchRecords(1 << 16) // ~227 days for one rack
	cutoff := recs[len(recs)-1].Time.Add(-30 * 24 * time.Hour)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := NewStoreWith(Options{Retention: 30 * 24 * time.Hour})
		for _, r := range recs {
			if err := db.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		db.SealAll()
		b.StartTimer()
		if _, err := db.CompactBefore("", cutoff); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}
