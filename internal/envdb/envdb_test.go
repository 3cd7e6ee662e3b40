package envdb

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

func rec(rack topology.RackID, ts time.Time, inlet float64) sensors.Record {
	return sensors.Record{
		Time: ts, Rack: rack,
		DCTemperature: 80, DCHumidity: 32,
		Flow: 26.5, InletTemp: units.Fahrenheit(inlet), OutletTemp: 79,
		Power: units.Watts(57e3),
	}
}

var base = time.Date(2015, 3, 1, 0, 0, 0, 0, timeutil.Chicago)

func TestAppendAndQuery(t *testing.T) {
	s := &Store{}
	r1 := topology.RackID{Row: 0, Col: 1}
	r2 := topology.RackID{Row: 2, Col: 7}
	for i := 0; i < 10; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		if err := s.Append(rec(r1, ts, 64)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec(r2, ts, 65)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 20 {
		t.Errorf("Len = %d, want 20", s.Len())
	}
	got := s.Query(r1, base.Add(2*timeutil.SampleInterval), base.Add(5*timeutil.SampleInterval))
	if len(got) != 3 {
		t.Fatalf("Query returned %d records, want 3", len(got))
	}
	for _, r := range got {
		if r.Rack != r1 {
			t.Errorf("cross-rack contamination: %v", r.Rack)
		}
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	s := &Store{}
	r := topology.RackID{Row: 1, Col: 1}
	if err := s.Append(rec(r, base.Add(time.Hour), 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(r, base, 64)); err == nil {
		t.Error("out-of-order append should fail")
	}
	// Equal timestamps are fine (re-sampling edge).
	if err := s.Append(rec(r, base.Add(time.Hour), 64)); err != nil {
		t.Errorf("equal-time append should succeed: %v", err)
	}
}

func TestSeries(t *testing.T) {
	s := &Store{}
	r := topology.RackID{Row: 1, Col: 4}
	for i := 0; i < 5; i++ {
		if err := s.Append(rec(r, base.Add(time.Duration(i)*time.Minute), 64+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	times, vals := s.Series(r, sensors.MetricInletTemp, base, base.Add(time.Hour))
	if len(times) != 5 || len(vals) != 5 {
		t.Fatalf("series lengths = %d/%d", len(times), len(vals))
	}
	if vals[0] != 64 || vals[4] != 68 {
		t.Errorf("series values = %v", vals)
	}
}

func TestDownsampling(t *testing.T) {
	s := &Store{Downsample: 3}
	r := topology.RackID{Row: 0, Col: 0}
	for i := 0; i < 9; i++ {
		if err := s.Append(rec(r, base.Add(time.Duration(i)*time.Minute), 64)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Errorf("downsampled Len = %d, want 3", s.Len())
	}
}

func TestEachRecord(t *testing.T) {
	s := &Store{}
	for i, r := range topology.AllRacks() {
		if err := s.Append(rec(r, base, 64+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	s.EachRecordUntil(func(sensors.Record) bool { count++; return true })
	if count != topology.NumRacks {
		t.Errorf("EachRecordUntil visited %d, want %d", count, topology.NumRacks)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := &Store{}
	r1 := topology.RackID{Row: 0, Col: 13}
	r2 := topology.RackID{Row: 1, Col: 8}
	for i := 0; i < 4; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		if err := s.Append(rec(r1, ts, 64.25)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec(r2, ts, 63.75)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(0,D)") || !strings.Contains(out, "(1,8)") {
		t.Errorf("CSV missing rack ids:\n%s", out)
	}

	s2 := &Store{}
	if err := s2.ImportCSV(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Errorf("round-trip Len = %d, want %d", s2.Len(), s.Len())
	}
	got := s2.Query(r1, base, base.Add(time.Hour))
	if len(got) != 4 {
		t.Fatalf("round-trip query = %d records", len(got))
	}
	if float64(got[0].InletTemp) != 64.25 {
		t.Errorf("round-trip inlet = %v", got[0].InletTemp)
	}
	if got[0].Power != units.Watts(57e3) {
		t.Errorf("round-trip power = %v", got[0].Power)
	}
}

func TestImportCSVErrors(t *testing.T) {
	s := &Store{}
	if err := s.ImportCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should fail on header")
	}
	if err := s.ImportCSV(strings.NewReader("a,b\n")); err == nil {
		t.Error("wrong header should fail")
	}
	bad := strings.Join(csvHeader, ",") + "\n2015-01-01T00:00:00Z,(9,9),1,2,3,4,5,6\n"
	if err := s.ImportCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad rack should fail")
	}
	bad2 := strings.Join(csvHeader, ",") + "\nnot-a-time,(0,0),1,2,3,4,5,6\n"
	if err := s.ImportCSV(strings.NewReader(bad2)); err == nil {
		t.Error("bad time should fail")
	}
	bad3 := strings.Join(csvHeader, ",") + "\n2015-01-01T00:00:00Z,(0,0),x,2,3,4,5,6\n"
	if err := s.ImportCSV(strings.NewReader(bad3)); err == nil {
		t.Error("bad value should fail")
	}
}

// TestImportCSVReorderedHeader: a column-reordered CSV must be rejected,
// not silently parsed into the wrong channels.
func TestImportCSVReorderedHeader(t *testing.T) {
	reordered := []string{"time", "rack", "dc_humidity_rh", "dc_temperature_f", "coolant_flow_gpm", "inlet_temp_f", "outlet_temp_f", "power_w"}
	csv := strings.Join(reordered, ",") + "\n2015-01-01T00:00:00Z,(0,0),32.000,80.000,26.500,64.000,79.000,57000.0\n"
	s := &Store{}
	err := s.ImportCSV(strings.NewReader(csv))
	if err == nil {
		t.Fatal("reordered header should fail")
	}
	if !strings.Contains(err.Error(), "dc_temperature_f") {
		t.Errorf("error should name the mismatched column: %v", err)
	}
	// A renamed column fails too.
	renamed := strings.Replace(strings.Join(csvHeader, ","), "power_w", "power_kw", 1)
	if err := s.ImportCSV(strings.NewReader(renamed + "\n")); err == nil {
		t.Error("renamed column should fail")
	}
}

func TestEachRecordUntil(t *testing.T) {
	s := &Store{}
	for i, r := range topology.AllRacks() {
		if err := s.Append(rec(r, base, 64+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	s.EachRecordUntil(func(sensors.Record) bool {
		visited++
		return visited < 5
	})
	if visited != 5 {
		t.Errorf("EachRecordUntil visited %d, want 5", visited)
	}
}

// failWriter errors on every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// countingVisitor counts how many records WriteCSV pulls from the store.
type countingVisitor struct {
	db      *Store
	visited int
}

func (c *countingVisitor) EachRecordUntil(f func(sensors.Record) bool) {
	c.db.EachRecordUntil(func(r sensors.Record) bool {
		c.visited++
		return f(r)
	})
}

// TestExportCSVEarlyStop: once the writer fails, the export must stop
// visiting records instead of iterating the whole store. The csv.Writer
// buffers ~4 KiB, so the error surfaces after a few dozen rows — far fewer
// than the thousands stored.
func TestExportCSVEarlyStop(t *testing.T) {
	s := &Store{}
	r := topology.RackID{Row: 0, Col: 2}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := s.Append(rec(r, base.Add(time.Duration(i)*timeutil.SampleInterval), 64)); err != nil {
			t.Fatal(err)
		}
	}
	cv := &countingVisitor{db: s}
	err := WriteCSV(failWriter{}, cv)
	if err == nil {
		t.Fatal("export to a failing writer should error")
	}
	if cv.visited >= n {
		t.Errorf("export visited all %d records despite the write error", cv.visited)
	}
	if cv.visited == 0 {
		t.Error("export visited no records (buffered writer should accept some rows first)")
	}
}

func TestQueryEmptyRange(t *testing.T) {
	s := &Store{}
	r := topology.RackID{Row: 0, Col: 5}
	if err := s.Append(rec(r, base, 64)); err != nil {
		t.Fatal(err)
	}
	if got := s.Query(r, base.Add(time.Hour), base.Add(2*time.Hour)); len(got) != 0 {
		t.Errorf("empty-range query returned %d records", len(got))
	}
	// Unqueried rack: empty, not nil panic.
	if got := s.Query(topology.RackID{Row: 2, Col: 2}, base, base.Add(time.Hour)); len(got) != 0 {
		t.Errorf("unknown rack query returned %d records", len(got))
	}
}

// TestDownsampleWatermark: the out-of-order watermark must advance on
// skipped samples too. With the watermark only tracking retained records, a
// record older than a skipped sample slipped in and broke time order.
func TestDownsampleWatermark(t *testing.T) {
	s := &Store{Downsample: 3}
	r := topology.RackID{Row: 0, Col: 2}
	if err := s.Append(rec(r, base, 64)); err != nil { // kept
		t.Fatal(err)
	}
	if err := s.Append(rec(r, base.Add(2*time.Minute), 64)); err != nil { // skipped
		t.Fatal(err)
	}
	if err := s.Append(rec(r, base.Add(time.Minute), 64)); err == nil {
		t.Error("append behind a downsample-skipped sample should fail")
	}
}

// failAfterWriter accepts the first n bytes, then errors.
type failAfterWriter struct {
	n int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteCSVStopsOnWriteError: csv.Writer only surfaces underlying write
// errors at Flush, so WriteCSV must flush periodically and abort the scan —
// not walk every remaining record after the destination is dead.
func TestWriteCSVStopsOnWriteError(t *testing.T) {
	s := &Store{}
	r := topology.RackID{Row: 1, Col: 3}
	const n = 2*csvFlushEvery + 5000
	for i := 0; i < n; i++ {
		if err := s.Append(rec(r, base.Add(time.Duration(i)*time.Second), 64)); err != nil {
			t.Fatal(err)
		}
	}
	cv := &countingVisitor{db: s}
	err := WriteCSV(&failAfterWriter{n: 256}, cv)
	if err == nil {
		t.Fatal("WriteCSV on a failing writer should error")
	}
	if !strings.Contains(err.Error(), "disk full") {
		t.Errorf("error %v does not wrap the underlying write error", err)
	}
	if cv.visited > csvFlushEvery {
		t.Errorf("visited %d records after the writer died, want <= %d", cv.visited, csvFlushEvery)
	}
	if cv.visited == n {
		t.Error("scan walked the entire store despite a dead writer")
	}
}

// TestEachChunkMerged: the slice store's merged scan must fill chunks with
// the whole store in global time order with rack-index tie-breaking —
// the contract of the compressed store's parallel scan — and honour an
// early stop.
func TestEachChunkMerged(t *testing.T) {
	s := &Store{}
	racks := []topology.RackID{{Row: 2, Col: 14}, {Row: 0, Col: 3}, {Row: 1, Col: 9}}
	const ticks = 3000 // more rows than one chunk holds
	for i := 0; i < ticks; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for j, r := range racks {
			// Stagger appends so per-rack slices interleave in time.
			if i%len(racks) == j {
				continue
			}
			if err := s.Append(rec(r, ts, 64)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var prevT int64
	prevRack := -1
	n, chunks := 0, 0
	if err := s.EachChunkMergedCtx(context.Background(), 7, func(c *Chunk) bool {
		chunks++
		for i := 0; i < c.Len(); i++ {
			r := c.Record(i)
			k := r.Time.UnixNano()
			if n > 0 && (k < prevT || (k == prevT && r.Rack.Index() <= prevRack)) {
				t.Fatalf("order violation at record %d: (%d,%d) after (%d,%d)", n, k, r.Rack.Index(), prevT, prevRack)
			}
			if c.Tiers[i] != TierRaw || r.Time.Location() != base.Location() {
				t.Fatalf("row %d: tier %v, location %v", n, c.Tiers[i], r.Time.Location())
			}
			prevT, prevRack = k, r.Rack.Index()
			n++
		}
		return true
	}); err != nil {
		t.Fatalf("EachChunkMergedCtx: %v", err)
	}
	if n != s.Len() || chunks < 2 {
		t.Fatalf("visited %d records in %d chunks, want %d in several", n, chunks, s.Len())
	}

	// Early stop after the first chunk.
	chunks = 0
	if err := s.EachChunkMergedCtx(context.Background(), 1, func(*Chunk) bool { chunks++; return false }); err != nil {
		t.Fatal(err)
	}
	if chunks != 1 {
		t.Fatalf("early stop visited %d chunks, want 1", chunks)
	}
}

// TestEachChunkMergedSplitsLocations: records of one instant carrying
// different locations materialize each in its own location, because a
// chunk shares one Loc across its rows.
func TestEachChunkMergedSplitsLocations(t *testing.T) {
	s := &Store{}
	a, b := topology.RackID{Row: 0, Col: 1}, topology.RackID{Row: 1, Col: 8}
	for i := 0; i < 3; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		if err := s.Append(rec(a, ts, 64)); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(rec(b, ts.UTC(), 64)); err != nil {
			t.Fatal(err)
		}
	}
	var got []sensors.Record
	if err := s.EachChunkMergedCtx(context.Background(), 0, func(c *Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			got = append(got, c.Record(i))
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("visited %d records, want 6", len(got))
	}
	for i, r := range got {
		want := base.Location()
		if r.Rack == b {
			want = time.UTC
		}
		if r.Time.Location() != want {
			t.Fatalf("record %d (rack %v) in %v, want %v", i, r.Rack, r.Time.Location(), want)
		}
	}
}

// TestAppendRejectsOtherHalls: the per-rack arrays are indexed by the
// within-hall rack index, so a record of hall 1 would land in its hall-0
// twin's slice. Both ingest paths refuse it and leave the store as it was.
func TestAppendRejectsOtherHalls(t *testing.T) {
	s := &Store{}
	hall0 := topology.RackID{Row: 0, Col: 5}
	hall1 := hall0
	hall1.Hall = 1
	if err := s.Append(rec(hall0, base.Add(time.Hour), 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec(hall1, base, 64)); err == nil || !strings.Contains(err.Error(), "hall 0 only") {
		t.Fatalf("Append of a hall-1 record = %v, want the hall error", err)
	}
	if err := s.AppendTick([]sensors.Record{rec(hall0, base.Add(2*time.Hour), 64), rec(hall1, base.Add(2*time.Hour), 64)}); err == nil {
		t.Fatal("AppendTick with a hall-1 record succeeded")
	}
	if got := s.Query(hall0, base, base.Add(3*time.Hour)); s.Len() != 1 || len(got) != 1 || got[0].Rack != hall0 {
		t.Fatalf("store holds %d records, rack %v's slice %v; want only the first hall-0 record", s.Len(), hall0, got)
	}
}
