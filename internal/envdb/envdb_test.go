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
	if err := WriteCSV(context.Background(), &buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Rows come in the merged scan's (time, rack code) order.
	lines := strings.Split(out, "\n")
	if len(lines) != 10 || !strings.HasPrefix(lines[1], `2015-03-01T06:00:00Z,"(0,D)",`) ||
		!strings.HasPrefix(lines[2], `2015-03-01T06:00:00Z,"(1,8)",`) {
		t.Errorf("CSV rows not in (time, rack) order:\n%s", out)
	}

	s2 := &Store{}
	if err := ReadCSV(strings.NewReader(out), s2); err != nil {
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
	if err := ReadCSV(strings.NewReader(""), s); err == nil {
		t.Error("empty input should fail on header")
	}
	if err := ReadCSV(strings.NewReader("a,b\n"), s); err == nil {
		t.Error("wrong header should fail")
	}
	bad := strings.Join(csvHeader, ",") + "\n2015-01-01T00:00:00Z,(9,9),1,2,3,4,5,6\n"
	if err := ReadCSV(strings.NewReader(bad), s); err == nil {
		t.Error("bad rack should fail")
	}
	bad2 := strings.Join(csvHeader, ",") + "\nnot-a-time,(0,0),1,2,3,4,5,6\n"
	if err := ReadCSV(strings.NewReader(bad2), s); err == nil {
		t.Error("bad time should fail")
	}
	bad3 := strings.Join(csvHeader, ",") + "\n2015-01-01T00:00:00Z,(0,0),x,2,3,4,5,6\n"
	if err := ReadCSV(strings.NewReader(bad3), s); err == nil {
		t.Error("bad value should fail")
	}
}

// TestImportCSVReorderedHeader: a column-reordered CSV must be rejected,
// not silently parsed into the wrong channels.
func TestImportCSVReorderedHeader(t *testing.T) {
	reordered := []string{"time", "rack", "dc_humidity_rh", "dc_temperature_f", "coolant_flow_gpm", "inlet_temp_f", "outlet_temp_f", "power_w"}
	csv := strings.Join(reordered, ",") + "\n2015-01-01T00:00:00Z,(0,0),32.000,80.000,26.500,64.000,79.000,57000.0\n"
	s := &Store{}
	err := ReadCSV(strings.NewReader(csv), s)
	if err == nil {
		t.Fatal("reordered header should fail")
	}
	if !strings.Contains(err.Error(), "dc_temperature_f") {
		t.Errorf("error should name the mismatched column: %v", err)
	}
	// A renamed column fails too.
	renamed := strings.Replace(strings.Join(csvHeader, ","), "power_w", "power_kw", 1)
	if err := ReadCSV(strings.NewReader(renamed+"\n"), s); err == nil {
		t.Error("renamed column should fail")
	}
}

// failWriter errors on every write.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// countingDB counts the rows its store's merged scan delivers to WriteCSV.
type countingDB struct {
	*Store
	delivered int
}

func (c *countingDB) EachChunkMergedCtx(ctx context.Context, workers int, f func(*Chunk) bool) error {
	return c.Store.EachChunkMergedCtx(ctx, workers, func(ch *Chunk) bool {
		c.delivered += ch.Len()
		return f(ch)
	})
}

// TestExportCSVEarlyStop: once the writer fails, the export must stop the
// scan instead of iterating the whole store. The csv.Writer buffers ~4 KiB,
// so the error surfaces a few dozen rows into the first chunk, and the
// scan delivers that chunk and no other.
func TestExportCSVEarlyStop(t *testing.T) {
	s := &Store{}
	r := topology.RackID{Row: 0, Col: 2}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := s.Append(rec(r, base.Add(time.Duration(i)*timeutil.SampleInterval), 64)); err != nil {
			t.Fatal(err)
		}
	}
	db := &countingDB{Store: s}
	if err := WriteCSV(context.Background(), failWriter{}, db); err == nil {
		t.Fatal("export to a failing writer should error")
	}
	if db.delivered != sliceChunkRows {
		t.Errorf("scan delivered %d rows, want the %d of the chunk where the write failed", db.delivered, sliceChunkRows)
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

// TestWriteCSVStopsOnWriteError: csv.Writer buffers rows, so WriteCSV
// flushes after every scan chunk and stops the scan at the chunk where the
// destination died — at once or mid-stream — instead of walking every
// remaining record.
func TestWriteCSVStopsOnWriteError(t *testing.T) {
	s := &Store{}
	r := topology.RackID{Row: 1, Col: 3}
	const n = 25000
	for i := 0; i < n; i++ {
		if err := s.Append(rec(r, base.Add(time.Duration(i)*time.Second), 64)); err != nil {
			t.Fatal(err)
		}
	}
	var full bytes.Buffer
	if err := WriteCSV(context.Background(), &full, s); err != nil {
		t.Fatal(err)
	}
	rowLen := len(strings.SplitN(full.String(), "\n", 3)[1]) + 1 // every row has the same width
	chunkBytes := sliceChunkRows * rowLen
	for _, limit := range []int{256, 5 * chunkBytes / 2} {
		db := &countingDB{Store: s}
		err := WriteCSV(context.Background(), &failAfterWriter{n: limit}, db)
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("WriteCSV on a writer dying after %d bytes = %v, want the write error", limit, err)
		}
		if want := (limit/chunkBytes + 1) * sliceChunkRows; db.delivered != want {
			t.Errorf("writer dying after %d bytes: scan delivered %d rows, want %d", limit, db.delivered, want)
		}
	}
}

// TestStoreBounds: the slice store's bounds span every rack, each end in
// its own record's location.
func TestStoreBounds(t *testing.T) {
	s := &Store{}
	if _, _, ok := s.Bounds(); ok {
		t.Fatal("empty store reports bounds")
	}
	a, b := topology.RackID{Row: 0, Col: 4}, topology.RackID{Row: 2, Col: 1}
	for _, r := range []sensors.Record{
		rec(a, base.Add(time.Hour), 64),
		rec(b, base.UTC(), 64),
		rec(b, base.Add(2*time.Hour), 64),
		rec(a, base.Add(3*time.Hour).UTC(), 64),
	} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	first, last, ok := s.Bounds()
	if !ok || !first.Equal(base) || !last.Equal(base.Add(3*time.Hour)) {
		t.Fatalf("Bounds = %v, %v, %v; want %v, %v", first, last, ok, base, base.Add(3*time.Hour))
	}
	if first.Location() != time.UTC || last.Location() != time.UTC {
		t.Fatalf("Bounds locations %v, %v; want each record's own", first.Location(), last.Location())
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
