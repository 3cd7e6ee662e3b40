package telemetrynet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
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

// wireTrace builds n deterministic records across racks with every channel
// populated (including awkward float values) in the Chicago fixed zone.
func wireTrace(n int) []sensors.Record {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	recs := make([]sensors.Record, n)
	for i := range recs {
		recs[i] = sensors.Record{
			Time:          start.Add(time.Duration(i) * timeutil.SampleInterval),
			Rack:          topology.RackByIndex(i % topology.NumRacks),
			DCTemperature: units.Fahrenheit(80 + rng.Float64()),
			DCHumidity:    units.RelativeHumidity(30 + rng.Float64()),
			Flow:          units.GPM(26 + rng.Float64()),
			InletTemp:     units.Fahrenheit(64 + rng.Float64()),
			OutletTemp:    units.Fahrenheit(79 + rng.Float64()),
			Power:         units.Watts(55000 + 1000*rng.Float64()),
		}
	}
	return recs
}

// sameRecord compares two records for wire equality: identical instants
// (and zone offsets, which calendar bucketing depends on) and identical
// float64 bit patterns in every channel.
func sameRecord(a, b sensors.Record) bool {
	if !a.Time.Equal(b.Time) || a.Rack != b.Rack {
		return false
	}
	_, offA := a.Time.Zone()
	_, offB := b.Time.Zone()
	if offA != offB {
		return false
	}
	for m := sensors.Metric(0); m < sensors.NumMetrics; m++ {
		if math.Float64bits(a.Value(m)) != math.Float64bits(b.Value(m)) {
			return false
		}
	}
	return true
}

func TestIngestFrameRoundTrip(t *testing.T) {
	recs := wireTrace(97)
	frame := encodeIngestFrame(nil, 0xDEAD, 42, recs)
	if want := ingestHeaderSize + len(recs)*recordSize + 4; len(frame) != want {
		t.Fatalf("frame size = %d, want %d", len(frame), want)
	}
	fr, err := decodeIngestFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if fr.ClientID != 0xDEAD || fr.Seq != 42 {
		t.Fatalf("token = (%#x, %d), want (0xdead, 42)", fr.ClientID, fr.Seq)
	}
	if len(fr.Records) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(fr.Records), len(recs))
	}
	for i := range recs {
		if !sameRecord(recs[i], fr.Records[i]) {
			t.Fatalf("record %d: got %+v, want %+v", i, fr.Records[i], recs[i])
		}
	}

	// Two frames back to back decode in sequence, then a clean io.EOF.
	double := append(append([]byte(nil), frame...), encodeIngestFrame(nil, 1, 2, recs[:3])...)
	r := bytes.NewReader(double)
	for i, wantSeq := range []uint64{42, 2} {
		fr, err := decodeIngestFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if fr.Seq != wantSeq {
			t.Fatalf("frame %d seq = %d, want %d", i, fr.Seq, wantSeq)
		}
	}
	if _, err := decodeIngestFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestIngestFrameCorruption: any single corrupted byte, and any truncation,
// must surface as a wrapped ErrFrame — never a panic, never silent success.
func TestIngestFrameCorruption(t *testing.T) {
	frame := encodeIngestFrame(nil, 9, 1, wireTrace(5))
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := decodeIngestFrame(bytes.NewReader(bad)); !errors.Is(err, ErrFrame) {
			t.Fatalf("flipped byte %d: err = %v, want ErrFrame", i, err)
		}
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, err := decodeIngestFrame(bytes.NewReader(frame[:cut])); !errors.Is(err, ErrFrame) {
			t.Fatalf("truncated at %d: err = %v, want ErrFrame", cut, err)
		}
	}
	if _, err := decodeIngestFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

// retiredIngestFrame renders recs (hall 0 only) as the retired first-
// generation ingest frame: magic "MTN1" and 57-byte records led by a uint8
// rack index, with consistent lengths and a valid CRC — exactly what a
// pre-fleet client sent. retiredChunkStream is the matching response
// stream ("MTNR", no flags, one chunk, terminator).
func retiredIngestFrame(clientID, seq uint64, recs []sensors.Record) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0x314E544D) // "MTN1"
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)*(recordSize-1)))
	buf = binary.LittleEndian.AppendUint64(buf, clientID)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(zoneOffset(recs[0].Time)))
	for _, r := range recs {
		buf = appendNarrowRecord(buf, r)
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// appendNarrowRecord is the retired record encoding: the current one minus
// the rack code's high (hall) byte.
func appendNarrowRecord(buf []byte, r sensors.Record) []byte {
	wide := appendRecord(nil, r)
	return append(append(buf, wide[0]), wide[2:]...)
}

func retiredChunkStream(recs []sensors.Record) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, 0x524E544D) // "MTNR"
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(zoneOffset(recs[0].Time)))
	chunk := binary.LittleEndian.AppendUint32(nil, uint32(len(recs)))
	for _, r := range recs {
		chunk = appendNarrowRecord(chunk, r)
	}
	buf = append(buf, binary.LittleEndian.AppendUint32(chunk, crc32.ChecksumIEEE(chunk))...)
	end := binary.LittleEndian.AppendUint32(nil, 0)
	return append(buf, binary.LittleEndian.AppendUint32(end, crc32.ChecksumIEEE(end))...)
}

// readRecords decodes a chunk stream one materialized record at a time,
// stopping when f returns false.
func readRecords(r io.Reader, f func(rec sensors.Record, tier byte) bool) error {
	return readChunkStream(r, new(envdb.Chunk), func(c *envdb.Chunk) bool {
		for i := 0; i < c.Len(); i++ {
			if !f(c.Record(i), byte(c.Tiers[i])) {
				return false
			}
		}
		return true
	})
}

// TestRetiredWireFormatsRejected: a well-formed frame or stream of the
// retired generation is refused whole — a wrapped ErrFrame naming the
// magic, no record decoded — and never read as the current layout.
func TestRetiredWireFormatsRejected(t *testing.T) {
	recs := wireTrace(9)
	_, err := decodeIngestFrame(bytes.NewReader(retiredIngestFrame(7, 1, recs)))
	if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "bad magic 0x314e544d") {
		t.Fatalf("retired ingest frame: err = %v, want ErrFrame naming the magic", err)
	}
	visited := 0
	err = readRecords(bytes.NewReader(retiredChunkStream(recs)), func(sensors.Record, byte) bool {
		visited++
		return true
	})
	if !errors.Is(err, ErrFrame) || !strings.Contains(err.Error(), "bad stream magic 0x524e544d") {
		t.Fatalf("retired chunk stream: err = %v, want ErrFrame naming the magic", err)
	}
	if visited != 0 {
		t.Fatalf("retired chunk stream delivered %d records before failing", visited)
	}
}

// traceChunk holds recs as one chunk's columns, row i in tier i%2.
func traceChunk(recs []sensors.Record) *envdb.Chunk {
	c := &envdb.Chunk{Loc: recs[0].Time.Location()}
	for i, r := range recs {
		c.Times = append(c.Times, r.Time.UnixNano())
		c.Racks = append(c.Racks, r.Rack.Code())
		c.Tiers = append(c.Tiers, envdb.Tier(i%2))
		for m := range c.Cols {
			c.Cols[m] = append(c.Cols[m], r.Value(sensors.Metric(m)))
		}
	}
	return c
}

// writeRows streams every row of c with addRow.
func writeRows(t testing.TB, w io.Writer, tiered bool, c *envdb.Chunk) {
	t.Helper()
	cw := newChunkWriter(w, tiered, zoneOffset(time.Unix(0, c.Times[0]).In(c.Loc)))
	for i := range c.Times {
		if err := cw.addRow(c, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.close(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkStreamRoundTrip(t *testing.T) {
	recs := wireTrace(113)
	for _, tiered := range []bool{false, true} {
		var buf bytes.Buffer
		c := traceChunk(recs)
		writeRows(t, &buf, tiered, c)
		var got []sensors.Record
		var tiers []byte
		if err := readRecords(bytes.NewReader(buf.Bytes()), func(r sensors.Record, tier byte) bool {
			got = append(got, r)
			tiers = append(tiers, tier)
			return true
		}); err != nil {
			t.Fatalf("tiered=%v: %v", tiered, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("tiered=%v: decoded %d records, want %d", tiered, len(got), len(recs))
		}
		for i := range recs {
			if !sameRecord(recs[i], got[i]) {
				t.Fatalf("tiered=%v record %d mismatch", tiered, i)
			}
			wantTier := byte(0)
			if tiered {
				wantTier = byte(i % 2)
			}
			if tiers[i] != wantTier {
				t.Fatalf("tiered=%v record %d tier = %d, want %d", tiered, i, tiers[i], wantTier)
			}
		}

		// Written from records, the stream is byte-identical to the
		// raw-tier rows written from chunk columns.
		var rows, adds bytes.Buffer
		clear(c.Tiers)
		writeRows(t, &rows, tiered, c)
		cw := newChunkWriter(&adds, tiered, zoneOffset(recs[0].Time))
		for _, r := range recs {
			if err := cw.add(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(adds.Bytes(), rows.Bytes()) {
			t.Fatalf("tiered=%v: add stream differs from the addRow stream", tiered)
		}

		// Truncation anywhere — including a lost terminator — is detected.
		stream := buf.Bytes()
		for _, cut := range []int{0, 1, len(stream) / 2, len(stream) - 8, len(stream) - 1} {
			err := readRecords(bytes.NewReader(stream[:cut]), func(sensors.Record, byte) bool { return true })
			if !errors.Is(err, ErrFrame) {
				t.Fatalf("tiered=%v truncated at %d: err = %v, want ErrFrame", tiered, cut, err)
			}
		}
	}
}

func TestChunkStreamEarlyStop(t *testing.T) {
	recs := wireTrace(20)
	var buf bytes.Buffer
	cw := newChunkWriter(&buf, false, 0)
	for _, r := range recs {
		if err := cw.add(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.close(); err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := readRecords(bytes.NewReader(buf.Bytes()), func(sensors.Record, byte) bool {
		seen++
		return seen < 5
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("visited %d records, want 5", seen)
	}
}

func TestEmptyChunkStream(t *testing.T) {
	var buf bytes.Buffer
	if err := newChunkWriter(&buf, false, -21600).close(); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := readRecords(bytes.NewReader(buf.Bytes()), func(sensors.Record, byte) bool {
		calls++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("empty stream visited %d records", calls)
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	times := make([]time.Time, 50)
	vals := make([]float64, 50)
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	for i := range times {
		times[i] = start.Add(time.Duration(i) * time.Minute)
		vals[i] = float64(i) * 1.25
	}
	vals[7] = math.NaN() // NaN must survive the bit-pattern transport
	var buf bytes.Buffer
	if err := encodeSeries(&buf, zoneOffset(start), times, vals); err != nil {
		t.Fatal(err)
	}
	gotT, gotV, err := decodeSeries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotT) != len(times) || len(gotV) != len(vals) {
		t.Fatalf("decoded %d/%d points, want %d", len(gotT), len(gotV), len(times))
	}
	for i := range times {
		if !gotT[i].Equal(times[i]) {
			t.Fatalf("time %d = %v, want %v", i, gotT[i], times[i])
		}
		if _, off := gotT[i].Zone(); off != -21600 {
			t.Fatalf("time %d zone offset = %d, want -21600", i, off)
		}
		if math.Float64bits(gotV[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d = %v, want %v (bit-exact)", i, gotV[i], vals[i])
		}
	}

	raw := buf.Bytes()
	raw[len(raw)-6] ^= 1
	if _, _, err := decodeSeries(bytes.NewReader(raw)); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupted series: err = %v, want ErrFrame", err)
	}
}

func TestAggsRoundTrip(t *testing.T) {
	aggs := []windowAgg{
		{startN: 1400000000000000000, count: 288, min: 26.001, max: 27.5, sum: 7719.25},
		{startN: 1400086400000000000, count: 0, min: math.NaN(), max: math.NaN(), sum: 0},
	}
	var buf bytes.Buffer
	if err := encodeAggs(&buf, -21600, aggs); err != nil {
		t.Fatal(err)
	}
	got, loc, err := decodeAggs(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, off := time.Unix(0, 0).In(loc).Zone(); off != -21600 {
		t.Fatalf("zone offset = %d, want -21600", off)
	}
	if len(got) != len(aggs) {
		t.Fatalf("decoded %d windows, want %d", len(got), len(aggs))
	}
	for i := range aggs {
		a, b := aggs[i], got[i]
		if a.startN != b.startN || a.count != b.count ||
			math.Float64bits(a.min) != math.Float64bits(b.min) ||
			math.Float64bits(a.max) != math.Float64bits(b.max) ||
			math.Float64bits(a.sum) != math.Float64bits(b.sum) {
			t.Fatalf("window %d = %+v, want %+v", i, b, a)
		}
	}

	raw := buf.Bytes()
	raw[20] ^= 0x10
	if _, _, err := decodeAggs(bytes.NewReader(raw)); !errors.Is(err, ErrFrame) {
		t.Fatalf("corrupted aggregate: err = %v, want ErrFrame", err)
	}
}
