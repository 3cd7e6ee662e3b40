package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

// TestFlushOpenRoundTrip is the core persistence contract: a store written
// with Flush and reloaded with Open answers every query identically,
// including calendar fields that depend on the records' time zone.
func TestFlushOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	racks := []topology.RackID{{Row: 0, Col: 1}, {Row: 1, Col: 8}, {Row: 2, Col: 15}}
	const n = 1000 // ~3.5 partitions per rack
	fill(t, n, racks, s)
	if err := s.Flush(dir); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DiskBytes; got <= 0 {
		t.Errorf("Stats().DiskBytes after Flush = %d, want > 0", got)
	}

	got, err := Open(dir, Options{Partition: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("reopened Len = %d, want %d", got.Len(), s.Len())
	}
	if gd, wd := got.Stats().DiskBytes, s.Stats().DiskBytes; gd != wd {
		t.Errorf("reopened DiskBytes = %d, want %d", gd, wd)
	}

	from := base.Add(-time.Hour)
	to := base.Add((n + 1) * timeutil.SampleInterval)
	for _, rack := range racks {
		w := s.Query(rack, from, to)
		g := got.Query(rack, from, to)
		if len(g) != len(w) {
			t.Fatalf("rack %v: Query len = %d, want %d", rack, len(g), len(w))
		}
		for i := range w {
			if !g[i].Time.Equal(w[i].Time) {
				t.Fatalf("rack %v sample %d: time %v, want %v", rack, i, g[i].Time, w[i].Time)
			}
			// The persisted zone must reconstruct calendar fields, not just
			// the instant: offline analyses bucket by month and weekday.
			if g[i].Time.Format(time.RFC3339) != w[i].Time.Format(time.RFC3339) {
				t.Fatalf("rack %v sample %d: zone-dependent rendering %q, want %q",
					rack, i, g[i].Time.Format(time.RFC3339), w[i].Time.Format(time.RFC3339))
			}
			for _, m := range sensors.AllMetrics() {
				if g[i].Value(m) != w[i].Value(m) {
					t.Fatalf("rack %v sample %d %v: %v, want %v", rack, i, m, g[i].Value(m), w[i].Value(m))
				}
			}
		}

		wAgg, err := s.Aggregate(rack, sensors.MetricPower, from, to, 6*time.Hour)
		if err != nil {
			t.Fatalf("rack %v: Aggregate(mem): %v", rack, err)
		}
		gAgg, err := got.Aggregate(rack, sensors.MetricPower, from, to, 6*time.Hour)
		if err != nil {
			t.Fatalf("rack %v: Aggregate(reopened): %v", rack, err)
		}
		if len(gAgg) != len(wAgg) {
			t.Fatalf("rack %v: Aggregate windows = %d, want %d", rack, len(gAgg), len(wAgg))
		}
		for k := range wAgg {
			gw, ww := gAgg[k], wAgg[k]
			if gw.Count != ww.Count || gw.Sum != ww.Sum ||
				(ww.Count > 0 && (gw.Min != ww.Min || gw.Max != ww.Max)) {
				t.Fatalf("rack %v window %d: %+v, want %+v", rack, k, gw, ww)
			}
		}
	}

	// Rack-major full scans agree too.
	var wantOrder, gotOrder []sensors.Record
	s.EachRecord(func(r sensors.Record) { wantOrder = append(wantOrder, r) })
	got.EachRecord(func(r sensors.Record) { gotOrder = append(gotOrder, r) })
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("EachRecord visited %d, want %d", len(gotOrder), len(wantOrder))
	}
	for i := range wantOrder {
		if !gotOrder[i].Time.Equal(wantOrder[i].Time) || gotOrder[i].Rack != wantOrder[i].Rack {
			t.Fatalf("EachRecord[%d] = (%v, %v), want (%v, %v)",
				i, gotOrder[i].Rack, gotOrder[i].Time, wantOrder[i].Rack, wantOrder[i].Time)
		}
	}
}

// TestFlushOpenRaw exercises the XOR channel path across the process
// boundary: unquantized float64 payloads — including NaN and infinities —
// survive Flush/Open bit for bit.
func TestFlushOpenRaw(t *testing.T) {
	dir := t.TempDir()
	s := NewRawStore()
	rack := topology.RackID{Row: 2, Col: 9}
	rng := rand.New(rand.NewSource(11))
	var want []sensors.Record
	for i := 0; i < 700; i++ {
		rec := sensors.Record{
			Time:          base.Add(time.Duration(i) * timeutil.SampleInterval),
			Rack:          rack,
			DCTemperature: units.Fahrenheit(82 + rng.NormFloat64()),
			DCHumidity:    units.RelativeHumidity(rng.Float64() * 100),
			Flow:          units.GPM(26.5 + rng.NormFloat64()*0.1),
			InletTemp:     units.Fahrenheit(64 + rng.NormFloat64()*0.08),
			OutletTemp:    units.Fahrenheit(79 + rng.NormFloat64()*0.12),
			Power:         units.Watts(57000 + rng.NormFloat64()*250),
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
	if err := s.Flush(dir); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := got.Query(rack, base, base.Add(1000*timeutil.SampleInterval))
	if len(recs) != len(want) {
		t.Fatalf("Query len = %d, want %d", len(recs), len(want))
	}
	for i := range want {
		for _, m := range sensors.AllMetrics() {
			g, w := math.Float64bits(recs[i].Value(m)), math.Float64bits(want[i].Value(m))
			if g != w {
				t.Fatalf("sample %d %v: bits %x, want %x", i, m, g, w)
			}
		}
	}
}

func TestOpenNoData(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); !errors.Is(err, ErrNoData) {
		t.Errorf("Open(empty dir) = %v, want ErrNoData", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), Options{}); !errors.Is(err, ErrNoData) {
		t.Errorf("Open(missing dir) = %v, want ErrNoData", err)
	}
}

// flushOneShard writes a small single-rack store and returns its segment
// file path, for the corruption tests to mangle.
func flushOneShard(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	rack := topology.RackID{Row: 0, Col: 0}
	fill(t, 600, []topology.RackID{rack}, s)
	if err := s.Flush(dir); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, segFileName(rack.Index()))
}

// segmentV1Bytes rewrites a version-2 segment image in the retired
// version-1 block-header layout: the per-block zone maps are stripped and
// each block CRC is recomputed over the remaining header fields plus the
// payload. It reproduces exactly what a pre-zone-map build would have
// written for the same store — a well-formed file of a format Open no
// longer reads — for the rejection test and the segment fuzzer's seed
// corpus. The second return is false when buf is not a well-formed v2
// segment.
func segmentV1Bytes(buf []byte) ([]byte, bool) {
	const (
		segVersion1 = 1
		zonesSize   = int(sensors.NumMetrics) * 16
		fieldsSize  = segBlockHeaderSize - zonesSize - 4 // sans zones and CRC
	)
	if len(buf) < segFileHeaderSize {
		return nil, false
	}
	nblocks := int(binary.LittleEndian.Uint32(buf[8:12]))
	locLen := int(binary.LittleEndian.Uint16(buf[12:14]))
	out := make([]byte, 0, len(buf))
	out = append(out, buf[:segFileHeaderSize+locLen]...)
	binary.LittleEndian.PutUint16(out[4:6], segVersion1)
	off := segFileHeaderSize + locLen
	for i := 0; i < nblocks; i++ {
		if len(buf)-off < segBlockHeaderSize {
			return nil, false
		}
		h := buf[off : off+segBlockHeaderSize]
		fields := h[:fieldsSize]
		payload := int(binary.LittleEndian.Uint32(h[20:24]))
		for p := 24; p < fieldsSize; p += 13 {
			payload += int(binary.LittleEndian.Uint32(h[p+9 : p+13]))
		}
		if len(buf)-off-segBlockHeaderSize < payload {
			return nil, false
		}
		body := buf[off+segBlockHeaderSize : off+segBlockHeaderSize+payload]
		crc := crc32.ChecksumIEEE(fields)
		crc = crc32.Update(crc, crc32.IEEETable, body)
		out = append(out, fields...)
		out = binary.LittleEndian.AppendUint32(out, crc)
		out = append(out, body...)
		off += segBlockHeaderSize + payload
	}
	if off != len(buf) {
		return nil, false
	}
	return out, true
}

// TestOpenVersion1Segment pins the retirement of the version-1 layout: a
// well-formed version-1 file (no zone maps, valid CRCs) is not read with
// guessed zones or skipped — Open fails with a wrapped ErrCorrupt that names
// the version, like any other format it does not know.
func TestOpenVersion1Segment(t *testing.T) {
	dir, path := flushOneShard(t)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1, ok := segmentV1Bytes(buf)
	if !ok {
		t.Fatalf("segment %s is not a well-formed v2 file", path)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Partition: 24 * time.Hour})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(v1 segment) = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "unsupported format version 1") {
		t.Fatalf("Open(v1 segment) = %v, want the error to name version 1", err)
	}
}

func TestOpenCorruption(t *testing.T) {
	cases := map[string]func(t *testing.T, path string){
		"truncated header": func(t *testing.T, path string) {
			if err := os.Truncate(path, 7); err != nil {
				t.Fatal(err)
			}
		},
		"truncated payload": func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
		"flipped payload bit": func(t *testing.T, path string) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)-9] ^= 0x10
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bad magic": func(t *testing.T, path string) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			copy(buf, "XXXX")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"unsupported version": func(t *testing.T, path string) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[4], buf[5] = 0xFF, 0x7F
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"inverted zone map": func(t *testing.T, path string) {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// First block's first zone pair: Min = 1.0, Max = 0.0. The
			// parser must reject the inversion outright — a mangled zone
			// that survived would silently prune valid blocks.
			locLen := int(binary.LittleEndian.Uint16(buf[12:14]))
			z := segFileHeaderSize + locLen + segBlockHeaderSize - 4 - int(sensors.NumMetrics)*16
			binary.LittleEndian.PutUint64(buf[z:], math.Float64bits(1.0))
			binary.LittleEndian.PutUint64(buf[z+8:], math.Float64bits(0.0))
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"trailing garbage": func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("junk")); err != nil {
				t.Fatal(err)
			}
			f.Close()
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir, path := flushOneShard(t)
			corrupt(t, path)
			_, err := Open(dir, Options{})
			if err == nil {
				t.Fatal("Open succeeded on a corrupted segment")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("Open error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

// TestReopenAppendFlush checks the warm-restart ingest path: appends after
// Open resume at the persisted watermark, out-of-order records are still
// rejected, and a second Flush + Open sees everything.
func TestReopenAppendFlush(t *testing.T) {
	dir := t.TempDir()
	rack := topology.RackID{Row: 1, Col: 2}
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	const n = 500
	fill(t, n, []topology.RackID{rack}, s)
	if err := s.Flush(dir); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Partition: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	// A record older than the persisted watermark must be rejected.
	if err := re.Append(synthRecord(rng, rack, base)); err == nil {
		t.Error("append before the persisted watermark should fail")
	}
	for i := n; i < n+200; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		if err := re.Append(synthRecord(rng, rack, ts)); err != nil {
			t.Fatalf("append after reopen: %v", err)
		}
	}
	if re.Len() != n+200 {
		t.Fatalf("Len after reopen+append = %d, want %d", re.Len(), n+200)
	}
	if err := re.Flush(dir); err != nil {
		t.Fatal(err)
	}
	final, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if final.Len() != n+200 {
		t.Fatalf("Len after second round trip = %d, want %d", final.Len(), n+200)
	}
	recs := final.Query(rack, base, base.Add((n+300)*timeutil.SampleInterval))
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatalf("unordered records after reopen at %d", i)
		}
	}
}

// TestReopenConcurrentAppendQuery runs writers and readers against a store
// reopened from disk — the -race half of the persistence contract: lazily
// decoded disk blocks and fresh head appends share the shard snapshots.
func TestReopenConcurrentAppendQuery(t *testing.T) {
	dir := t.TempDir()
	racks := []topology.RackID{{Row: 0, Col: 3}, {Row: 1, Col: 8}, {Row: 2, Col: 15}}
	s := NewStoreWith(Options{Partition: time.Hour})
	const persisted = 600
	fill(t, persisted, racks, s)
	if err := s.Flush(dir); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Partition: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	const appended = 800
	var wg sync.WaitGroup
	done := make(chan struct{})
	for wi, rack := range racks {
		wg.Add(1)
		go func(seed int64, rack topology.RackID) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := persisted; i < persisted+appended; i++ {
				ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
				if err := re.Append(synthRecord(rng, rack, ts)); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(int64(wi), rack)
	}
	for ri := 0; ri < 4; ri++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(400 + seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				rack := racks[rng.Intn(len(racks))]
				to := base.Add(time.Duration(rng.Intn(persisted+appended)) * timeutil.SampleInterval)
				recs := re.Query(rack, base, to)
				for i := 1; i < len(recs); i++ {
					if recs[i].Time.Before(recs[i-1].Time) {
						t.Error("unordered query result")
						return
					}
				}
				_, _ = re.Aggregate(rack, sensors.MetricFlow, base, to, time.Hour)
			}
		}(int64(ri))
	}
	go func() {
		for re.Len() < (persisted+appended)*len(racks) {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	wg.Wait()
	if re.Len() != (persisted+appended)*len(racks) {
		t.Fatalf("Len = %d, want %d", re.Len(), (persisted+appended)*len(racks))
	}
}

// TestFlushDeterministic: the same store contents flush to byte-identical
// segment files, so repeated flushes are cheap to diff and verify.
func TestFlushDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	s := NewStoreWith(Options{Partition: 24 * time.Hour})
	racks := []topology.RackID{{Row: 0, Col: 5}, {Row: 2, Col: 11}}
	fill(t, 700, racks, s)
	if err := s.Flush(dirA); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(dirB); err != nil {
		t.Fatal(err)
	}
	for _, rack := range racks {
		name := segFileName(rack.Index())
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two flushes of the same store", name)
		}
	}
}

// TestFlushLeavesNoTempFiles: a successful flush renames every temp file
// into place.
func TestFlushLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	fill(t, 50, []topology.RackID{{Row: 0, Col: 0}}, s)
	if err := s.Flush(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}
