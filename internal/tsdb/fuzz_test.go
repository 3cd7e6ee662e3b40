package tsdb

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// fuzzSeedSegments flushes and compacts a short synthetic trace so the
// segment fuzzer starts from valid raw and cold on-disk bytes.
func fuzzSeedSegments(f *testing.F) (raw, cold []byte) {
	f.Helper()
	dir := f.TempDir()
	db := NewStoreWith(Options{Partition: 24 * time.Hour, Retention: 24 * time.Hour})
	rack := topology.RackID{Row: 1, Col: 4}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3*288; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		if err := db.Append(synthRecord(rng, rack, ts)); err != nil {
			f.Fatalf("append %d: %v", i, err)
		}
	}
	if err := db.Flush(dir); err != nil {
		f.Fatalf("flush: %v", err)
	}
	if st, err := db.Compact(dir); err != nil {
		f.Fatalf("compact: %v", err)
	} else if st.Windows == 0 {
		f.Fatalf("compaction folded nothing")
	}
	shard := rack.Index()
	raw, err := os.ReadFile(filepath.Join(dir, segFileName(shard)))
	if err != nil {
		f.Fatalf("read raw segment: %v", err)
	}
	cold, err = os.ReadFile(filepath.Join(dir, coldSegFileName(shard)))
	if err != nil {
		f.Fatalf("read cold segment: %v", err)
	}
	return raw, cold
}

// FuzzOpenSegment feeds arbitrary bytes through both segment parsers and,
// when parsing succeeds, back through the one segment writer and through
// every block decode path. Any rejection must be a wrapped ErrCorrupt;
// nothing may panic; an accepted segment must re-encode to its own bytes.
func FuzzOpenSegment(f *testing.F) {
	raw, cold := fuzzSeedSegments(f)
	f.Add(raw)
	f.Add(cold)
	// The version-1 rendering of the same blocks seeds the rejection of the
	// retired zone-less layout, and an inverted first zone seeds the zone
	// validator's rejection path.
	if v1, ok := segmentV1Bytes(raw); ok {
		f.Add(v1)
	} else {
		f.Fatal("raw seed segment did not convert to v1")
	}
	{
		mut := append([]byte(nil), raw...)
		locLen := int(binary.LittleEndian.Uint16(mut[12:14]))
		z := segFileHeaderSize + locLen + segBlockHeaderSize - 4 - int(sensors.NumMetrics)*16
		binary.LittleEndian.PutUint64(mut[z:], math.Float64bits(1.0))
		binary.LittleEndian.PutUint64(mut[z+8:], math.Float64bits(0.0))
		f.Add(mut)
	}
	// A cold segment whose first block's last window ends past the int64
	// range, followed by a block starting before it.
	f.Add(coldSegmentBytes(1<<62, 1<<62, 0))
	for _, b := range [][]byte{raw, cold} {
		for _, n := range []int{0, 1, segFileHeaderSize, len(b) / 2, len(b) - 1} {
			if n >= 0 && n < len(b) {
				f.Add(b[:n])
			}
		}
		for _, off := range []int{6, segFileHeaderSize + 3, len(b) / 3, len(b) - 9} {
			if off >= 0 && off < len(b) {
				mut := append([]byte(nil), b...)
				mut[off] ^= 0x40
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if shard, blocks, loc, err := parseSegment("shard-00.seg", data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseSegment error does not wrap ErrCorrupt: %v", err)
			}
		} else {
			checkSegRoundTrip(t, rawTier, data, shard, loc, blocks)
			for _, b := range blocks {
				if _, err := b.decodeTimes(); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decodeTimes error does not wrap ErrCorrupt: %v", err)
				}
				for m := sensors.Metric(0); m < sensors.NumMetrics; m++ {
					if _, err := b.decodeChannel(m); err != nil && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("decodeChannel(%d) error does not wrap ErrCorrupt: %v", m, err)
					}
				}
			}
		}
		if shard, blocks, loc, err := parseColdSegment("shard-00.cold.seg", data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseColdSegment error does not wrap ErrCorrupt: %v", err)
			}
		} else {
			checkSegRoundTrip(t, coldTier, data, shard, loc, blocks)
			for _, d := range blocks {
				if _, err := d.starts(); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("starts error does not wrap ErrCorrupt: %v", err)
				}
				counts, err := d.recordCounts()
				if err != nil {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("recordCounts error does not wrap ErrCorrupt: %v", err)
					}
					continue
				}
				for m := sensors.Metric(0); m < sensors.NumMetrics; m++ {
					if _, err := d.channelAgg(m, counts); err != nil && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("channelAgg(%d) error does not wrap ErrCorrupt: %v", m, err)
					}
					if _, err := d.channelMeans(m, counts); err != nil && !errors.Is(err, ErrCorrupt) {
						t.Fatalf("channelMeans(%d) error does not wrap ErrCorrupt: %v", m, err)
					}
				}
			}
		}
	})
}

// checkSegRoundTrip is FuzzOpenSegment's writer/parser agreement: blocks
// a parser accepted from data, re-encoded through writeSegFile, must give
// data back byte for byte in the file header's magic, version, shard and
// block count, and from the first block header to the end. The location
// name and offset between them are derived from the parsed zone (an empty
// name writes back as "UTC"), so they are left out.
func checkSegRoundTrip[B segBlock](t *testing.T, tier segTier, data []byte, shard int, loc *time.Location, blocks []B) {
	t.Helper()
	var buf bytes.Buffer
	n, err := writeSegFile(&buf, tier, shard, loc, blocks)
	if err != nil || n != int64(buf.Len()) {
		t.Fatalf("writeSegFile = %d, %v; wrote %d bytes", n, err, buf.Len())
	}
	blocksAt := func(b []byte) []byte { return b[segFileHeaderSize+int(binary.LittleEndian.Uint16(b[12:14])):] }
	if again := buf.Bytes(); !bytes.Equal(again[:12], data[:12]) || !bytes.Equal(blocksAt(again), blocksAt(data)) {
		t.Fatalf("%d accepted blocks re-encode to different bytes", len(blocks))
	}
}

// fuzzCounts rebuilds the deterministic per-window counts the down-channel
// codec needs; the seed corpus encodes against the same sequence.
func fuzzCounts(n int) []int64 {
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(i%17) + 1
	}
	return counts
}

// FuzzDecodeBlock drives the stream decoders directly with arbitrary
// payloads and value counts: they must return cleanly (value or error) on
// every input, never panic or hang. The payload is also a sealed block's
// timestamp stream and, in a second block, an integer column: each
// block's restart index must build exactly when the full decode succeeds,
// and every range decode from its restarts must equal the full decode.
// Last, the payload is a block's XOR column and its integer column, each
// scanned span by span as the merged scan decodes it: the joined spans
// must equal the whole-column decode, or both must fail with ErrCorrupt.
func FuzzDecodeBlock(f *testing.F) {
	ts := make([]int64, 64)
	ints := make([]int64, 64)
	floats := make([]float64, 64)
	sums := make([]int64, 64)
	mins := make([]int64, 64)
	maxs := make([]int64, 64)
	fsums := make([]float64, 64)
	counts := fuzzCounts(64)
	rng := rand.New(rand.NewSource(9))
	for i := range ts {
		ts[i] = int64(i)*300e9 + int64(rng.Intn(3))
		ints[i] = rng.Int63n(2000) - 1000
		floats[i] = rng.NormFloat64() * 100
		mf := rng.Int63n(900) - 450
		sums[i] = mf*counts[i] + rng.Int63n(counts[i])
		mins[i] = sums[i]/counts[i] - rng.Int63n(50)
		maxs[i] = sums[i]/counts[i] + rng.Int63n(50)
		fsums[i] = floats[i] * float64(counts[i])
	}
	f.Add(uint16(64), encodeTimes(ts))
	f.Add(uint16(64), encodeInts(ints))
	f.Add(uint16(64), encodeIntsPacked(ints))
	f.Add(uint16(64), encodeXOR(floats))
	// Packed-codec structural edges: a lone all-zero group header, a
	// count spanning multiple groups, and an invalid group width (65,
	// MSB-first: 1000001 + a padding 0 bit).
	f.Add(uint16(64), []byte{0x00})
	f.Add(uint16(129), encodeIntsPacked(make([]int64, 129)))
	f.Add(uint16(64), []byte{0x82})
	f.Add(uint16(64), encodeDownChannelInts(sums, mins, maxs, counts))
	f.Add(uint16(64), encodeDownChannelFloats(fsums, append([]float64(nil), floats...), append([]float64(nil), floats...)))
	f.Add(uint16(1), []byte{0})
	f.Add(uint16(4096), []byte{})
	// Streams that decode whole at the fuzzed count (n+1 rows) across
	// several restart spans, with a partial last span and group.
	rng600 := rand.New(rand.NewSource(10))
	long := make([]int64, 600)
	ticks := make([]int64, 600)
	for i := range long {
		long[i] = rng600.Int63n(2000) - 1000
		ticks[i] = int64(i)*300e9 + rng600.Int63n(2)*int64(rng600.Intn(1e6))
	}
	f.Add(uint16(599), encodeTimes(ticks))
	f.Add(uint16(599), encodeIntsPacked(long))
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		count := int(n)%4096 + 1
		if out, err := decodeTimes(data, count); err == nil && len(out) != count {
			t.Fatalf("decodeTimes returned %d values, want %d", len(out), count)
		}
		if out, err := decodeInts(data, count); err == nil && len(out) != count {
			t.Fatalf("decodeInts returned %d values, want %d", len(out), count)
		}
		if out, err := decodeIntsPacked(data, count); err == nil && len(out) != count {
			t.Fatalf("decodeIntsPacked returned %d values, want %d", len(out), count)
		}
		if out, err := decodeXOR(data, count); err == nil && len(out) != count {
			t.Fatalf("decodeXOR returned %d values, want %d", len(out), count)
		}
		if s, mn, mx, err := decodeDownInts(data, fuzzCounts(count)); err == nil {
			if len(s) != count || len(mn) != count || len(mx) != count {
				t.Fatalf("decodeDownInts returned %d/%d/%d values, want %d", len(s), len(mn), len(mx), count)
			}
		}
		if s, mn, mx, err := decodeDownFloats(data, count); err == nil {
			if len(s) != count || len(mn) != count || len(mx) != count {
				t.Fatalf("decodeDownFloats returned %d/%d/%d values, want %d", len(s), len(mn), len(mx), count)
			}
			for i := range s {
				_ = math.Abs(s[i])
			}
		}
		checkRestarts(t, data, count)
		checkScanSpans(t, data, count)
	})
}

// checkRestarts is FuzzDecodeBlock's restart-index check: data as the
// timestamp stream of a count-row block whose channels are all XOR (so the
// index decodes only timestamps), and as the integer column of a block
// with valid fixed-cadence timestamps.
func checkRestarts(t *testing.T, data []byte, count int) {
	ts, terr := decodeTimes(data, count)
	reg := make([]int64, count)
	for i := range reg {
		reg[i] = int64(i) * 300e9
	}
	ints, ierr := decodeIntsPacked(data, count)
	tb := &sealedBlock{count: count, times: data}
	ib := &sealedBlock{count: count, times: encodeTimes(reg)}
	for m := range tb.ch {
		tb.ch[m] = channelData{enc: encXOR}
		ib.ch[m] = channelData{enc: encXOR}
	}
	ib.ch[sensors.MetricFlow] = channelData{enc: encIntPacked, scale: 1, data: data}
	for _, c := range []struct {
		b       *sealedBlock
		fullErr error
	}{{tb, terr}, {ib, ierr}} {
		idx, err := c.b.index()
		if (err == nil) != (c.fullErr == nil) {
			t.Fatalf("restart index build error %v, full decode error %v", err, c.fullErr)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("restart index build error does not wrap ErrCorrupt: %v", err)
			}
			continue
		}
		var rd blockReader
		var ar scanArena
		rd.reset(blockView{sealed: c.b})
		for k := range idx.first {
			r0 := k * restartStride
			if c.b == tb {
				err := rd.seek(r0, colTimes)
				var run *blockRun
				if err == nil {
					run, err = rd.next(count-r0, colTimes, &ar)
				}
				if err != nil || idx.first[k] != ts[r0] || !slices.Equal(run.times, ts[r0:]) {
					t.Fatalf("timestamps from restart %d differ from the full decode (%v)", k, err)
				}
				continue
			}
			for _, lo := range []int{r0, r0 + 1, r0 + restartStride - 1} {
				for _, hi := range []int{lo + 1, lo + packGroup, count} {
					if lo >= count || hi > count || lo >= hi {
						continue
					}
					err := rd.seek(lo, colOf(sensors.MetricFlow))
					var run *blockRun
					if err == nil {
						run, err = rd.next(hi-r0, colOf(sensors.MetricFlow), &ar)
					}
					if err != nil || !slices.Equal(run.ints[sensors.MetricFlow][lo-r0:], ints[lo:hi]) {
						t.Fatalf("integer rows [%d, %d) differ from the full decode (%v)", lo, hi, err)
					}
				}
			}
		}
	}
}

// FuzzImportCSV feeds arbitrary bytes to envdb.ReadCSV, the parser behind
// miraanalyze -from. It must reject them with an error or load every data
// row, and never panic.
func FuzzImportCSV(f *testing.F) {
	src := NewStore()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		ts := base.Add(time.Duration(i) * timeutil.SampleInterval)
		for _, rack := range []topology.RackID{{Row: 0, Col: 1}, {Row: 2, Col: 9}} {
			if err := src.Append(synthRecord(rng, rack, ts)); err != nil {
				f.Fatal(err)
			}
		}
	}
	var valid bytes.Buffer
	if err := envdb.WriteCSV(context.Background(), &valid, src); err != nil {
		f.Fatal(err)
	}
	const header = "time,rack,dc_temperature_f,dc_humidity_rh,coolant_flow_gpm,inlet_temp_f,outlet_temp_f,power_w\n"
	f.Add(valid.Bytes())
	f.Add([]byte("time,rack,dc_humidity_rh,dc_temperature_f,coolant_flow_gpm,inlet_temp_f,outlet_temp_f,power_w\n" +
		"2015-01-01T00:00:00Z,(0,0),32.000,80.000,26.500,64.000,79.000,57000.0\n"))
	f.Add([]byte(header + "2015-01-01T00:00:00Z,(9,9),80.000,32.000,26.500,64.000,79.000,57000.0\n"))
	f.Add([]byte(header + "2015-01-01 00:00:00,(0,0),80.000,32.000,26.500,64.000,79.000,57000.0\n"))
	f.Add([]byte(header +
		"2015-01-01T00:05:00Z,(0,0),80.000,32.000,26.500,64.000,79.000,57000.0\n" +
		"2015-01-01T00:00:00Z,(0,0),80.000,32.000,26.500,64.000,79.000,57000.0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		if err := envdb.ReadCSV(bytes.NewReader(data), s); err != nil {
			return
		}
		rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("ImportCSV accepted input encoding/csv rejects: %v", err)
		}
		if got, want := s.Len(), len(rows)-1; got != want {
			t.Fatalf("ImportCSV loaded %d records from %d data rows", got, want)
		}
	})
}
