package tsdb

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

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
// when parsing succeeds, through every block decode path. Any rejection
// must be a wrapped ErrCorrupt; nothing may panic.
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
		if _, blocks, _, err := parseSegment("shard-00.seg", data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseSegment error does not wrap ErrCorrupt: %v", err)
			}
		} else {
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
		if _, blocks, _, err := parseColdSegment("shard-00.cold.seg", data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parseColdSegment error does not wrap ErrCorrupt: %v", err)
			}
		} else {
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
// every input, never panic or hang.
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
	})
}
