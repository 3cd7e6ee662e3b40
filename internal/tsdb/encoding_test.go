package tsdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestBitStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	w := &bitWriter{}
	type field struct {
		v uint64
		n uint
	}
	var fields []field
	for i := 0; i < 5000; i++ {
		n := uint(rng.Intn(64) + 1)
		v := rng.Uint64()
		if n < 64 {
			v &= 1<<n - 1
		}
		fields = append(fields, field{v, n})
		w.writeBits(v, n)
	}
	r := &bitReader{b: w.bytes()}
	for i, f := range fields {
		if got := r.readBits(f.n); got != f.v {
			t.Fatalf("field %d: read %d, want %d (%d bits)", i, got, f.v, f.n)
		}
	}
}

// refBitWriter is the plain definition bitWriter must match: one bit at a
// time, MSB-first, bits above the width ignored, the last byte zero-padded.
type refBitWriter struct {
	b []byte
	n uint // bits written in total
}

func (w *refBitWriter) writeBits(v uint64, nbits uint) {
	for i := int(nbits) - 1; i >= 0; i-- {
		if w.n%8 == 0 {
			w.b = append(w.b, 0)
		}
		if v>>uint(i)&1 != 0 {
			w.b[len(w.b)-1] |= 0x80 >> (w.n % 8)
		}
		w.n++
	}
}

// FuzzBitWriter drives bitWriter and refBitWriter with the same (value,
// width) sequence — each field is one width byte (mapped to 1..64) and eight
// value bytes, which usually carry bits above the width — and requires
// identical streams.
func FuzzBitWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{62, 1, 2, 3, 4, 5, 6, 7, 8, 6, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55}, 9))
	rng := rand.New(rand.NewSource(4))
	seed := make([]byte, 9*200)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var w bitWriter
		var ref refBitWriter
		for ; len(data) >= 9; data = data[9:] {
			width := uint(data[0])%64 + 1
			v := binary.BigEndian.Uint64(data[1:9])
			w.writeBits(v, width)
			ref.writeBits(v, width)
		}
		if got := w.bytes(); !bytes.Equal(got, ref.b) {
			t.Fatalf("bitWriter wrote %x, reference %x", got, ref.b)
		}
	})
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip of %d = %d", v, got)
		}
	}
	// Small magnitudes must map to small codes.
	if zigzag(0) != 0 || zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Errorf("zigzag ordering broken: %d %d %d", zigzag(0), zigzag(-1), zigzag(1))
	}
}

func TestVarbitRoundTrip(t *testing.T) {
	var vals []uint64
	// Bucket boundaries and random values.
	for _, size := range varbitSizes {
		if size < 64 {
			vals = append(vals, 1<<size-1, 1<<size)
		}
	}
	vals = append(vals, 0, 1, 2, math.MaxUint64)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.Uint64()>>uint(rng.Intn(64)))
	}
	w := &bitWriter{}
	for _, v := range vals {
		writeVarbit(w, v)
	}
	r := &bitReader{b: w.bytes()}
	for i, v := range vals {
		if got := readVarbit(r); got != v {
			t.Fatalf("value %d: read %d, want %d", i, got, v)
		}
	}
}

func TestTimesCodec(t *testing.T) {
	cases := map[string][]int64{
		"empty":     {},
		"single":    {1234567890123456789},
		"regular":   {0, 300e9, 600e9, 900e9, 1200e9},
		"jittered":  {0, 300e9, 601e9, 899e9, 1200e9, 1200e9}, // incl. duplicate
		"negative":  {-900e9, -600e9, -300e9, 0},
		"irregular": {5, 7, 1 << 50, 1<<50 + 1},
	}
	for name, ts := range cases {
		buf := encodeTimes(ts)
		got, err := decodeTimes(buf, len(ts))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range ts {
			if got[i] != ts[i] {
				t.Errorf("%s: ts[%d] = %d, want %d", name, i, got[i], ts[i])
			}
		}
	}
	// A fixed cadence must cost ~1 bit per timestamp after the first two.
	n := 8640
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i) * 300e9
	}
	if got := len(encodeTimes(ts)); got > 8+9+n/8+2 {
		t.Errorf("regular cadence compressed to %d bytes for %d timestamps", got, n)
	}
}

func TestIntsCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := []int64{64250, 0, -1, math.MaxInt64 / 2, math.MinInt64 / 2}
	for i := 0; i < 5000; i++ {
		vals = append(vals, vals[len(vals)-1]+int64(rng.NormFloat64()*300))
	}
	buf := encodeInts(vals)
	got, err := decodeInts(buf, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("ints[%d] = %d, want %d", i, got[i], vals[i])
		}
	}
}

// TestDecodeTruncated feeds each decoder a truncated payload and expects a
// wrapped overrun error rather than a panic: compressed payloads can now
// arrive from disk, so short streams are input errors.
func TestDecodeTruncated(t *testing.T) {
	ts := []int64{0, 300e9, 600e9, 900e9, 1<<50 + 7}
	ints := []int64{64250, 64000, -3, 1 << 40}
	floats := []float64{64.0, 64.1, math.Pi, -1e300}
	tbuf, ibuf, fbuf := encodeTimes(ts), encodeInts(ints), encodeXOR(floats)
	for cut := 0; cut < len(tbuf); cut++ {
		if _, err := decodeTimes(tbuf[:cut], len(ts)); err == nil {
			t.Errorf("decodeTimes with %d/%d bytes: no error", cut, len(tbuf))
		}
	}
	for cut := 0; cut < len(ibuf); cut++ {
		if _, err := decodeInts(ibuf[:cut], len(ints)); err == nil {
			t.Errorf("decodeInts with %d/%d bytes: no error", cut, len(ibuf))
		}
	}
	for cut := 0; cut < len(fbuf); cut++ {
		if _, err := decodeXOR(fbuf[:cut], len(floats)); err == nil {
			t.Errorf("decodeXOR with %d/%d bytes: no error", cut, len(fbuf))
		}
	}
	// Asking for more samples than were encoded overruns too.
	if _, err := decodeTimes(tbuf, len(ts)+64); err == nil {
		t.Error("decodeTimes past the stream end: no error")
	}
	if _, err := decodeXOR(fbuf, len(floats)+64); err == nil {
		t.Error("decodeXOR past the stream end: no error")
	}
}

func TestXORCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, math.Pi,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		64.0, 64.0, 64.0, // repeats: the one-bit path
	}
	for i := 0; i < 5000; i++ {
		vals = append(vals, 64+rng.NormFloat64()*0.1)
	}
	buf := encodeXOR(vals)
	got, err := decodeXOR(buf, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		want := math.Float64bits(vals[i])
		if math.Float64bits(got[i]) != want {
			t.Fatalf("xor[%d] = %x, want %x", i, math.Float64bits(got[i]), want)
		}
	}
}
