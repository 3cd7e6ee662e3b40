package tsdb

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/sensors"
)

// Channel encodings of a sealed block.
const (
	// encInt tags exact integer streams in the downsampled tier only (see
	// downsample.go); a raw block carrying it is rejected at Open. The value
	// stays 1 because cold segments persist it.
	encInt byte = iota + 1
	encXOR      // Gorilla XOR of raw float64 bits
	// encIntPacked stores zigzag deltas of decimal-quantized integers in
	// frame-of-reference width groups (see encodeIntsPacked): fixed-width
	// groups decode several times faster than prefix codes.
	encIntPacked
)

// maxQuantized bounds quantized magnitudes to the float64-exact integer
// range; larger values fall back to XOR encoding.
const maxQuantized = 1 << 53

// channelData is one compressed value column of a sealed block.
type channelData struct {
	enc   byte
	scale float64 // 10^decimals, valid when enc == encIntPacked
	data  []byte
}

// ZoneMap is the value range of one channel inside a sealed block — the
// pruning index of the columnar scan path: a block whose zones cannot
// satisfy a scan predicate is skipped without decoding a single payload
// byte. NaN bounds mark an unusable zone (the channel holds NaN values, so
// the range proves nothing); unusable zones never prune.
type ZoneMap struct {
	Min, Max float64
}

// usable reports whether the zone can prune; false for NaN bounds.
func (z ZoneMap) usable() bool { return z.Min <= z.Max }

// computeZone scans one non-empty value column for its zone map.
func computeZone(vals []float64) ZoneMap {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v != v { // NaN: the zone cannot bound this block
			return ZoneMap{math.NaN(), math.NaN()}
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return ZoneMap{mn, mx}
}

// sealedBlock is one closed partition of a rack's samples. Its life has two
// stages. freezeHead creates it frozen — bounds and count set, raw holding
// the head's uncompressed columns — under the shard write lock, an O(1)
// hand-over that publishes the block to readers. seal then compresses the
// columns into the payload fields (times, ch, zones) with no lock held and
// clears raw; blocks loaded from a segment are born sealed. Everything is
// written once: the bounds before the block is published, the payload
// before raw is cleared. A reader therefore loads raw first and, when it is
// non-nil, serves the block from those columns exactly like a head
// snapshot; only a nil raw licenses reading the payload fields.
type sealedBlock struct {
	minT, maxT int64 // unix nanoseconds of the first/last sample
	count      int
	// raw is the frozen block's uncompressed columns. seal's final store of
	// nil is the release that publishes the payload below; the once makes
	// every concurrent seal caller wait for the one that compresses.
	raw   atomic.Pointer[headBlock]
	once  sync.Once
	times []byte
	ch    [sensors.NumMetrics]channelData
	// zones holds per-channel value bounds, computed by seal or read from
	// the segment's block header.
	zones [sensors.NumMetrics]ZoneMap
	// src names the segment file and block index for disk-loaded blocks
	// ("" for memory-born ones), so decode errors identify their origin.
	src string
}

// headBlock is the mutable in-progress partition of a shard: plain columnar
// slices, appended under the shard's write lock. Readers snapshot the slice
// headers under the read lock; appends only ever write past the snapshotted
// length (or reallocate), so snapshots stay immutable. Freezing ends the
// appends for good, which makes the whole block immutable.
type headBlock struct {
	partition int64 // partition index = floor(unixnano / partition length)
	times     []int64
	vals      [sensors.NumMetrics][]float64
}

// newHead opens a partition's head with room for rows records. Append's
// partition roll passes the row count of the block it just froze: the
// ingest cadence does not change at a partition boundary, so the next
// partition fills to about that length and its seven columns are sized once
// instead of regrown from nothing by doubling, a record at a time.
// AppendTick does not reserve: fillHead already grows a column once per
// batch, and a batch rolls every shard of the fleet in the same call, so
// reserving there stacks a fleet of whole partitions on top of the frozen
// ones still waiting to be sealed (measured on the 4-hall ingest_live
// workload: +47 % peak RSS, no gain in throughput).
func newHead(partition int64, rows int) *headBlock {
	h := &headBlock{partition: partition, times: make([]int64, 0, rows)}
	for m := range h.vals {
		h.vals[m] = make([]float64, 0, rows)
	}
	return h
}

// freezeHead closes a non-empty head block: the returned block serves reads
// from h's columns until seal compresses them. The caller holds the shard
// write lock, appends the block to the shard's list and never touches h
// again.
func freezeHead(h *headBlock) *sealedBlock {
	b := &sealedBlock{
		minT:  h.times[0],
		maxT:  h.times[len(h.times)-1],
		count: len(h.times),
	}
	b.raw.Store(h)
	return b
}

// sealHook, nil in production, runs at the start of every compression; the
// concurrency tests park a seal in it to pin what readers and other writers
// may do meanwhile.
var sealHook func(b *sealedBlock)

// seal makes b's compressed payload exist: it returns at once for a sealed
// block, compresses a frozen one, and waits when another goroutine is
// already compressing it. Callers hold no shard lock — compression is the
// one expensive step of ingest and must never stall a reader. Channels whose
// values survive an exact quantize/dequantize round trip at the store's
// decimal scale use the integer delta encoding (~2 bytes/value on noisy
// sensor data); the rest — including channels configured for raw precision —
// use Gorilla XOR.
func (b *sealedBlock) seal(scales *[sensors.NumMetrics]float64) {
	if b.raw.Load() == nil {
		return
	}
	b.once.Do(func() {
		if sealHook != nil {
			sealHook(b)
		}
		defer metSealDur.ObserveSince(time.Now())
		h := b.raw.Load()
		b.times = encodeTimes(h.times)
		for m := range h.vals {
			b.ch[m] = encodeChannel(h.vals[m], scales[m])
			b.zones[m] = computeZone(h.vals[m])
		}
		b.raw.Store(nil)
	})
}

func encodeChannel(vals []float64, scale float64) channelData {
	if scale > 0 {
		if ints, ok := quantizeExact(vals, scale); ok {
			return channelData{enc: encIntPacked, scale: scale, data: encodeIntsPacked(ints)}
		}
	}
	return channelData{enc: encXOR, data: encodeXOR(vals)}
}

// quantizeExact converts values to scaled integers, reporting whether the
// conversion is invertible bit-for-bit (it is whenever the values were
// quantized at the same scale on ingest).
func quantizeExact(vals []float64, scale float64) ([]int64, bool) {
	ints := make([]int64, len(vals))
	for i, v := range vals {
		n := math.Round(v * scale)
		if math.IsNaN(n) || n >= maxQuantized || n <= -maxQuantized {
			return nil, false
		}
		iv := int64(n)
		if float64(iv)/scale != v {
			return nil, false
		}
		ints[i] = iv
	}
	return ints, true
}

// wrap qualifies a decode error with the block's origin and marks it as
// corruption: payloads are either memory-born or checksum-verified at
// Open, so a failed decode means the bytes went bad after that.
func (b *sealedBlock) wrap(what string, err error) error {
	if b.src != "" {
		return fmt.Errorf("tsdb: %s: %s: %w: %w", b.src, what, ErrCorrupt, err)
	}
	return fmt.Errorf("tsdb: sealed block: %s: %w: %w", what, ErrCorrupt, err)
}

func (b *sealedBlock) decodeTimes() ([]int64, error) {
	return b.decodeTimesArena(nil)
}

// decodeTimesArena decodes the timestamp column into dst, reusing its
// backing array when large enough.
func (b *sealedBlock) decodeTimesArena(dst []int64) ([]int64, error) {
	metDecode.Inc()
	ts, err := decodeTimesInto(dst, b.times, b.count)
	if err != nil {
		return nil, b.wrap("timestamps", err)
	}
	return ts, nil
}

// decodeChannel materializes one value column — the unit of decompression
// work, so single-metric reads (Series, Aggregate) skip five sixths of it.
func (b *sealedBlock) decodeChannel(m sensors.Metric) ([]float64, error) {
	out, _, err := b.decodeChannelArena(m, nil, nil)
	return out, err
}

// decodeChannelArena decodes one value column into dst, using scratch for
// the quantized-integer intermediate; both are reused when large enough,
// and the (possibly regrown) scratch is returned for the caller's arena.
func (b *sealedBlock) decodeChannelArena(m sensors.Metric, dst []float64, scratch []int64) ([]float64, []int64, error) {
	metDecode.Inc()
	c := b.ch[m]
	if c.enc == encXOR {
		out, err := decodeXORInto(dst, c.data, b.count)
		if err != nil {
			return nil, scratch, b.wrap(m.String(), err)
		}
		return out, scratch, nil
	}
	ints, err := decodeIntsPackedInto(scratch, c.data, b.count)
	if err != nil {
		return nil, scratch, b.wrap(m.String(), err)
	}
	out := float64Slice(dst, b.count)
	scale := c.scale
	for i, n := range ints {
		out[i] = float64(n) / scale
	}
	return out, ints, nil
}

// payloadBytes is the compressed size of a sealed block's streams.
func (b *sealedBlock) payloadBytes() int64 {
	n := int64(len(b.times))
	for m := range b.ch {
		n += int64(len(b.ch[m].data))
	}
	return n
}
