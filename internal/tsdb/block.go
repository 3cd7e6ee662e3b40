package tsdb

import (
	"fmt"
	"math"
	"slices"
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

// channelData is one compressed value column of a sealed block, or one
// aggregate column of a downsampled block.
type channelData struct {
	enc   byte
	scale float64 // 10^decimals, valid for an integer enc (encIntPacked, or encInt when downsampled)
	data  []byte
}

// ZoneMap is the value range of one channel inside a sealed block, kept in
// the segment format (each block header carries one per channel) as a
// pruning index: a block whose zones cannot satisfy a predicate could be
// skipped without decoding a payload byte. No scan prunes today. NaN
// bounds mark an unusable zone (the channel holds NaN values, so the range
// proves nothing); unusable zones can never prune.
type ZoneMap struct {
	Min, Max float64
}

// usable reports whether the zone bounds its channel; false for NaN bounds.
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
	origin
	// idx is the block's restart index, built by the first point read that
	// covers the block only in part (see restartIndex); idxErr is that
	// build's decode failure, returned to every later caller too.
	idxOnce sync.Once
	idx     *restartIndex
	idxErr  error
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
// sensor data); the rest — a channel holding NaN or infinities — use
// Gorilla XOR.
func (b *sealedBlock) seal() {
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
		var ints []int64 // one quantization scratch for every channel
		for m := range h.vals {
			b.ch[m], ints = encodeChannel(h.vals[m], channelScales[m], ints)
			b.zones[m] = computeZone(h.vals[m])
		}
		b.raw.Store(nil)
	})
}

// encodeChannel compresses one value column, quantizing through scratch;
// it returns the (possibly regrown) scratch for the next column.
func encodeChannel(vals []float64, scale float64, scratch []int64) (channelData, []int64) {
	ints, ok := quantizeExact(scratch, vals, scale)
	if ok {
		return channelData{enc: encIntPacked, scale: scale, data: encodeIntsPacked(ints)}, ints
	}
	return channelData{enc: encXOR, data: encodeXOR(vals)}, ints
}

// quantizeExact converts values to scaled integers in dst (reused when large
// enough), reporting whether the conversion is invertible bit-for-bit (it
// is whenever the values were quantized at the same scale on ingest). The
// returned slice is dst's array either way, for the caller to reuse.
func quantizeExact(dst []int64, vals []float64, scale float64) ([]int64, bool) {
	ints := int64Slice(dst, len(vals))
	for i, v := range vals {
		n := math.Round(v * scale)
		if math.IsNaN(n) || n >= maxQuantized || n <= -maxQuantized {
			return ints, false
		}
		iv := int64(n)
		if float64(iv)/scale != v {
			return ints, false
		}
		ints[i] = iv
	}
	return ints, true
}

// origin names where a block came from, "segment F block i" for a block
// loaded from disk and "" for a memory-born one, so decode errors identify
// it.
type origin string

// wrap qualifies a decode error with the block's origin and marks it as
// corruption: payloads are either memory-born or checksum-verified at
// Open, so a failed decode means the bytes went bad after that.
func (o origin) wrap(what string, err error) error {
	if o == "" {
		o = "in-memory block"
	}
	return fmt.Errorf("tsdb: %s: %s: %w: %w", o, what, ErrCorrupt, err)
}

// restartStride is the row distance between the restart points of a
// sealed block's index: four packGroups, so every restart of an integer
// column sits on a group header.
const restartStride = 4 * packGroup

// restartIndex lets a point read decode only the stretch of a sealed block
// its range overlaps. Span k holds rows [k·restartStride,
// (k+1)·restartStride); the index keeps each span's first timestamp and
// the decoder state before its first row, of the timestamp stream and of
// every encIntPacked column (an XOR column has none and decodes from the
// stream head). At the 300 s cadence a 30-day block of 8,640 rows has 34
// spans, so the index costs 34 × (8 + 24 + 6 × 16) B ≈ 4.3 KB beside ≈97
// KB of payload. It is not persisted: Open decodes nothing for it, and
// reads that cover whole blocks (scans, compaction, whole-range
// aggregates) never build it.
type restartIndex struct {
	first []int64 // span k's first timestamp
	times []timeState
	cols  [sensors.NumMetrics][]packState // nil for an XOR column
}

// rows returns the rows [r0, r1) of the spans that can hold timestamps in
// [fromN, toN): from the last span starting before fromN (the first span
// when none does) through the last span starting before toN. Timestamps
// never decrease within a block, so every row outside lies outside the
// range.
func (idx *restartIndex) rows(fromN, toN int64, count int) (r0, r1 int) {
	k0, _ := slices.BinarySearch(idx.first, fromN)
	k1, _ := slices.BinarySearch(idx.first, toN)
	return max(k0-1, 0) * restartStride, min(k1*restartStride, count)
}

// index returns b's restart index, building it on the first call with
// one full decode of the timestamp stream and of every integer column, so
// a corrupt payload fails the first partial read just as it fails a
// whole-block decode. Concurrent first callers wait for the one that
// builds.
func (b *sealedBlock) index() (*restartIndex, error) {
	b.idxOnce.Do(func() { b.idx, b.idxErr = b.buildIndex() })
	return b.idx, b.idxErr
}

// buildIndex steps a reader through the block a span at a time, over the
// timestamps and the integer columns, and records its states before each.
func (b *sealedBlock) buildIndex() (*restartIndex, error) {
	spans := (b.count + restartStride - 1) / restartStride
	idx := &restartIndex{first: make([]int64, spans), times: make([]timeState, spans)}
	cols := colTimes
	for m, c := range b.ch {
		if c.enc == encIntPacked {
			idx.cols[m] = make([]packState, spans)
			cols |= colOf(sensors.Metric(m))
		}
	}
	var rd blockReader
	var ar scanArena
	rd.reset(blockView{sealed: b})
	for k := range idx.first {
		idx.times[k] = rd.times
		for m, st := range idx.cols {
			if st != nil {
				st[k] = rd.ints[m]
			}
		}
		run, err := rd.next(restartStride, cols, &ar)
		if err != nil {
			return nil, err
		}
		idx.first[k] = run.times[0]
	}
	return idx, nil
}

// payloadBytes is the compressed size of a sealed block's streams.
func (b *sealedBlock) payloadBytes() int64 {
	n := int64(len(b.times))
	for m := range b.ch {
		n += int64(len(b.ch[m].data))
	}
	return n
}
