package tsdb

// Downsampled ("cold") blocks — the 1-hour-cadence tier that retention
// compaction folds old sealed partitions into. A downBlock keeps, per
// compaction window and channel, the record count, sum, min, and max; that
// is exactly the state Aggregate accumulates, so count/sum/mean/min/max
// queries over the cold tier reproduce the raw answer. For channels stored
// as quantized integers (every channel with a decimal precision — the
// default for all six), the fold runs in the integer domain and the stored
// sums are exact: post-compaction aggregates equal pre-compaction brute
// force bit for bit. Channels that fell back to XOR float encoding fold in
// float order, so their cold sums (and means) are approximate while count,
// min, and max stay exact; the default configuration has no such channels.
//
// On-wire layout of an integer channel: four bypass-shift bytes (mean
// delta, remainder, min offset, max offset streams), two zigzag-uvarint
// offset bases, then a single range-coded stream interleaving the four
// per-window symbols (see rangecoder.go). Each window's sum is decomposed
// as sum = mf·count + rem with mf = floor(sum/count) and rem ∈ [0,count):
// mf moves like the signal (small deltas), rem and the min/max offsets are
// noise-scale, and the adaptive coder squeezes all four well under the
// varbit bucket sizes. XOR-fallback channels store three length-prefixed
// Gorilla streams (sums, mins, maxs).

import (
	"encoding/binary"
	"fmt"

	"mira/internal/sensors"
)

// downChannel is one compressed aggregate column of a downsampled block.
type downChannel struct {
	enc   byte    // encInt: exact integer streams; encXOR: float fallback
	scale float64 // 10^decimals, valid when enc == encInt
	data  []byte
}

// downBlock is an immutable run of downsampled windows for one shard.
// minT/maxT are the first and last window START times; a window covers
// [start, start+window). Like sealedBlock, all fields are written once and
// concurrent readers decode without locks.
type downBlock struct {
	window     int64 // compaction window length, nanoseconds
	minT, maxT int64 // first/last window start, unix nanoseconds
	count      int   // number of windows
	srcRecords int64 // raw records folded into this block
	times      []byte
	counts     []byte
	ch         [sensors.NumMetrics]downChannel
	src        string // segment origin for disk-loaded blocks, "" in memory
}

// downColumn is one decoded aggregate column. scale > 0 means the integer
// slices are valid and exact; otherwise the float slices hold the
// XOR-fallback aggregates.
type downColumn struct {
	scale               float64
	sumsI, minsI, maxsI []int64
	sumsF, minsF, maxsF []float64
}

// wrap qualifies a decode error with the block's origin and marks it as
// corruption: downsampled payloads only decode wrong when the bytes are.
func (b *downBlock) wrap(what string, err error) error {
	if b.src != "" {
		return fmt.Errorf("tsdb: %s: %s: %w: %w", b.src, what, ErrCorrupt, err)
	}
	return fmt.Errorf("tsdb: downsampled block: %s: %w: %w", what, ErrCorrupt, err)
}

// starts decodes the window start times and validates their shape against
// the block header.
func (b *downBlock) starts() ([]int64, error) {
	metDecode.Inc()
	ts, err := decodeTimes(b.times, b.count)
	if err != nil {
		return nil, b.wrap("window starts", err)
	}
	for i, t := range ts {
		if t != floorDiv(t, b.window)*b.window {
			return nil, b.wrap("window starts", fmt.Errorf("start %d not aligned to %dns windows", t, b.window))
		}
		if i > 0 && t <= ts[i-1] {
			return nil, b.wrap("window starts", fmt.Errorf("starts not strictly increasing at %d", i))
		}
	}
	if ts[0] != b.minT || ts[len(ts)-1] != b.maxT {
		return nil, b.wrap("window starts", fmt.Errorf("start range [%d,%d] disagrees with header [%d,%d]", ts[0], ts[len(ts)-1], b.minT, b.maxT))
	}
	return ts, nil
}

// recordCounts decodes the per-window record counts and validates them
// against the block's source-record total.
func (b *downBlock) recordCounts() ([]int64, error) {
	metDecode.Inc()
	cs, err := decodeInts(b.counts, b.count)
	if err != nil {
		return nil, b.wrap("window counts", err)
	}
	var total int64
	for i, c := range cs {
		if c <= 0 {
			return nil, b.wrap("window counts", fmt.Errorf("window %d has count %d", i, c))
		}
		total += c
	}
	if total != b.srcRecords {
		return nil, b.wrap("window counts", fmt.Errorf("counts sum to %d, header says %d records", total, b.srcRecords))
	}
	return cs, nil
}

// channelAgg decodes one channel's per-window sum/min/max columns. counts
// must come from recordCounts (the integer codec needs them to rebuild
// sums from their mean/remainder decomposition).
func (b *downBlock) channelAgg(m sensors.Metric, counts []int64) (downColumn, error) {
	metDecode.Inc()
	c := b.ch[m]
	if c.enc == encXOR {
		sums, mins, maxs, err := decodeDownFloats(c.data, b.count)
		if err != nil {
			return downColumn{}, b.wrap(m.String(), err)
		}
		return downColumn{sumsF: sums, minsF: mins, maxsF: maxs}, nil
	}
	sums, mins, maxs, err := decodeDownInts(c.data, counts)
	if err != nil {
		return downColumn{}, b.wrap(m.String(), err)
	}
	return downColumn{scale: c.scale, sumsI: sums, minsI: mins, maxsI: maxs}, nil
}

// channelMeans materializes one channel as per-window mean values — the
// record stream a downsampled block contributes to Series, Query, and the
// merged scan.
func (b *downBlock) channelMeans(m sensors.Metric, counts []int64) ([]float64, error) {
	col, err := b.channelAgg(m, counts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, b.count)
	if col.scale > 0 {
		for i := range out {
			out[i] = float64(col.sumsI[i]) / col.scale / float64(counts[i])
		}
	} else {
		for i := range out {
			out[i] = col.sumsF[i] / float64(counts[i])
		}
	}
	return out, nil
}

// payloadBytes is the compressed size of the block's streams.
func (b *downBlock) payloadBytes() int64 {
	n := int64(len(b.times) + len(b.counts))
	for m := range b.ch {
		n += int64(len(b.ch[m].data))
	}
	return n
}

// addInt64 adds with overflow detection.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// foldBlocks downsamples an ordered run of sealed blocks from one shard
// into a single downBlock at the given window length. Blocks must be in
// time order with strictly increasing timestamps (the shard invariant).
// One block spans the whole folded range on purpose: the cold codec's
// adaptive models need long streams to reach their compression ratio. The
// fold reads payloads, so blocks a racing partition roll left frozen are
// sealed first.
func foldBlocks(blocks []*sealedBlock, scales [sensors.NumMetrics]float64, win int64, src string) (*downBlock, error) {
	for _, b := range blocks {
		b.seal(&scales)
	}
	var starts, counts []int64
	winIdx := make([][]int32, len(blocks))
	var srcRecords int64
	for bi, b := range blocks {
		ts, err := b.decodeTimes()
		if err != nil {
			return nil, err
		}
		idx := make([]int32, len(ts))
		for i, t := range ts {
			w := floorDiv(t, win) * win
			if len(starts) == 0 || w != starts[len(starts)-1] {
				if len(starts) > 0 && w < starts[len(starts)-1] {
					return nil, b.wrap("downsampling", fmt.Errorf("timestamps regress across window %d", w))
				}
				starts = append(starts, w)
				counts = append(counts, 0)
			}
			idx[i] = int32(len(starts) - 1)
			counts[len(counts)-1]++
		}
		winIdx[bi] = idx
		srcRecords += int64(b.count)
	}
	if len(starts) == 0 {
		return nil, fmt.Errorf("tsdb: downsampling empty block run")
	}
	nw := len(starts)
	d := &downBlock{
		window:     win,
		minT:       starts[0],
		maxT:       starts[nw-1],
		count:      nw,
		srcRecords: srcRecords,
		times:      encodeTimes(starts),
		counts:     encodeInts(counts),
		src:        src,
	}
	for m := range d.ch {
		exact := scales[m] > 0
		for _, b := range blocks {
			if b.ch[m].enc != encIntPacked || b.ch[m].scale != scales[m] {
				exact = false
				break
			}
		}
		if exact {
			sumsI := make([]int64, nw)
			minsI := make([]int64, nw)
			maxsI := make([]int64, nw)
			seen := make([]bool, nw)
			ok := true
		intFold:
			for bi, b := range blocks {
				metDecode.Inc()
				ints, err := decodeIntsPackedInto(nil, b.ch[m].data, b.count)
				if err != nil {
					return nil, b.wrap(sensors.Metric(m).String(), err)
				}
				for i, v := range ints {
					k := winIdx[bi][i]
					s, fits := addInt64(sumsI[k], v)
					if !fits {
						ok = false
						break intFold
					}
					sumsI[k] = s
					if !seen[k] {
						minsI[k], maxsI[k] = v, v
						seen[k] = true
						continue
					}
					if v < minsI[k] {
						minsI[k] = v
					}
					if v > maxsI[k] {
						maxsI[k] = v
					}
				}
			}
			if ok {
				d.ch[m] = downChannel{
					enc:   encInt,
					scale: scales[m],
					data:  encodeDownChannelInts(sumsI, minsI, maxsI, counts),
				}
				continue
			}
			// Integer sums overflowed — refold this channel in float.
		}
		sumsF := make([]float64, nw)
		minsF := make([]float64, nw)
		maxsF := make([]float64, nw)
		seen := make([]bool, nw)
		for bi, b := range blocks {
			vals, err := b.decodeChannel(sensors.Metric(m))
			if err != nil {
				return nil, err
			}
			for i, v := range vals {
				k := winIdx[bi][i]
				sumsF[k] += v
				if !seen[k] {
					minsF[k], maxsF[k] = v, v
					seen[k] = true
					continue
				}
				if v < minsF[k] {
					minsF[k] = v
				}
				if v > maxsF[k] {
					maxsF[k] = v
				}
			}
		}
		d.ch[m] = downChannel{enc: encXOR, data: encodeDownChannelFloats(sumsF, minsF, maxsF)}
	}
	return d, nil
}

func putZigzagUvarint(dst []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], zigzag(v))]...)
}

// encodeDownChannelInts compresses exact per-window sum/min/max integer
// columns. Each window decomposes into mf = floor(sum/count), rem = sum −
// mf·count, minOff = mf − min, maxOff = max − mf; the four resulting
// streams (mf as deltas, offsets centered on their stream mean) go through
// one interleaved range-coded stream with independent adaptive models.
func encodeDownChannelInts(sums, mins, maxs, counts []int64) []byte {
	n := len(counts)
	mfD := make([]uint64, n)
	rems := make([]uint64, n)
	minOff := make([]int64, n)
	maxOff := make([]int64, n)
	var prev int64
	var minMean, maxMean float64
	for i := 0; i < n; i++ {
		mf := floorDiv(sums[i], counts[i])
		mfD[i] = zigzag(mf - prev)
		prev = mf
		rems[i] = uint64(sums[i] - mf*counts[i])
		minOff[i] = mf - mins[i]
		maxOff[i] = maxs[i] - mf
		minMean += float64(minOff[i])
		maxMean += float64(maxOff[i])
	}
	baseMin := int64(minMean / float64(n))
	baseMax := int64(maxMean / float64(n))
	minC := make([]uint64, n)
	maxC := make([]uint64, n)
	for i := 0; i < n; i++ {
		minC[i] = zigzag(minOff[i] - baseMin)
		maxC[i] = zigzag(maxOff[i] - baseMax)
	}
	out := []byte{
		byte(chooseShift(mfD)),
		byte(chooseShift(rems)),
		byte(chooseShift(minC)),
		byte(chooseShift(maxC)),
	}
	out = putZigzagUvarint(out, baseMin)
	out = putZigzagUvarint(out, baseMax)
	e := newRCEncoder()
	mMF := newSymModel(uint(out[0]))
	mRem := newSymModel(uint(out[1]))
	mMin := newSymModel(uint(out[2]))
	mMax := newSymModel(uint(out[3]))
	for i := 0; i < n; i++ {
		e.symbol(mMF, mfD[i])
		e.symbol(mRem, rems[i])
		e.symbol(mMin, minC[i])
		e.symbol(mMax, maxC[i])
	}
	return append(out, e.finish()...)
}

// decodeDownInts reverses encodeDownChannelInts. counts are the per-window
// record counts; each decoded remainder must fall in [0, count), which
// doubles as a cheap structural check on corrupt payloads.
func decodeDownInts(data []byte, counts []int64) (sums, mins, maxs []int64, err error) {
	n := len(counts)
	if len(data) < 4 {
		return nil, nil, nil, errOverrun
	}
	rMF, rRem, rMin, rMax := uint(data[0]), uint(data[1]), uint(data[2]), uint(data[3])
	if rMF > 63 || rRem > 63 || rMin > 63 || rMax > 63 {
		return nil, nil, nil, fmt.Errorf("bypass shift out of range")
	}
	rest := data[4:]
	u, k := binary.Uvarint(rest)
	if k <= 0 {
		return nil, nil, nil, errOverrun
	}
	baseMin := unzigzag(u)
	rest = rest[k:]
	u, k = binary.Uvarint(rest)
	if k <= 0 {
		return nil, nil, nil, errOverrun
	}
	baseMax := unzigzag(u)
	rest = rest[k:]
	d := newRCDecoder(rest)
	mMF := newSymModel(rMF)
	mRem := newSymModel(rRem)
	mMin := newSymModel(rMin)
	mMax := newSymModel(rMax)
	sums = make([]int64, n)
	mins = make([]int64, n)
	maxs = make([]int64, n)
	var mf int64
	for i := 0; i < n; i++ {
		mf += unzigzag(d.symbol(mMF))
		rem := int64(d.symbol(mRem))
		if rem < 0 || rem >= counts[i] {
			return nil, nil, nil, fmt.Errorf("window %d remainder %d outside [0,%d)", i, rem, counts[i])
		}
		minOff := baseMin + unzigzag(d.symbol(mMin))
		maxOff := baseMax + unzigzag(d.symbol(mMax))
		if minOff < 0 || maxOff < 0 {
			return nil, nil, nil, fmt.Errorf("window %d has negative min/max offset", i)
		}
		sums[i] = mf*counts[i] + rem
		mins[i] = mf - minOff
		maxs[i] = mf + maxOff
	}
	if d.short {
		return nil, nil, nil, errOverrun
	}
	return sums, mins, maxs, nil
}

// encodeDownChannelFloats stores XOR-fallback aggregates as three Gorilla
// streams: length-prefixed sums and mins, then maxs to the end.
func encodeDownChannelFloats(sums, mins, maxs []float64) []byte {
	se := encodeXOR(sums)
	me := encodeXOR(mins)
	xe := encodeXOR(maxs)
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(se)))]...)
	out = append(out, se...)
	out = append(out, tmp[:binary.PutUvarint(tmp[:], uint64(len(me)))]...)
	out = append(out, me...)
	out = append(out, xe...)
	return out
}

func decodeDownFloats(data []byte, n int) (sums, mins, maxs []float64, err error) {
	next := func() ([]byte, error) {
		l, k := binary.Uvarint(data)
		if k <= 0 || l > uint64(len(data)-k) {
			return nil, errOverrun
		}
		seg := data[k : k+int(l)]
		data = data[k+int(l):]
		return seg, nil
	}
	se, err := next()
	if err != nil {
		return nil, nil, nil, err
	}
	me, err := next()
	if err != nil {
		return nil, nil, nil, err
	}
	if sums, err = decodeXOR(se, n); err != nil {
		return nil, nil, nil, err
	}
	if mins, err = decodeXOR(me, n); err != nil {
		return nil, nil, nil, err
	}
	if maxs, err = decodeXOR(data, n); err != nil {
		return nil, nil, nil, err
	}
	return sums, mins, maxs, nil
}
