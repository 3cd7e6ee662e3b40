// Package tsdb is a sharded, compressed, concurrent time-series storage
// engine for coolant-monitor telemetry — the production-grade replacement
// for the slice-backed environmental store in internal/envdb. Records are
// sharded per rack; each shard holds time-partitioned blocks. The active
// head block per shard is a plain columnar buffer; sealed blocks are
// compressed with Gorilla-style encodings (Facebook's in-memory TSDB,
// VLDB'15): delta-of-delta timestamps and, per float64 channel, either
// XOR-of-previous-value encoding (bit-lossless) or word-packed zigzag delta
// encoding of decimal-quantized integers when the channel's values are
// exactly representable at the block's decimal scale. An RWMutex per shard
// lets many analytical readers scan while the simulator appends.
package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	stdbits "math/bits"
)

// bitWriter appends bits MSB-first into a growing byte slice. Bits are
// staged in a 64-bit accumulator and leave it as whole big-endian words, so
// a write costs one or two shifts instead of a loop over the bytes it
// touches; bytes ends the stream with the leftover whole bytes and a
// zero-padded last byte.
type bitWriter struct {
	b   []byte
	acc uint64 // staged bits, MSB-aligned; the bits below them are zero
	n   uint   // staged bit count (0..63)
}

func (w *bitWriter) writeBit(bit bool) {
	if bit {
		w.writeBits(1, 1)
	} else {
		w.writeBits(0, 1)
	}
}

// writeBits appends the low nbits (0..64) of v; bits above them are ignored.
func (w *bitWriter) writeBits(v uint64, nbits uint) {
	v &= ^uint64(0) >> (64 - nbits) // nbits == 0 shifts by 64: mask 0
	free := 64 - w.n
	if nbits < free {
		w.acc |= v << (free - nbits)
		w.n += nbits
		return
	}
	rest := nbits - free // bits of v that spill past the completed word
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc|v>>rest)
	w.acc = v << (64 - rest) // rest == 0 shifts by 64: nothing staged
	w.n = rest
}

// bytes ends the stream and returns it; the writer takes no bits after it.
func (w *bitWriter) bytes() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.b = append(w.b, byte(w.acc>>56))
		w.acc <<= 8
	}
	return w.b
}

// errOverrun reports a compressed stream that ended before the declared
// sample count was decoded — a truncated or corrupted payload.
var errOverrun = errors.New("bitstream overrun")

// bitReader consumes bits MSB-first through a 64-bit look-ahead word so
// multi-bit reads cost one shift instead of a bounds check per bit (the
// per-bit loop was the decode bottleneck: ~570 ns per record across seven
// streams). Bits above r.n in cur are always zero. Overrunning the stream
// sets a sticky error and yields zero bits: sealed payloads may come from
// disk, so a short stream is an input error the decoders report, not a
// panic.
type bitReader struct {
	b   []byte
	off int    // next byte of b to load into cur
	cur uint64 // MSB-aligned look-ahead bits
	n   uint   // valid bit count in cur (0..64)
	err error
}

func (r *bitReader) refill() {
	// Away from the stream tail, top the word up with one unaligned 8-byte
	// load instead of a byte loop; only whole bytes are consumed, and the
	// partial-byte residue is masked off to keep bits past r.n zero.
	if take := (64 - r.n) >> 3; take > 0 && r.off+8 <= len(r.b) {
		w := binary.BigEndian.Uint64(r.b[r.off:])
		w &= ^uint64(0) << (64 - take*8)
		r.cur |= w >> r.n
		r.off += int(take)
		r.n += take * 8
		return
	}
	for r.n <= 56 && r.off < len(r.b) {
		r.cur |= uint64(r.b[r.off]) << (56 - r.n)
		r.off++
		r.n += 8
	}
}

func (r *bitReader) overrun() {
	r.err = errOverrun
	r.cur, r.n = 0, 0
}

// skip discards nbits; the caller must have checked nbits <= r.n.
func (r *bitReader) skip(nbits uint) {
	r.cur <<= nbits
	r.n -= nbits
}

func (r *bitReader) readBits(nbits uint) uint64 {
	if r.n < nbits {
		r.refill()
		if r.n < nbits {
			return r.readBitsSlow(nbits)
		}
	}
	v := r.cur >> (64 - nbits) // nbits >= 1 at every call site
	r.skip(nbits)
	return v
}

// readBitsSlow handles reads wider than the refilled look-ahead: a
// misaligned word tops out at 57..63 bits, so a 64-bit read may need bits
// from two fills.
func (r *bitReader) readBitsSlow(nbits uint) uint64 {
	take := r.n
	v := r.cur >> (64 - take) // take == 0 shifts by 64: zero, as intended
	r.skip(take)
	rest := nbits - take
	r.refill()
	if r.n < rest {
		r.overrun()
		return 0
	}
	v = v<<rest | r.cur>>(64-rest)
	r.skip(rest)
	return v
}

// zigzag maps signed deltas onto small unsigned values (0,-1,1,-2 → 0,1,2,3).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varbitSizes are the payload widths of the prefix-coded buckets. The
// prefix '0' encodes zero; k leading ones select varbitSizes[k-1]. The 12-
// and 17-bit buckets carry most sensor deltas (noise-scale differences in
// milli-units); 64 catches first values and pathological jumps.
var varbitSizes = [...]uint{7, 12, 17, 24, 32, 64}

func writeVarbit(w *bitWriter, u uint64) {
	if u == 0 {
		w.writeBit(false)
		return
	}
	for k, size := range varbitSizes {
		if size == 64 || u < 1<<size {
			// k+1 leading ones; all but the last bucket add a terminating zero.
			for i := 0; i <= k; i++ {
				w.writeBit(true)
			}
			if size != 64 {
				w.writeBit(false)
			}
			w.writeBits(u, size)
			return
		}
	}
}

// readVarbit decodes one prefix-coded value. The prefix, terminator, and
// payload of every bucket except the 64-bit one fit in at most 38 bits, so
// after one refill the whole value is peeked from cur and consumed with a
// single shift.
func readVarbit(r *bitReader) uint64 {
	if r.n < 38 {
		r.refill()
		if r.n == 0 {
			r.overrun()
			return 0
		}
	}
	w := r.cur
	if w>>63 == 0 { // '0' prefix: zero delta, the fixed-cadence fast path
		r.skip(1)
		return 0
	}
	ones := uint(stdbits.LeadingZeros64(^w)) // <= r.n: bits past r.n are zero
	if ones >= uint(len(varbitSizes)) {      // 64-bit bucket, no terminator
		r.skip(uint(len(varbitSizes)))
		return r.readBits(64)
	}
	size := varbitSizes[ones-1]
	total := ones + 1 + size // prefix ones, terminating zero, payload
	if r.n < total {
		r.overrun()
		return 0
	}
	v := (w << (ones + 1)) >> (64 - size)
	r.skip(total)
	return v
}

// encodeTimes compresses timestamps (unix nanoseconds) with delta-of-delta
// coding: the first value is stored raw, the second as a zigzag delta, the
// rest as zigzag delta-of-deltas. A fixed-cadence sampler (the coolant
// monitor's 300 s) costs one bit per timestamp after the second.
func encodeTimes(ts []int64) []byte {
	// Sized for a fixed cadence: 64 raw bits, at most 70 for the first
	// delta, then one bit per timestamp; an irregular stream grows past it.
	w := &bitWriter{b: make([]byte, 0, (len(ts)+132+63)/64*8)}
	var prev, prevDelta int64
	for i, t := range ts {
		switch i {
		case 0:
			w.writeBits(uint64(t), 64)
		case 1:
			prevDelta = t - prev
			writeVarbit(w, zigzag(prevDelta))
		default:
			d := t - prev
			writeVarbit(w, zigzag(d-prevDelta))
			prevDelta = d
		}
		prev = t
	}
	return w.bytes()
}

// int64Slice returns dst resized to n samples, reallocating only when the
// capacity is short — the arena-reuse primitive of the chunked scan path.
func int64Slice(dst []int64, n int) []int64 {
	if cap(dst) < n {
		return make([]int64, n)
	}
	return dst[:n]
}

func float64Slice(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// decodeTimes decodes n delta-of-delta timestamps: the range decode from
// the stream head.
func decodeTimes(buf []byte, n int) ([]int64, error) {
	out := make([]int64, n)
	if _, err := decodeTimesFrom(out, buf, timeState{}); err != nil {
		return nil, err
	}
	return out, nil
}

// refill8 tops a local look-ahead word up from buf with one unaligned
// 8-byte load (whole bytes only, partial-byte residue masked to keep bits
// past the valid count zero); near the stream tail it falls back to a byte
// loop. It returns ok=false when the word is empty and the stream is
// drained — a bitstream overrun. The decode loops call it once per word,
// so it must stay within the inliner's budget (cost 79 of 80 as written;
// `go build -gcflags=-m=2 ./internal/tsdb` reports it): a separate tail
// function would count in full at the call and push it over.
func refill8(buf []byte, cur uint64, bits uint, off int) (uint64, uint, int, bool) {
	if off+8 <= len(buf) {
		take := (64 - bits) >> 3
		w := binary.BigEndian.Uint64(buf[off:]) &^ (^uint64(0) >> (take * 8))
		return cur | w>>bits, bits + take*8, off + int(take), true
	}
	for bits <= 56 && off < len(buf) {
		cur |= uint64(buf[off]) << (56 - bits)
		off++
		bits += 8
	}
	return cur, bits, off, bits > 0
}

// readTailBits pulls one width-bit payload that straddles a refill (the
// caller saw bits < width) — 64-bit varbit buckets and >56-bit packed
// groups only, so this stays off the hot path.
func readTailBits(buf []byte, cur uint64, bits uint, off int, width uint) (uint64, uint64, uint, int, bool) {
	take := bits
	v := cur >> (64 - take) // take == 0 shifts by 64: zero, as intended
	rest := width - take
	cur, bits, off, _ = refill8(buf, 0, 0, off)
	if bits < rest {
		return 0, 0, 0, off, false
	}
	v = v<<rest | cur>>(64-rest)
	return v, cur << rest, bits - rest, off, true
}

// timeState is the timestamp decoder's position before one row: the bits
// of the stream consumed, the previous timestamp and the previous delta.
// The zero value is the stream head, before the raw first timestamp.
type timeState struct {
	pos         int
	prev, delta int64
}

// seekBits starts a decoder's local bit cursor (look-ahead word, valid bit
// count, next byte offset) at bit pos of buf; ok is false when the stream
// holds no bit at pos.
func seekBits(buf []byte, pos int) (cur uint64, bits uint, off int, ok bool) {
	cur, bits, off, ok = refill8(buf, 0, 0, pos>>3)
	skip := uint(pos & 7)
	if !ok || bits <= skip {
		return 0, 0, off, false
	}
	return cur << skip, bits - skip, off, true
}

// decodeTimesFrom decodes the len(dst) timestamps that follow state st
// into dst and returns the state after them, so a block's timestamps decode
// from any restart point its index recorded (see restartIndex) as well as
// from the head. The loop keeps the bit cursor in locals (no per-value
// method calls or struct traffic) and folds runs of '0' prefixes — zero
// delta-of-deltas, the whole stream for a fixed-cadence sampler — into one
// LeadingZeros64 per word: this is the hot half of the chunked scan's
// decode budget.
func decodeTimesFrom(dst []int64, buf []byte, st timeState) (timeState, error) {
	n := len(dst)
	i := 0
	if n > 0 && st.pos == 0 {
		// The first timestamp is written raw before any varbit, so it is
		// byte-aligned in the first eight bytes.
		if len(buf) < 8 {
			return st, fmt.Errorf("decoding timestamps: %w", errOverrun)
		}
		st = timeState{pos: 64, prev: int64(binary.BigEndian.Uint64(buf))}
		dst[0] = st.prev
		i = 1
	}
	if i == n {
		return st, nil
	}
	cur, bits, off, ok := seekBits(buf, st.pos)
	if !ok {
		return st, fmt.Errorf("decoding timestamps: %w", errOverrun)
	}
	prev, delta := st.prev, st.delta
	for i < n {
		if bits < 38 {
			if cur, bits, off, ok = refill8(buf, cur, bits, off); !ok {
				return st, fmt.Errorf("decoding timestamps: %w", errOverrun)
			}
		}
		w := cur
		if w>>63 == 0 {
			// '0'-prefix run: each leading zero bit is one unchanged delta.
			z := uint(stdbits.LeadingZeros64(w))
			if z > bits {
				z = bits // bits past the valid count are zero, not data
			}
			if rem := uint(n - i); z > rem {
				z = rem // don't consume the stream's zero-padding as values
			}
			cur <<= z
			bits -= z
			for e := i + int(z); i < e; i++ {
				prev += delta
				dst[i] = prev
			}
			continue
		}
		ones := uint(stdbits.LeadingZeros64(^w)) // <= bits: bits past bits are zero
		var u uint64
		if ones >= uint(len(varbitSizes)) { // 64-bit bucket, no terminator
			if u, cur, bits, off, ok = readTailBits(buf, cur<<6, bits-6, off, 64); !ok {
				return st, fmt.Errorf("decoding timestamps: %w", errOverrun)
			}
		} else {
			size := varbitSizes[ones-1]
			total := ones + 1 + size // prefix ones, terminating zero, payload
			if bits < total {
				return st, fmt.Errorf("decoding timestamps: %w", errOverrun)
			}
			u = (w << (ones + 1)) >> (64 - size)
			cur <<= total
			bits -= total
		}
		delta += unzigzag(u)
		prev += delta
		dst[i] = prev
		i++
	}
	return timeState{pos: off*8 - int(bits), prev: prev, delta: delta}, nil
}

// encodeInts compresses a quantized channel: the first value raw-ish
// (zigzag varbit), the rest as zigzag deltas. Plain deltas beat
// delta-of-delta here because sensor noise is i.i.d. — second differences
// have ~√3× the variance of first differences.
func encodeInts(vals []int64) []byte {
	w := &bitWriter{}
	var prev int64
	for i, v := range vals {
		if i == 0 {
			writeVarbit(w, zigzag(v))
		} else {
			writeVarbit(w, zigzag(v-prev))
		}
		prev = v
	}
	return w.bytes()
}

// decodeInts decodes n zigzag-delta integers. Like decodeTimesFrom it runs
// the bit cursor in locals and folds '0'-prefix runs (repeated values) into
// one LeadingZeros64.
func decodeInts(buf []byte, n int) ([]int64, error) {
	out := make([]int64, n)
	if n == 0 {
		return out, nil
	}
	var (
		cur  uint64
		bits uint
		off  int
		prev int64
		ok   bool
	)
	for i := 0; i < n; {
		if bits < 38 {
			if cur, bits, off, ok = refill8(buf, cur, bits, off); !ok {
				return nil, fmt.Errorf("decoding integer deltas: %w", errOverrun)
			}
		}
		w := cur
		if w>>63 == 0 {
			// '0'-prefix run: each leading zero bit is one zero delta, so a
			// stretch of repeated values costs one LeadingZeros64 total.
			z := uint(stdbits.LeadingZeros64(w))
			if z > bits {
				z = bits // bits past the valid count are zero, not data
			}
			if rem := uint(n - i); z > rem {
				z = rem // don't consume the stream's zero-padding as values
			}
			cur <<= z
			bits -= z
			for e := i + int(z); i < e; i++ {
				out[i] = prev
			}
			continue
		}
		ones := uint(stdbits.LeadingZeros64(^w)) // <= bits: bits past bits are zero
		var u uint64
		if ones >= uint(len(varbitSizes)) { // 64-bit bucket, no terminator
			if u, cur, bits, off, ok = readTailBits(buf, cur<<6, bits-6, off, 64); !ok {
				return nil, fmt.Errorf("decoding integer deltas: %w", errOverrun)
			}
		} else {
			size := varbitSizes[ones-1]
			total := ones + 1 + size // prefix ones, terminating zero, payload
			if bits < total {
				return nil, fmt.Errorf("decoding integer deltas: %w", errOverrun)
			}
			u = (w << (ones + 1)) >> (64 - size)
			cur <<= total
			bits -= total
		}
		prev += unzigzag(u)
		out[i] = prev
		i++
	}
	return out, nil
}

// packGroup is the group size of the word-packed integer encoding: 64
// deltas per width group keeps the 7-bit width header under 2% overhead
// while bounding how far one outlier delta inflates its neighbours.
const packGroup = 64

// encodeIntsPacked compresses a quantized channel with frame-of-reference
// word packing: the same zigzag deltas as encodeInts, but grouped in runs
// of packGroup and stored at a fixed width per group — a 7-bit width header
// (0..64, the widest delta of the group) followed by every delta at exactly
// that many bits. Width 0 encodes a whole group of repeated values in just
// the header. Against varbit this trades the per-value prefix code (and its
// unpredictable branches) for per-group headroom below the widest delta;
// on noisy sensor data the sizes come out within a few percent, while
// decode drops to a branch-light shift loop — the batch-decode form the
// chunked scan path is built around.
//
// A first pass takes every group's width, which also gives the stream's
// exact length (Σ 7 + width·count bits), so the second pass writes into a
// buffer sized once, rounded up to the writer's whole words.
func encodeIntsPacked(vals []int64) []byte {
	widths := make([]uint8, (len(vals)+packGroup-1)/packGroup)
	total, prev := 0, int64(0)
	for gi := range widths {
		group := vals[gi*packGroup : min((gi+1)*packGroup, len(vals))]
		width := 0
		for _, v := range group {
			width = max(width, stdbits.Len64(zigzag(v-prev)))
			prev = v
		}
		widths[gi] = uint8(width)
		total += 7 + width*len(group)
	}
	w := &bitWriter{b: make([]byte, 0, (total+63)/64*8)}
	prev = 0
	for gi, width := range widths {
		group := vals[gi*packGroup : min((gi+1)*packGroup, len(vals))]
		w.writeBits(uint64(width), 7)
		if width == 0 {
			prev = group[len(group)-1]
			continue
		}
		for _, v := range group {
			w.writeBits(zigzag(v-prev), uint(width))
			prev = v
		}
	}
	return w.bytes()
}

// packState is the packed integer decoder's position before one group
// header: the bits of the stream consumed and the previous value. The zero
// value is the stream head.
type packState struct {
	pos  int
	prev int64
}

// decodeIntsPacked decodes n word-packed integer deltas: the range decode
// from the stream head.
func decodeIntsPacked(buf []byte, n int) ([]int64, error) {
	out := make([]int64, n)
	if _, err := decodeIntsPackedFrom(out, buf, packState{}); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeIntsPackedFrom decodes the len(dst) values that follow state st
// into dst and returns the state after them. st must sit on a group
// header; the returned state does too, and a later call may start from it,
// only when len(dst) is a whole number of groups or runs to the column's
// end, whose last group may be short. One group costs one 7-bit header
// read; its values then stream out of the look-ahead word at a fixed shift
// each — no prefix decode, no width branch per value — which is why sealed
// blocks use this encoding over varbit.
func decodeIntsPackedFrom(dst []int64, buf []byte, st packState) (packState, error) {
	n := len(dst)
	if n == 0 {
		return st, nil
	}
	fail := func() (packState, error) {
		return st, fmt.Errorf("decoding packed integer deltas: %w", errOverrun)
	}
	cur, bits, off, ok := seekBits(buf, st.pos)
	if !ok {
		return fail()
	}
	prev := st.prev
	for i := 0; i < n; {
		if bits < 7 {
			if cur, bits, off, ok = refill8(buf, cur, bits, off); !ok || bits < 7 {
				return fail()
			}
		}
		width := uint(cur >> 57)
		cur <<= 7
		bits -= 7
		cnt := n - i
		if cnt > packGroup {
			cnt = packGroup
		}
		switch {
		case width == 0:
			for e := i + cnt; i < e; i++ {
				dst[i] = prev
			}
		case width > 64:
			return st, fmt.Errorf("decoding packed integer deltas: invalid group width %d", width)
		case width > 56:
			// Wider than one refill guarantees: split reads, off the hot path
			// (such groups carry first values or pathological jumps).
			for e := i + cnt; i < e; i++ {
				u := cur >> (64 - width)
				if bits >= width {
					cur <<= width
					bits -= width
				} else if u, cur, bits, off, ok = readTailBits(buf, cur, bits, off, width); !ok {
					return fail()
				}
				prev += unzigzag(u)
				dst[i] = prev
			}
		default:
			for e := i + cnt; i < e; i++ {
				if bits < width {
					if cur, bits, off, ok = refill8(buf, cur, bits, off); !ok || bits < width {
						return fail()
					}
				}
				prev += unzigzag(cur >> (64 - width))
				cur <<= width
				bits -= width
				dst[i] = prev
			}
		}
	}
	return packState{pos: off*8 - int(bits), prev: prev}, nil
}

// encodeXOR is the classic Gorilla float encoding: XOR against the previous
// value; a zero XOR costs one bit, otherwise the meaningful bits are stored
// either inside the previous leading/trailing-zero window ('10') or with a
// fresh 5-bit leading-zero count and 6-bit length ('11'). Bit-lossless for
// any float64, including NaN, infinities, and -0.
func encodeXOR(vals []float64) []byte {
	w := &bitWriter{}
	var prev uint64
	leading, trailing := ^uint(0), uint(0) // invalid window marker
	for i, v := range vals {
		bits := math.Float64bits(v)
		if i == 0 {
			w.writeBits(bits, 64)
			prev = bits
			continue
		}
		xor := bits ^ prev
		prev = bits
		if xor == 0 {
			w.writeBit(false)
			continue
		}
		w.writeBit(true)
		l := uint(stdbits.LeadingZeros64(xor))
		if l > 31 {
			l = 31 // 5-bit field
		}
		t := uint(stdbits.TrailingZeros64(xor))
		if leading != ^uint(0) && l >= leading && t >= trailing {
			w.writeBit(false)
			w.writeBits(xor>>trailing, 64-leading-trailing)
		} else {
			leading, trailing = l, t
			sig := 64 - l - t
			w.writeBit(true)
			w.writeBits(uint64(l), 5)
			w.writeBits(uint64(sig-1), 6)
			w.writeBits(xor>>t, sig)
		}
	}
	return w.bytes()
}

// decodeXOR decodes n XOR-encoded floats: the range decode from the
// stream head.
func decodeXOR(buf []byte, n int) ([]float64, error) {
	out := make([]float64, n)
	if _, err := decodeXORFrom(out, buf, xorState{}); err != nil {
		return nil, err
	}
	return out, nil
}

// xorState is the XOR float decoder's position before one value: the bits
// of the stream consumed, the previous value's bits and the meaningful-bit
// window the next '10' control reuses. The zero value is the stream head,
// before the raw first value.
type xorState struct {
	pos               int
	prev              uint64
	leading, trailing uint
}

// decodeXORFrom decodes the len(dst) floats that follow state st into dst
// and returns the state after them, so the merged scan decodes an XOR
// column a span at a time, each span from where the last one ended. The
// control prefix and window descriptor ('11' + 5-bit leading + 6-bit
// length) together span at most 13 bits, so each value's framing is peeked
// from the look-ahead word in one shot.
func decodeXORFrom(dst []float64, buf []byte, st xorState) (xorState, error) {
	n := len(dst)
	if n == 0 {
		return st, nil
	}
	r := &bitReader{b: buf, off: st.pos >> 3}
	r.refill()
	if skip := uint(st.pos & 7); r.n < skip {
		r.overrun()
	} else {
		r.skip(skip)
	}
	bits, leading, trailing := st.prev, st.leading, st.trailing
	i := 0
	if st.pos == 0 {
		bits = r.readBits(64)
		dst[0] = math.Float64frombits(bits)
		i = 1
	}
	for ; i < n && r.err == nil; i++ {
		if r.n < 13 {
			r.refill()
		}
		w := r.cur
		if w>>63 == 0 { // '0': identical value
			if r.n == 0 {
				r.overrun()
				break
			}
			r.skip(1)
			dst[i] = math.Float64frombits(bits)
			continue
		}
		if w>>62&1 != 0 { // '11': new window descriptor
			if r.n < 13 {
				r.overrun()
				break
			}
			leading = uint(w>>57) & 31
			sig := uint(w>>51)&63 + 1
			if leading+sig > 64 {
				// Corrupted window descriptor; without this check the
				// trailing count underflows and the read length explodes.
				return st, fmt.Errorf("decoding XOR floats: invalid window (leading %d, significant %d)", leading, sig)
			}
			trailing = 64 - leading - sig
			r.skip(13)
		} else { // '10': reuse the previous window
			if r.n < 2 {
				r.overrun()
				break
			}
			r.skip(2)
		}
		bits ^= r.readBits(64-leading-trailing) << trailing
		dst[i] = math.Float64frombits(bits)
	}
	if r.err != nil {
		return st, fmt.Errorf("decoding XOR floats: %w", r.err)
	}
	return xorState{pos: r.off*8 - int(r.n), prev: bits, leading: leading, trailing: trailing}, nil
}
