package tsdb

// The block reader: every read of a block's rows — the merged scan, the
// point reads and aggregates, compaction and the restart-index build —
// seeks one blockReader and steps it.

import (
	"math/bits"
	"sync"

	"mira/internal/sensors"
)

// colSet names columns of a block: bit m is value channel m, colTimes the
// timestamps.
type colSet uint8

const (
	colTimes colSet = 1 << sensors.NumMetrics
	allCols         = colTimes<<1 - 1
)

// colOf is the set holding channel m alone.
func colOf(m sensors.Metric) colSet { return 1 << m }

// scanArena is one reusable set of decode buffers a blockReader fills: the
// timestamps, each channel's quantized integers, and each channel's floats
// (an XOR column's decode, or an integer column converted by floats). Each
// buffer grows to the longest run read into it and is reused after.
type scanArena struct {
	times []int64
	ints  [sensors.NumMetrics][]int64
	cols  [sensors.NumMetrics][]float64
}

// blockRun is the rows one step of a blockReader returned, from block row
// row on: the timestamps and each asked channel in its decoded domain —
// ints, at scale, for an encIntPacked column of a sealed block (vals nil),
// and vals for every other column (ints nil). A channel not asked holds
// whatever an earlier step left; timestamps not asked are nil. The slices
// alias the arena the step filled or, for a raw or cold view, the view's
// own immutable columns.
type blockRun struct {
	row   int
	times []int64
	ints  [sensors.NumMetrics][]int64
	scale [sensors.NumMetrics]float64
	vals  [sensors.NumMetrics][]float64
}

// floats returns channel m of run as floats, valid on the run's rows
// [lo, hi): an integer column converts just those rows into ar, with the
// float64(n)/scale every read path uses, so a value is bit-identical
// whichever rows a read converts.
func (ar *scanArena) floats(run *blockRun, m, lo, hi int) []float64 {
	ints := run.ints[m]
	if ints == nil {
		return run.vals[m]
	}
	col := float64Slice(ar.cols[m], len(ints))
	ar.cols[m] = col
	scale := run.scale[m]
	for i, n := range ints[lo:hi] {
		col[lo+i] = float64(n) / scale
	}
	return col
}

// streamStates are the decoder states of a sealed block's streams before
// one row: the timestamps, and each channel by its encoding.
type streamStates struct {
	times timeState
	ints  [sensors.NumMetrics]packState
	xor   [sensors.NumMetrics]xorState
	// xorAt is the row each XOR column's state stands before. XOR columns
	// have no restart states, so after a seek they decode from the stream
	// head, through the rows before the reader's.
	xorAt [sensors.NumMetrics]int
}

// blockReader is one read's place in one block view. reset points it at a
// view's first row; seek moves the streams a read asks for to the nearest
// restart at or before a row; next returns the rows from there on, a run
// at a time, each run decoded from the states the last one ended in. A
// sealed block's streams only decode forward, so a read asks every step
// after a reset or seek for the same columns. A reader counts each payload
// stream it decodes once in mira_tsdb_block_decode_total, however many
// steps it takes.
type blockReader struct {
	bv   blockView
	rows int // the view's row count; 0 before the first reset
	row  int // the block row the next run starts at
	streamStates
	decoded colSet      // sealed streams counted so far
	cold    *coldReader // a cold view's decoded columns, made on first read
	run     blockRun    // the last step's rows
}

// coldReader holds what a reader decoded of a downsampled block: the
// window starts and counts, decoded on first use for every channel, and
// each channel's means or aggregates, decoded when first asked for.
type coldReader struct {
	starts, counts []int64
	means          [sensors.NumMetrics][]float64
	agg            [sensors.NumMetrics]downColumn
	aggs           colSet // channels whose agg is decoded
}

// reset points r at the first row of bv.
func (r *blockReader) reset(bv blockView) {
	r.bv, r.rows, r.row, r.decoded, r.cold = bv, bv.rows(), 0, 0, nil
	if bv.sealed != nil {
		r.streamStates = streamStates{}
	}
}

// seek moves the streams in cols to the nearest restart at or before row:
// for a sealed block a point of its restart index (built on the block's
// first seek past its first restart), for a head, frozen or cold view row
// 0. Streams not in cols keep their states and must not be read again.
func (r *blockReader) seek(row int, cols colSet) error {
	r.row = 0
	b := r.bv.sealed
	if b == nil {
		return nil
	}
	k := row / restartStride
	var idx *restartIndex
	if k > 0 {
		var err error
		if idx, err = b.index(); err != nil {
			return err
		}
		r.row = k * restartStride
	}
	if cols&colTimes != 0 {
		r.times = timeState{}
		if idx != nil {
			r.times = idx.times[k]
		}
	}
	for c := cols &^ colTimes; c != 0; c &= c - 1 {
		m := bits.TrailingZeros8(uint8(c))
		switch {
		case b.ch[m].enc == encXOR:
			r.xor[m], r.xorAt[m] = xorState{}, 0
		case idx != nil:
			r.ints[m] = idx.cols[m][k]
		default:
			r.ints[m] = packState{}
		}
	}
	return nil
}

// next returns the rows from r's place on, at most n, of the columns in
// cols, decoding a sealed block's into ar, and moves r past them. The run
// is r's own and holds until the next step.
func (r *blockReader) next(n int, cols colSet, ar *scanArena) (run *blockRun, err error) {
	n = min(n, r.rows-r.row)
	run = &r.run
	run.row, run.times = r.row, nil
	switch bv := &r.bv; {
	case bv.raw != nil:
		run.times = bv.raw.times[r.row:][:n]
		for c := cols &^ colTimes; c != 0; c &= c - 1 {
			m := bits.TrailingZeros8(uint8(c))
			run.vals[m], run.ints[m] = bv.raw.vals[m][r.row:][:n], nil
		}
	case bv.down != nil:
		err = r.nextCold(run, n, cols)
	default:
		err = r.nextSealed(run, n, cols, ar)
	}
	if err == nil {
		r.row += n
	}
	return run, err
}

// nextSealed decodes the n rows after r's states of each asked stream.
func (r *blockReader) nextSealed(run *blockRun, n int, cols colSet, ar *scanArena) (err error) {
	b := r.bv.sealed
	if fresh := cols &^ r.decoded; fresh != 0 {
		r.decoded |= fresh
		metDecode.Add(uint64(bits.OnesCount8(uint8(fresh))))
	}
	if cols&colTimes != 0 {
		ar.times = int64Slice(ar.times, n)
		if r.times, err = decodeTimesFrom(ar.times, b.times, r.times); err != nil {
			return b.wrap("timestamps", err)
		}
		run.times = ar.times
	}
	for c := cols &^ colTimes; c != 0; c &= c - 1 {
		m := bits.TrailingZeros8(uint8(c))
		ch := &b.ch[m]
		if ch.enc == encXOR {
			lag := r.row - r.xorAt[m]
			col := float64Slice(ar.cols[m], lag+n)
			ar.cols[m] = col
			if r.xor[m], err = decodeXORFrom(col, ch.data, r.xor[m]); err != nil {
				return b.wrap(sensors.Metric(m).String(), err)
			}
			run.vals[m], run.ints[m], r.xorAt[m] = col[lag:], nil, r.row+n
			continue
		}
		ar.ints[m] = int64Slice(ar.ints[m], n)
		if r.ints[m], err = decodeIntsPackedFrom(ar.ints[m], ch.data, r.ints[m]); err != nil {
			return b.wrap(sensors.Metric(m).String(), err)
		}
		run.ints[m], run.vals[m], run.scale[m] = ar.ints[m], nil, ch.scale
	}
	return nil
}

// nextCold serves n rows of a downsampled block: one record per window,
// timestamped at its start and valued at the window means.
func (r *blockReader) nextCold(run *blockRun, n int, cols colSet) error {
	c, err := r.coldBlock()
	if err != nil {
		return err
	}
	run.times = c.starts[r.row:][:n]
	for cs := cols &^ colTimes; cs != 0; cs &= cs - 1 {
		m := bits.TrailingZeros8(uint8(cs))
		if c.means[m] == nil {
			if c.means[m], err = r.bv.down.channelMeans(sensors.Metric(m), c.counts); err != nil {
				return err
			}
		}
		run.vals[m], run.ints[m] = c.means[m][r.row:][:n], nil
	}
	return nil
}

// coldBlock returns what r decoded of its downsampled block, decoding the
// window starts and counts on first use.
func (r *blockReader) coldBlock() (*coldReader, error) {
	if r.cold == nil {
		c, d := new(coldReader), r.bv.down
		var err error
		if c.starts, err = d.starts(); err != nil {
			return nil, err
		}
		if c.counts, err = d.recordCounts(); err != nil {
			return nil, err
		}
		r.cold = c
	}
	return r.cold, nil
}

// coldAgg returns channel m's per-window aggregates of r's downsampled
// block and its window counts, each decoded once per reader.
func (r *blockReader) coldAgg(m sensors.Metric) (downColumn, []int64, error) {
	c, err := r.coldBlock()
	if err != nil {
		return downColumn{}, nil, err
	}
	if c.aggs&colOf(m) == 0 {
		if c.agg[m], err = r.bv.down.channelAgg(m, c.counts); err != nil {
			return downColumn{}, nil, err
		}
		c.aggs |= colOf(m)
	}
	return c.agg[m], c.counts, nil
}

// readRange is a point read of r's view over [fromN, toN): it returns one
// run holding every row in the range, at the run's rows [lo, hi). The
// timestamps decode from the restart before the range's first span
// through its last, and the asked channels from the restart at or before
// the first row in range through the last. Only a sealed block the range
// covers in part seeks through its restart index; every other view reads
// from row 0, so reads covering whole blocks never build an index.
func (r *blockReader) readRange(fromN, toN int64, cols colSet, ar *scanArena) (run *blockRun, lo, hi int, err error) {
	end := r.rows
	b := r.bv.sealed
	partial := b != nil && (fromN > b.minT || toN <= b.maxT)
	if partial {
		idx, err := b.index()
		if err != nil {
			return run, 0, 0, err
		}
		var r0 int
		r0, end = idx.rows(fromN, toN, b.count)
		if err := r.seek(r0, cols|colTimes); err != nil {
			return run, 0, 0, err
		}
	}
	if run, err = r.next(end-r.row, colTimes, ar); err != nil {
		return run, 0, 0, err
	}
	lo, hi = searchRange(run.times, fromN, toN)
	if cols&^colTimes == 0 || lo >= hi {
		return run, lo, hi, nil
	}
	// The channels have not moved since the seek to row: they decode from
	// there, or from the restart at or before the first row in range.
	times, row := run.times, run.row
	r.row = row
	if first := (row + lo) / restartStride * restartStride; partial && first > row {
		if err := r.seek(first, cols); err != nil {
			return run, 0, 0, err
		}
	}
	v0 := r.row
	if run, err = r.next(row+hi-v0, cols&^colTimes, ar); err != nil {
		return run, 0, 0, err
	}
	run.times = times[v0-row : hi]
	return run, row + lo - v0, row + hi - v0, nil
}

// readArena is the decode scratch of one point read (Query, Series,
// Aggregate, and each rack of AggregateRacks): a scanArena, the rack's
// snapshot and the views of its blocks in range, and the aggregate's
// per-window accumulators. It comes from readPool and goes back there when
// the read returns, so a warm point read allocates only its result; no
// result handed to a caller may alias arena memory.
type readArena struct {
	scanArena
	snap  snapshot
	views []blockView
	accs  []windowAcc
}

var readPool = sync.Pool{New: func() any { return new(readArena) }}

// pointRead takes an arena from readPool holding sh's snapshot and the
// views of its blocks overlapping [fromN, toN). The caller must release it.
func pointRead(sh *shard, fromN, toN int64) *readArena {
	ar := readPool.Get().(*readArena)
	ar.snap = sh.snapshot()
	ar.views = ar.snap.appendBlocks(ar.views[:0], fromN, toN)
	return ar
}

// release drops the arena's references into the store, so a pooled arena
// pins no block that compaction has since removed, and returns it.
func (ar *readArena) release() {
	clear(ar.views)
	ar.snap = snapshot{}
	readPool.Put(ar)
}
