package tsdb

// The parallel half of the merged scan: scanShards fans a time-range scan
// out across the rack shards through a bounded pool of block-decode
// workers, and the chunk merge (chunk.go) folds the per-shard streams into
// columnar chunks in global timestamp order (ties broken by shard index) —
// the shard-then-merge shape Prometheus' TSDB and Gorilla use for scan
// queries. The design keeps memory bounded by the span, not the block: a
// stream decodes a sealed block scanSpan rows at a time, each run from the
// decoder state the last one ended in, and holds at most two decoded runs
// (the one being merged plus one prefetch), however long the block or the
// trace is.
//
// Scheduling is demand-driven: a shard's next run is only decoded when
// a request for it sits in the pool queue, and the merge issues exactly
// one outstanding request per shard (re-armed the moment it takes a
// finished run). Workers therefore never block delivering results —
// every result channel has room by construction — which makes the pool
// deadlock-free for any worker count, including workers < shards.

import (
	"context"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
)

// scanRun is one decoded, range-clipped run of a shard — a span of a
// sealed block, or a whole head, frozen or cold block: timestamps, all
// channel columns, and the [lo, hi) index window inside them.
type scanRun struct {
	times  []int64
	cols   [sensors.NumMetrics][]float64
	lo, hi int
	tier   envdb.Tier // which storage tier the run decoded from
	err    error
	last   bool // no further runs will follow from this shard
}

// scanArena is one reusable set of decode buffers: the target of a merged
// scan's span runs (each shardStream owns two, see shardStream.arenas,
// each at most scanSpan rows) and, inside readArena, of a point read's
// block decodes.
type scanArena struct {
	times []int64
	ints  []int64 // quantized-integer scratch shared across the six channels
	cols  [sensors.NumMetrics][]float64
}

// timestamps decodes bv's timestamp column, into the arena when bv is
// sealed. Only a sealed view's decode is adopted as the arena's buffer: a
// raw view (head prefix or frozen block) aliases live columns that a later
// decode into the arena would overwrite, and a cold view decodes fresh.
func (ar *scanArena) timestamps(bv blockView) ([]int64, error) {
	if bv.sealed == nil {
		return bv.timestamps()
	}
	ts, err := bv.sealed.decodeTimesArena(ar.times, nil, 0, bv.sealed.count)
	if err == nil {
		ar.times = ts
	}
	return ts, err
}

// column decodes bv's channel m under the same adoption rule. Only rows
// [lo, hi) of the result are valid: a sealed integer column converts just
// those, and with a restart index decodes only from the restart at or
// before lo (see decodeChannelArena).
func (ar *scanArena) column(bv blockView, m sensors.Metric, lo, hi int, idx *restartIndex) ([]float64, error) {
	if bv.sealed == nil {
		return bv.channel(m)
	}
	col, ints, err := bv.sealed.decodeChannelArena(m, lo, hi, ar.cols[m], ar.ints, idx)
	if err == nil {
		ar.cols[m], ar.ints = col, ints
	}
	return col, err
}

// readArena is the decode scratch of one point read (Query, Series,
// Aggregate, and each rack of AggregateRacks): a scanArena, the rack's
// snapshot and the views of its blocks in range, and the windowed
// aggregate's integer sums. It comes from readPool and goes back there when
// the read returns, so a warm point read allocates only its result; no
// result handed to a caller may alias arena memory.
type readArena struct {
	scanArena
	snap  snapshot
	views []blockView
	sums  []int64
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

// pointSpan is what a point read decodes of one block view: the view's
// timestamps, valid on the rows [lo, hi) that fall in the read's range,
// and the restart index the columns of those rows decode from (nil: from
// the stream head).
type pointSpan struct {
	bv     blockView
	ts     []int64
	lo, hi int
	idx    *restartIndex
}

// span decodes the timestamps a point read of [fromN, toN) needs from bv.
// A sealed block the range covers only in part decodes just the spans of
// its restart index that overlap the range, building the index on the
// block's first such read; a sealed block the range covers whole, and
// every other view, decodes as the scan does and never touches the index.
func (ar *readArena) span(bv blockView, fromN, toN int64) (pointSpan, error) {
	sp := pointSpan{bv: bv}
	b := bv.sealed
	if b == nil || fromN <= b.minT && toN > b.maxT {
		ts, err := ar.timestamps(bv)
		if err != nil {
			return sp, err
		}
		sp.ts = ts
		sp.lo, sp.hi = searchRange(ts, fromN, toN)
		return sp, nil
	}
	idx, err := b.index()
	if err != nil {
		return sp, err
	}
	r0, r1 := idx.rows(fromN, toN, b.count)
	ts, err := b.decodeTimesArena(ar.times, idx, r0, r1)
	if err != nil {
		return sp, err
	}
	ar.times = ts
	lo, hi := searchRange(ts[r0:r1], fromN, toN)
	sp.ts, sp.lo, sp.hi, sp.idx = ts, r0+lo, r0+hi, idx
	return sp, nil
}

// values decodes channel m of sp's view; only rows [sp.lo, sp.hi) of the
// result are valid.
func (ar *readArena) values(sp pointSpan, m sensors.Metric) ([]float64, error) {
	return ar.column(sp.bv, m, sp.lo, sp.hi, sp.idx)
}

// quantized decodes the integers of sp's sealed encIntPacked column m into
// the arena; only rows [sp.lo, sp.hi) of the result are valid.
func (ar *readArena) quantized(sp pointSpan, m sensors.Metric) ([]int64, error) {
	ints, err := sp.bv.sealed.decodeIntsArena(m, sp.lo, sp.hi, ar.ints, sp.idx)
	if err == nil {
		ar.ints = ints
	}
	return ints, err
}

// release drops the arena's references into the store, so a pooled arena
// pins no block that compaction has since removed, and returns it.
func (ar *readArena) release() {
	clear(ar.views)
	ar.snap = snapshot{}
	readPool.Put(ar)
}

// scanSpan is the most rows one run of the merged scan decodes from a
// sealed block. It is a whole number of restart spans, so every run but a
// block's last covers whole packGroups and each integer column's decoder
// state carries over to the next run (see decodeIntsPackedFrom). A
// stream's two runs then hold 2 × 8 columns × 512 rows × 8 B = 64 KiB
// decoded, 3 MiB for a 48-rack hall, whatever the partition length; a
// 30-day block of 8,640 rows decoded whole held 17 times that. BenchmarkScan
// chose 512 over 1,024: as fast warm, and half the allocation when the
// pooled buffers are gone.
const scanSpan = 2 * restartStride

// arenaPool recycles arena pairs across scans, so repeated scans — the
// replay/figure pipeline — decode into the same span-sized buffers.
// Recycling happens in scanPool.close, strictly after the workers have
// joined; the merge must not touch run buffers after that
// (chunkMerger.close).
var arenaPool = sync.Pool{New: func() any { return new([2]scanArena) }}

// blockCursor is a stream's place in the block it is decoding: the next
// row and, for a sealed block, the decoder state of each of its streams
// before that row (the zero value is a block's head). The block's traced
// decode span and its rows in range so far live here too, so the
// tsdb.scan_block span covers the block however many runs it takes.
type blockCursor struct {
	row   int
	times timeState
	ints  [sensors.NumMetrics]packState // encIntPacked columns
	xor   [sensors.NumMetrics]xorState  // encXOR columns

	span    *obs.ActiveSpan // nil when the scan is untraced
	rows    int             // rows in range decoded so far
	counted bool            // the block is counted in BlocksDecoded
}

// shardStream is one shard's portion of a fanned-out scan: an
// order-preserving stream of decoded runs produced by the pool's workers
// against the shard's point-in-time snapshot. Streams are created by
// scanShards and consumed by the chunk merge.
type shardStream struct {
	rackCode   uint16 // packed rack identity (topology.RackID.Code)
	loc        *time.Location
	fromN, toN int64
	pool       *scanPool

	// nextBlock and cursor are advanced only by the worker currently
	// serving this stream's request; the one-outstanding-request invariant
	// makes that a single writer at any time.
	blocks    []blockView
	nextBlock int
	cursor    blockCursor
	resCh     chan scanRun

	// arenas double-buffers the decode target: run k decodes into
	// arenas[k&1], so the run the consumer holds (k-1, the other parity)
	// stays intact while its successor decodes. Run k's buffers are
	// reclaimed only for run k+2, whose decode starts strictly after the
	// consumer took run k+1 — and taking run k+1 drops every reference
	// into run k. runSeq counts emitted runs; both are worker-side state
	// under the same single-writer invariant as nextBlock. The pair comes
	// from arenaPool and returns there when the scan's pool closes.
	arenas *[2]scanArena
	runSeq uint

	// Consumer-side cursor, touched only by the merge.
	cur  scanRun
	pos  int
	done bool
	err  error
}

// decodeStep produces the stream's next non-empty run, or a terminal
// marker. It runs on a pool worker.
func (st *shardStream) decodeStep() scanRun {
	for st.nextBlock < len(st.blocks) {
		bv := st.blocks[st.nextBlock]
		c := &st.cursor
		if c.row == 0 {
			minT, maxT := bv.bounds()
			if minT >= st.toN {
				// Blocks are time-ordered, so every later block starts past the
				// range too: the stream is done, no per-block tail check needed.
				return scanRun{last: true}
			}
			if maxT < st.fromN {
				st.nextBlock++
				continue
			}
			// Worker-side child span: pool.ctx carries the scan's parent span
			// (threaded through scanShards), so block decodes running on pool
			// goroutines still link into the request's trace. Untraced scans
			// skip the span entirely — no root-trace pollution from the
			// auditor or plain local replays.
			if st.pool.traced {
				_, c.span = obs.Span(st.pool.ctx, "tsdb.scan_block")
			}
		}
		start := time.Now()
		ar := &st.arenas[st.runSeq&1]
		var (
			run scanRun
			n   int // rows of the block the run covers
			err error
		)
		if bv.sealed != nil {
			run, n, err = st.spanRun(bv.sealed, ar)
		} else {
			run, n, err = st.viewRun(bv)
		}
		if err != nil {
			st.endBlock()
			return scanRun{err: err, last: true}
		}
		metScanDecodeDur.ObserveSince(start)
		c.row += n
		if run.lo < run.hi {
			c.rows += run.hi - run.lo
			if !c.counted {
				c.counted = true
				metScanBlocks.Inc()
				if st.pool.stats != nil {
					st.pool.stats.BlocksDecoded.Add(1)
				}
			}
		}
		// hi short of the run's end means a row at or past toN: the rest of
		// the block lies past the range, and the next block's bounds end
		// the stream.
		if run.hi < n || bv.sealed == nil || c.row == bv.sealed.count {
			st.endBlock()
		}
		if run.lo < run.hi {
			st.runSeq++
			return run
		}
	}
	return scanRun{last: true}
}

// spanRun decodes the next span of sealed block b — at most scanSpan rows
// after the cursor — into ar and moves the cursor's decoder states past it;
// n is the span's row count. Every column decodes all n rows, as the next
// span's decode starts where this one ends, but an integer column converts
// to floats only the rows [lo, hi) inside the scan's range; rows outside
// are stale. A span wholly past the range decodes only its timestamps.
func (st *shardStream) spanRun(b *sealedBlock, ar *scanArena) (run scanRun, n int, err error) {
	c := &st.cursor
	n = min(scanSpan, b.count-c.row)
	if c.row == 0 {
		metDecode.Add(1 + uint64(sensors.NumMetrics))
	}
	ts := int64Slice(ar.times, n)
	ar.times = ts
	if c.times, err = decodeTimesFrom(ts, b.times, c.times); err != nil {
		return run, n, b.wrap("timestamps", err)
	}
	run.times = ts
	run.lo, run.hi = searchRange(ts, st.fromN, st.toN)
	if run.lo >= run.hi && run.hi < n {
		return run, n, nil
	}
	for m, ch := range b.ch {
		col := float64Slice(ar.cols[m], n)
		ar.cols[m], run.cols[m] = col, col
		if ch.enc == encXOR {
			if c.xor[m], err = decodeXORFrom(col, ch.data, c.xor[m]); err != nil {
				return run, n, b.wrap(sensors.Metric(m).String(), err)
			}
			continue
		}
		ints := int64Slice(ar.ints, n)
		ar.ints = ints
		if c.ints[m], err = decodeIntsPackedFrom(ints, ch.data, c.ints[m]); err != nil {
			return run, n, b.wrap(sensors.Metric(m).String(), err)
		}
		for i, v := range ints[run.lo:run.hi] {
			col[run.lo+i] = float64(v) / ch.scale
		}
	}
	return run, n, nil
}

// viewRun is a head, frozen or cold block as one run: raw columns alias
// the view's live columns, a cold block decodes fresh (its window counts
// once for all channels).
func (st *shardStream) viewRun(bv blockView) (run scanRun, n int, err error) {
	if run.times, err = bv.timestamps(); err != nil {
		return run, 0, err
	}
	if bv.down != nil {
		run.tier = envdb.TierDownsampled
	}
	run.lo, run.hi = searchRange(run.times, st.fromN, st.toN)
	if run.lo < run.hi {
		err = bv.channels(&run.cols)
	}
	return run, len(run.times), err
}

// endBlock finishes the stream's current block: its decode span ends and
// the cursor moves to the head of the next block.
func (st *shardStream) endBlock() {
	st.endSpan()
	st.cursor = blockCursor{}
	st.nextBlock++
}

// endSpan ends the current block's tsdb.scan_block span, if one is open.
func (st *shardStream) endSpan() {
	if sp := st.cursor.span; sp != nil {
		sp.SetAttr("rows", strconv.Itoa(st.cursor.rows))
		sp.End()
		st.cursor.span = nil
	}
}

// advanceRun blocks until the stream's next run is decoded, then re-arms
// the prefetch request so the following run decodes while this one is
// consumed. It returns false when the stream is exhausted or failed.
func (st *shardStream) advanceRun() bool {
	if st.done {
		return false
	}
	wait := time.Now()
	run := <-st.resCh
	metScanStallDur.ObserveSince(wait)
	if run.err != nil {
		st.err, st.done = run.err, true
		return false
	}
	if run.last {
		st.done = true
		return false
	}
	st.pool.request(st)
	st.cur, st.pos = run, run.lo
	return true
}

func (st *shardStream) curTime() int64 { return st.cur.times[st.pos] }

// scanPool is the bounded worker pool one scanShards call shares across
// its shard streams.
type scanPool struct {
	reqCh   chan *shardStream
	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	streams []*shardStream // for arena recycling at close

	// Request-scoped observability, set before the first request is armed
	// (the channel send publishes the fields to the workers): the scan's
	// context (carrying the parent span for worker-side child spans), its
	// per-request counters, and whether the context is traced at all.
	ctx    context.Context
	stats  *envdb.ScanStats
	traced bool
}

func newScanPool(workers, streams int) *scanPool {
	p := &scanPool{
		// One outstanding request per stream means the queue never fills.
		reqCh: make(chan *shardStream, streams),
		quit:  make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for {
				select {
				case st := <-p.reqCh:
					run := st.decodeStep()
					// resCh has room by construction; the quit arm only
					// matters if the consumer abandoned the scan.
					select {
					case st.resCh <- run:
					case <-p.quit:
						return
					}
				case <-p.quit:
					return
				}
			}
		}()
	}
	return p
}

func (p *scanPool) request(st *shardStream) {
	select {
	case p.reqCh <- st:
	case <-p.quit:
	}
}

// close stops the workers and waits for them to exit, then ends the decode
// span of every block a stopped scan left part-decoded and hands every
// stream's arena pair back to arenaPool; safe to call twice. Run buffers
// (shardStream.cur) must not be read after close — they may already be
// decoding another scan's blocks.
func (p *scanPool) close() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
	for _, st := range p.streams {
		st.endSpan()
		if st.arenas != nil {
			arenaPool.Put(st.arenas)
			st.arenas = nil
		}
	}
}

// normWorkers clamps a requested worker count: <= 0 selects GOMAXPROCS,
// and more workers than shards would only idle.
func normWorkers(workers, streams int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > streams {
		workers = streams
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// scanShards snapshots every shard and starts a pool of `workers` decode
// workers (<= 0 selects GOMAXPROCS) fanning out over them, returning one
// order-preserving stream per shard for records in [from, to). ctx's
// active span parents the workers' block-decode spans and its scan
// counters (envdb.ScanStatsFrom) accumulate the scan's work. The streams
// must be consumed by a chunkMerger, whose close releases the pool.
func (s *Store) scanShards(ctx context.Context, from, to time.Time, workers int) []*shardStream {
	s.init()
	workers = normWorkers(workers, len(s.shards))
	metScanWorkers.Set(float64(workers))
	pool := newScanPool(workers, len(s.shards))
	pool.ctx = ctx
	pool.stats = envdb.ScanStatsFrom(ctx)
	_, pool.traced = obs.SpanContextFrom(ctx)
	fromN, toN := from.UnixNano(), to.UnixNano()
	loc := s.location()
	streams := make([]*shardStream, len(s.shards))
	for i := range streams {
		// Every block goes in the stream: decodeStep clips to the range
		// and ends the stream at the first block past it.
		snap := s.shards[i].snapshot()
		streams[i] = &shardStream{
			rackCode: s.fleet.RackAt(i).Code(),
			loc:      loc,
			fromN:    fromN,
			toN:      toN,
			pool:     pool,
			blocks:   snap.appendBlocks(nil, math.MinInt64, math.MaxInt64),
			resCh:    make(chan scanRun, 1),
			arenas:   arenaPool.Get().(*[2]scanArena),
		}
	}
	pool.streams = streams
	// Arm every stream's first request only after all are constructed, so
	// workers see fully-built streams.
	for _, st := range streams {
		pool.request(st)
	}
	return streams
}
