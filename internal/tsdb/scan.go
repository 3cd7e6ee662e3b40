package tsdb

// The parallel half of the merged scan: scanShards fans a time-range scan
// out across the rack shards through a bounded pool of block-decode
// workers, and the chunk merge (chunk.go) folds the per-shard streams into
// columnar chunks in global timestamp order (ties broken by shard index) —
// the shard-then-merge shape Prometheus' TSDB and Gorilla use for scan
// queries. The design keeps memory bounded by the span, not the block: a
// stream steps its blockReader scanSpan rows at a time, each run from the
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

// scanRun is one decoded, range-clipped run of a shard — at most scanSpan
// rows of one block view: timestamps, all channel columns, and the
// [lo, hi) index window inside them.
type scanRun struct {
	times  []int64
	cols   [sensors.NumMetrics][]float64
	lo, hi int
	tier   envdb.Tier // which storage tier the run decoded from
	err    error
	last   bool // no further runs will follow from this shard
}

// scanSpan is the most rows one run of the merged scan reads from a
// block. It is a whole number of restart spans, so every run but a
// block's last covers whole packGroups and each integer column's decoder
// state carries over to the next run (see decodeIntsPackedFrom). A
// stream's buffers (see arenaPool) then hold (2 × 7 + 6) columns × 512
// rows × 8 B = 80 KiB, 3.8 MiB for a 48-rack hall, whatever the
// partition length; a 30-day block of 8,640 rows decoded whole held 17
// times the decoded columns. BenchmarkScan chose 512 over 1,024: as fast
// warm, and half the allocation when the pooled buffers are gone.
const scanSpan = 2 * restartStride

// scanBuffers is the memory arenaPool recycles across scans, so repeated
// scans — the replay/figure pipeline — decode and merge into the same
// buffers: a shard stream's two run arenas or, drawn by a chunk merger,
// its chunk's columns (the first arena's timestamps and floats, plus the
// rack and tier columns). Recycling happens in scanPool.close, strictly
// after the workers have joined, and in chunkMerger.close; neither the
// merge nor the consumer may touch their buffers after that.
type scanBuffers struct {
	arenas [2]scanArena
	racks  []uint16
	tiers  []envdb.Tier
}

// arenaPool's new buffers are cut for scanSpan rows from two allocations:
// both arenas' timestamps plus one set of integers they share, and both
// arenas' floats. A run's integers are converted to its floats before the
// run is handed on, so the next run may decode over them.
var arenaPool = sync.Pool{New: func() any {
	const n = scanSpan
	b := new(scanBuffers)
	ints := make([]int64, (2+sensors.NumMetrics)*n)
	floats := make([]float64, 2*sensors.NumMetrics*n)
	for k := range b.arenas {
		ar := &b.arenas[k]
		ar.times = ints[k*n:][:n:n]
		for m := range ar.cols {
			ar.ints[m] = ints[(2+m)*n:][:n:n]
			ar.cols[m] = floats[(k*len(ar.cols)+m)*n:][:n:n]
		}
	}
	return b
}}

// shardStream is one shard's portion of a fanned-out scan: an
// order-preserving stream of decoded runs produced by the pool's workers
// against the shard's point-in-time snapshot. Streams are created by
// scanShards and consumed by the chunk merge.
type shardStream struct {
	rackCode   uint16 // packed rack identity (topology.RackID.Code)
	loc        *time.Location
	fromN, toN int64
	pool       *scanPool

	// nextBlock and the block state below are advanced only by the worker
	// currently serving this stream's request; the one-outstanding-request
	// invariant makes that a single writer at any time.
	blocks    []blockView
	nextBlock int
	rd        blockReader // the stream's place in blocks[nextBlock]
	resCh     chan scanRun
	// The block's traced decode span (nil when the scan is untraced), its
	// rows in range so far and whether it is counted in BlocksDecoded, so
	// the tsdb.scan_block span covers the block however many runs it takes.
	span    *obs.ActiveSpan
	rows    int
	counted bool

	// bufs.arenas double-buffers the decode target: run k decodes into
	// arenas[k&1], so the run the consumer holds (k-1, the other parity)
	// stays intact while its successor decodes. Run k's buffers are
	// reclaimed only for run k+2, whose decode starts strictly after the
	// consumer took run k+1 — and taking run k+1 drops every reference
	// into run k. runSeq counts emitted runs; both are worker-side state
	// under the same single-writer invariant as nextBlock. The buffers
	// come from arenaPool and return there when the scan's pool closes.
	bufs   *scanBuffers
	runSeq uint

	// Consumer-side cursor, touched only by the merge.
	cur  scanRun
	pos  int
	done bool
	err  error
}

// decodeStep produces the stream's next non-empty run, or a terminal
// marker: the next scanSpan rows of the current block, stepped by the
// stream's reader. Every column decodes all of the run's rows, as the next
// run's decode starts where this one ends, but an integer column converts
// to floats only the rows [lo, hi) inside the scan's range; rows outside
// are stale. It runs on a pool worker.
func (st *shardStream) decodeStep() scanRun {
	for st.nextBlock < len(st.blocks) {
		bv := st.blocks[st.nextBlock]
		rd := &st.rd
		if rd.rows == 0 {
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
			rd.reset(bv)
			// Worker-side child span: pool.ctx carries the scan's parent span
			// (threaded through scanShards), so block decodes running on pool
			// goroutines still link into the request's trace. Untraced scans
			// skip the span entirely — no root-trace pollution from the
			// auditor or plain local replays.
			if st.pool.traced {
				_, st.span = obs.Span(st.pool.ctx, "tsdb.scan_block")
			}
		}
		start := time.Now()
		ar := &st.bufs.arenas[st.runSeq&1]
		run, err := rd.next(scanSpan, allCols, ar)
		if err != nil {
			st.endBlock()
			return scanRun{err: err, last: true}
		}
		out := scanRun{times: run.times}
		if bv.down != nil {
			out.tier = envdb.TierDownsampled
		}
		out.lo, out.hi = searchRange(run.times, st.fromN, st.toN)
		for m := range out.cols {
			out.cols[m] = ar.floats(run, m, out.lo, out.hi)
		}
		metScanDecodeDur.ObserveSince(start)
		if out.lo < out.hi {
			st.rows += out.hi - out.lo
			if !st.counted {
				st.counted = true
				metScanBlocks.Inc()
				if st.pool.stats != nil {
					st.pool.stats.BlocksDecoded.Add(1)
				}
			}
		}
		// hi short of the run's end means a row at or past toN: the rest of
		// the block lies past the range, and the next block's bounds end
		// the stream.
		if out.hi < len(run.times) || rd.row == rd.rows {
			st.endBlock()
		}
		if out.lo < out.hi {
			st.runSeq++
			return out
		}
	}
	return scanRun{last: true}
}

// endBlock finishes the stream's current block: its decode span ends and
// the reader waits for the next block.
func (st *shardStream) endBlock() {
	st.endSpan()
	st.rd, st.rows, st.counted = blockReader{}, 0, false
	st.nextBlock++
}

// endSpan ends the current block's tsdb.scan_block span, if one is open.
func (st *shardStream) endSpan() {
	if sp := st.span; sp != nil {
		sp.SetAttr("rows", strconv.Itoa(st.rows))
		sp.End()
		st.span = nil
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
		if st.bufs != nil {
			arenaPool.Put(st.bufs)
			st.bufs = nil
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
			bufs:     arenaPool.Get().(*scanBuffers),
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
