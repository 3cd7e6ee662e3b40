package tsdb

// The parallel query layer: ScanShards fans a time-range scan out across
// the 48 rack shards through a bounded pool of block-decode workers, and
// MergeByTime folds the per-shard streams into one iterator that yields
// records in global timestamp order (ties broken by rack index) — the
// shard-then-merge shape Prometheus' TSDB and Gorilla use for scan
// queries. The design keeps memory bounded: each shard has at most two
// decoded runs resident (the one being merged plus one prefetch), however
// long the trace is.
//
// Scheduling is demand-driven: a shard's next block is only decoded when
// a request for it sits in the pool queue, and the merge iterator issues
// exactly one outstanding request per shard (re-armed the moment it takes
// a finished run). Workers therefore never block delivering results —
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
	"mira/internal/topology"
)

// scanRun is one decoded, range-clipped block of a shard: timestamps, all
// channel columns, and the [lo, hi) index window inside them.
type scanRun struct {
	times  []int64
	cols   [sensors.NumMetrics][]float64
	lo, hi int
	tier   envdb.Tier // which storage tier the run decoded from
	err    error
	last   bool // no further runs will follow from this shard
}

// BlockPredicate decides from a sealed block's per-channel zone maps
// whether the block could contain matching records; returning false prunes
// the block from the scan without decoding a single payload byte.
// Predicates must be conservative: a zone with NaN bounds is unusable (the
// channel holds NaN values, so the range proves nothing) and must not
// prune, and blocks without zones (head, frozen, cold tier) are always
// scanned.
type BlockPredicate func(zones *[sensors.NumMetrics]ZoneMap) bool

// scanArena is one reusable set of decode buffers. Each ShardStream owns
// two (see ShardStream.arenas), so after the first two runs a scan's
// steady state decodes with zero allocations.
type scanArena struct {
	times []int64
	ints  []int64 // quantized-integer scratch shared across the six channels
	cols  [sensors.NumMetrics][]float64
}

// arenaPool recycles arena pairs across scans: a full-store scan is brief
// but its decode buffers are not small (two runs' worth of eight columns
// per shard), so handing them back at pool close makes repeated scans —
// the replay/figure pipeline — allocation-free instead of megabytes per
// pass. Recycling happens in scanPool.close, strictly after the workers
// have joined; consumers must not touch run buffers after that (Close).
var arenaPool = sync.Pool{New: func() any { return new([2]scanArena) }}

// ShardStream is one shard's portion of a fanned-out scan: an
// order-preserving stream of decoded runs produced by the pool's workers
// against the shard's point-in-time snapshot. Streams are created by
// ScanShards and consumed by MergeByTime.
type ShardStream struct {
	rack       topology.RackID
	rackIdx    int    // fleet-wide shard index: the merge tie-break key
	rackCode   uint16 // packed wire identity (topology.RackID.Code)
	loc        *time.Location
	fromN, toN int64
	pool       *scanPool
	pred       BlockPredicate

	// nextBlock is advanced only by the worker currently serving this
	// stream's request; the one-outstanding-request invariant makes that a
	// single writer at any time.
	blocks    []blockView
	nextBlock int
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

	// Consumer-side cursor, touched only by the merge iterator.
	cur  scanRun
	pos  int
	done bool
	err  error
}

// decodeStep produces the stream's next non-empty run, or a terminal
// marker. It runs on a pool worker.
func (st *ShardStream) decodeStep() scanRun {
	for ; st.nextBlock < len(st.blocks); st.nextBlock++ {
		bv := st.blocks[st.nextBlock]
		minT, maxT := bv.bounds()
		if minT >= st.toN {
			// Blocks are time-ordered, so every later block starts past the
			// range too: the stream is done, no per-block tail check needed.
			return scanRun{last: true}
		}
		if maxT < st.fromN {
			continue
		}
		if st.pred != nil {
			if sb := bv.sealed; sb != nil && !st.pred(&sb.zones) {
				metScanPruned.Inc()
				if st.pool.stats != nil {
					st.pool.stats.BlocksPruned.Add(1)
				}
				continue
			}
		}
		start := time.Now()
		// Worker-side child span: pool.ctx carries the scan's parent span
		// (threaded through ScanShardsCtx), so block decodes running on
		// pool goroutines still link into the request's trace. Untraced
		// scans skip the span entirely — no root-trace pollution from the
		// auditor or plain local replays.
		var sp *obs.ActiveSpan
		if st.pool.traced {
			_, sp = obs.Span(st.pool.ctx, "tsdb.scan_block")
		}
		ar := &st.arenas[st.runSeq&1]
		times, err := bv.timestampsArena(ar.times)
		if err != nil {
			sp.End()
			return scanRun{err: err, last: true}
		}
		if bv.sealed != nil {
			ar.times = times
		}
		lo, hi := searchRange(times, st.fromN, st.toN)
		if lo >= hi {
			sp.End()
			continue
		}
		run := scanRun{times: times, lo: lo, hi: hi}
		if bv.down != nil {
			run.tier = envdb.TierDownsampled
		}
		for m := range run.cols {
			col, scratch, err := bv.channelArena(sensors.Metric(m), ar.cols[m], ar.ints)
			if err != nil {
				sp.End()
				return scanRun{err: err, last: true}
			}
			run.cols[m] = col
			if bv.sealed != nil {
				ar.cols[m], ar.ints = col, scratch
			}
		}
		metScanBlocks.Inc()
		if st.pool.stats != nil {
			st.pool.stats.BlocksDecoded.Add(1)
		}
		metScanDecodeDur.ObserveSince(start)
		sp.SetAttr("rows", strconv.Itoa(hi-lo))
		sp.End()
		st.nextBlock++
		st.runSeq++
		return run
	}
	return scanRun{last: true}
}

// advanceRun blocks until the stream's next run is decoded, then re-arms
// the prefetch request so the following run decodes while this one is
// consumed. It returns false when the stream is exhausted or failed.
func (st *ShardStream) advanceRun() bool {
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

func (st *ShardStream) curTime() int64 { return st.cur.times[st.pos] }

// scanPool is the bounded worker pool one ScanShards call shares across
// its shard streams.
type scanPool struct {
	reqCh   chan *ShardStream
	quit    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	streams []*ShardStream // for arena recycling at close

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
		reqCh: make(chan *ShardStream, streams),
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

func (p *scanPool) request(st *ShardStream) {
	select {
	case p.reqCh <- st:
	case <-p.quit:
	}
}

// close stops the workers and waits for them to exit, then hands every
// stream's arena pair back to arenaPool; safe to call twice. Run buffers
// (ShardStream.cur) must not be read after close — they may already be
// decoding another scan's blocks.
func (p *scanPool) close() {
	p.once.Do(func() { close(p.quit) })
	p.wg.Wait()
	for _, st := range p.streams {
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

// ScanShards snapshots every shard and starts a pool of `workers` decode
// workers (<= 0 selects GOMAXPROCS) fanning out over them, returning one
// order-preserving stream per shard for records in [from, to). The
// streams must be consumed — and eventually Closed — through
// MergeByTime; most callers want EachRecordMerged instead.
func (s *Store) ScanShards(from, to time.Time, workers int) []*ShardStream {
	return s.ScanShardsWhereCtx(context.Background(), from, to, workers, nil)
}

// ScanShardsCtx is ScanShards threading a request context into the worker
// pool: block decodes become child spans of the context's active span and
// scan counters (envdb.ScanStatsFrom) accumulate the request's work.
func (s *Store) ScanShardsCtx(ctx context.Context, from, to time.Time, workers int) []*ShardStream {
	return s.ScanShardsWhereCtx(ctx, from, to, workers, nil)
}

// ScanShardsWhere is ScanShards with zone-map pruning: sealed blocks whose
// per-channel zones fail pred are skipped without decoding. pred runs on
// pool workers, so it must be safe for concurrent calls; nil scans
// everything.
func (s *Store) ScanShardsWhere(from, to time.Time, workers int, pred BlockPredicate) []*ShardStream {
	return s.ScanShardsWhereCtx(context.Background(), from, to, workers, pred)
}

// ScanShardsWhereCtx combines ScanShardsCtx and ScanShardsWhere.
func (s *Store) ScanShardsWhereCtx(ctx context.Context, from, to time.Time, workers int, pred BlockPredicate) []*ShardStream {
	s.init()
	if ctx == nil {
		ctx = context.Background()
	}
	workers = normWorkers(workers, len(s.shards))
	metScanWorkers.Set(float64(workers))
	pool := newScanPool(workers, len(s.shards))
	pool.ctx = ctx
	pool.stats = envdb.ScanStatsFrom(ctx)
	_, pool.traced = obs.SpanContextFrom(ctx)
	fromN, toN := from.UnixNano(), to.UnixNano()
	loc := s.location()
	streams := make([]*ShardStream, len(s.shards))
	for i := range streams {
		snap := s.shards[i].snapshot()
		rack := s.fleet.RackAt(i)
		streams[i] = &ShardStream{
			rack:     rack,
			rackIdx:  i,
			rackCode: rack.Code(),
			loc:      loc,
			fromN:    fromN,
			toN:      toN,
			pool:     pool,
			pred:     pred,
			blocks:   snap.blocks(),
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

// MergeIter yields the records of a fanned-out scan in global
// (timestamp, rack) order via a k-way heap merge over the shard streams.
// Call Close when done (Next does it on normal exhaustion); check Err
// after the final Next.
type MergeIter struct {
	pool    *scanPool
	pending []*ShardStream // streams not yet admitted to the heap
	h       streamHeap
	// (boundT, boundRack) caches the smallest key among the non-top heap
	// entries — min(h[1], h[2]), which bounds every other entry by the heap
	// property. While the top stream's next record stays below it, Next
	// emits straight out of the run without touching the heap, so a stream
	// that is ahead of the others (sparse racks, disjoint time ranges)
	// costs one compare per record instead of a heap fix. Fully interleaved
	// tick-aligned data crosses the boundary every record and keeps the
	// old per-record fix; the chunked path (EachChunkMerged) is the fast
	// lane for that shape.
	boundT    int64
	boundRack int
	cur       sensors.Record
	curTier   envdb.Tier
	merged    uint64
	err       error
	closed    bool
}

// MergeByTime merges the shard streams of one ScanShards call into a
// single time-ordered iterator. Only one decoded run per shard (plus one
// prefetch) is ever resident, so a full-store merge over years of
// telemetry needs O(shards) memory, not O(trace).
func MergeByTime(streams []*ShardStream) *MergeIter {
	it := &MergeIter{pending: streams}
	if len(streams) > 0 {
		it.pool = streams[0].pool
	}
	return it
}

// Next advances to the next record in global time order; false when the
// scan is exhausted, failed (see Err), or closed.
func (it *MergeIter) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if it.pending != nil {
		// First call: admit every stream's first run. The waits overlap —
		// all streams were armed at ScanShards time, so workers are already
		// decoding ahead of this loop.
		for _, st := range it.pending {
			if st.advanceRun() {
				it.h = append(it.h, st)
			} else if st.err != nil {
				it.fail(st.err)
				return false
			}
		}
		it.pending = nil
		it.h.init()
		it.rebound()
	} else if len(it.h) > 0 {
		st := it.h[0]
		st.pos++
		if st.pos < st.cur.hi {
			if t := st.cur.times[st.pos]; t < it.boundT || (t == it.boundT && st.rackIdx < it.boundRack) {
				// Still the global minimum: emit without a heap fix.
			} else {
				it.h.fix()
				it.rebound()
			}
		} else if st.advanceRun() {
			it.h.fix()
			it.rebound()
		} else if st.err != nil {
			it.fail(st.err)
			return false
		} else {
			it.h.popTop()
			it.rebound()
		}
	}
	if len(it.h) == 0 {
		it.Close()
		return false
	}
	top := it.h[0]
	it.cur = recordAt(top.rack, top.loc, top.cur.times[top.pos], &top.cur.cols, top.pos)
	it.curTier = top.cur.tier
	it.merged++
	return true
}

// Record returns the record at the cursor; valid after Next returns true.
func (it *MergeIter) Record() sensors.Record { return it.cur }

// Tier reports which storage tier the current record came from: TierRaw
// for full-rate samples, TierDownsampled for cold-tier window records
// (timestamped at the window start, valued at the window mean).
func (it *MergeIter) Tier() envdb.Tier { return it.curTier }

// Err reports the first shard decode failure, nil on a clean scan.
func (it *MergeIter) Err() error { return it.err }

func (it *MergeIter) fail(err error) {
	it.err = err
	it.Close()
}

// rebound recomputes the cached second-best key after any heap mutation.
// Every non-top entry is a descendant of h[1] or h[2], so min(h[1], h[2])
// bounds them all.
func (it *MergeIter) rebound() {
	h := it.h
	if len(h) < 2 {
		it.boundT, it.boundRack = math.MaxInt64, int(^uint(0)>>1)
		return
	}
	it.boundT, it.boundRack = h[1].curTime(), h[1].rackIdx
	if len(h) > 2 {
		if t, r := h[2].curTime(), h[2].rackIdx; t < it.boundT || (t == it.boundT && r < it.boundRack) {
			it.boundT, it.boundRack = t, r
		}
	}
}

// Close releases the scan's worker pool; idempotent. Next calls it
// automatically on exhaustion or error, so explicit Close only matters
// for early abandonment.
func (it *MergeIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	metScanRecords.Add(it.merged)
	if it.pool != nil && it.pool.stats != nil {
		it.pool.stats.Records.Add(int64(it.merged))
	}
	it.merged = 0
	if it.pool != nil {
		it.pool.close()
	}
}

// streamHeap is a binary min-heap of shard streams ordered by
// (current timestamp, rack index) — the rack tie-break makes the merged
// order deterministic and equal to the rack-major visit order within one
// tick.
type streamHeap []*ShardStream

func (h streamHeap) less(a, b *ShardStream) bool {
	ta, tb := a.curTime(), b.curTime()
	if ta != tb {
		return ta < tb
	}
	return a.rackIdx < b.rackIdx
}

func (h streamHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// fix restores heap order after the root's key grew (its stream advanced).
func (h streamHeap) fix() { h.down(0) }

func (h *streamHeap) popTop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 1 {
		h.down(0)
	}
}

func (h streamHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		min := l
		if r := l + 1; r < len(h) && h.less(h[r], h[l]) {
			min = r
		}
		if !h.less(h[min], h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

var (
	_ envdb.ShardScanner       = (*Store)(nil)
	_ envdb.TierScanner        = (*Store)(nil)
	_ envdb.ContextTierScanner = (*Store)(nil)
)

// EachRecordMerged implements envdb.ShardScanner: it visits every stored
// record in global (timestamp, rack) order, decoding shards in parallel
// on `workers` goroutines (<= 0 selects GOMAXPROCS) while the visit
// itself stays single-threaded and in order. The scan runs against
// per-shard snapshots, so concurrent appends proceed untouched. It stops
// early when f returns false and returns the first decode failure instead
// of panicking — unlike EachRecord, this surface is also meant for
// streaming over segment-loaded stores.
func (s *Store) EachRecordMerged(workers int, f func(sensors.Record) bool) error {
	return s.EachRecordMergedTier(workers, func(r sensors.Record, _ envdb.Tier) bool {
		return f(r)
	})
}

// EachRecordMergedTier implements envdb.TierScanner: EachRecordMerged with
// each record's storage tier, so callers can route full-rate replay logic
// over the hot window only while still seeing the cold tier's window
// records (one mean-valued record per compaction window).
func (s *Store) EachRecordMergedTier(workers int, f func(sensors.Record, envdb.Tier) bool) error {
	return s.EachRecordMergedTierCtx(context.Background(), workers, f)
}

// EachRecordMergedTierCtx implements envdb.ContextTierScanner: the merged
// scan as a child span of ctx's trace, with block decodes on the worker
// pool linked under it and the request's scan counters updated.
func (s *Store) EachRecordMergedTierCtx(ctx context.Context, workers int, f func(sensors.Record, envdb.Tier) bool) error {
	ctx, span := obs.Span(ctx, "tsdb.scan_merged")
	defer span.End()
	st := envdb.ScanStatsFrom(ctx)
	if st == nil {
		st = new(envdb.ScanStats)
		ctx = envdb.ContextWithScanStats(ctx, st)
	}
	defer func() {
		span.SetAttr("rows", strconv.FormatInt(st.Records.Load(), 10))
		span.SetAttr("blocks", strconv.FormatInt(st.BlocksDecoded.Load(), 10))
		span.SetAttr("pruned", strconv.FormatInt(st.BlocksPruned.Load(), 10))
	}()
	defer metQueryDur.With(opScanMerged).ObserveSince(time.Now())
	it := MergeByTime(s.ScanShardsCtx(ctx, time.Unix(0, minTime), time.Unix(0, maxTime), workers))
	defer it.Close()
	for it.Next() {
		if !f(it.Record(), it.Tier()) {
			break
		}
	}
	return it.Err()
}
