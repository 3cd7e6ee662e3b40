package tsdb

// The merged scan: EachChunkMergedCtx delivers every stored record in
// global (timestamp, shard) order as columnar chunks, built a merge
// *round* at a time. Each round finds the minimum timestamp t0 across the
// shard streams and the next distinct timestamp after it; if one stream
// alone holds t0 it bulk-copies every record below that boundary (a whole
// run on disjoint shards), and if several streams tie at t0 — the common
// shape for tick-aligned telemetry — each emits its t0 records in shard
// order. Either way the copy is a tight per-run loop with no heap
// maintenance: the decode workers pipeline against this merge loop, and
// neither does per-record bookkeeping.

import (
	"context"
	"math"
	"strconv"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
)

// chunkTargetRows is the fill target of one chunk: small enough that a
// chunk's columns stay cache-resident for the consumer, large enough to
// amortize the callback. Rounds are indivisible, so a chunk may overshoot
// by up to one round.
const chunkTargetRows = 4096

var _ envdb.ContextTierScanner = (*Store)(nil)

// EachChunkMergedCtx implements envdb.DB: the whole store in global
// (timestamp, shard) order as reused columnar chunks; EachChunkInRange
// over every representable instant.
func (s *Store) EachChunkMergedCtx(ctx context.Context, workers int, f func(*envdb.Chunk) bool) error {
	return s.EachChunkInRange(ctx, time.Unix(0, minTime), time.Unix(0, maxTime), workers, f)
}

// EachChunkInRange is the merged scan over records with timestamps in
// [from, to): shards decode in parallel on `workers` goroutines (<= 0
// selects GOMAXPROCS) while the chunk assembly stays single-threaded, so
// the row order is deterministic whatever the worker count. The scan runs
// against per-shard snapshots, so concurrent appends proceed untouched; it
// stops early when f returns false and returns the first decode failure.
//
// Under a traced ctx the scan is a "tsdb.scan_chunked" child span with the
// workers' block decodes linked under it; an untraced scan (the
// incremental auditor's) starts no span at all. ctx's scan counters
// (envdb.ScanStatsFrom) accumulate the rows and blocks either way.
func (s *Store) EachChunkInRange(ctx context.Context, from, to time.Time, workers int, f func(*envdb.Chunk) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	defer metQueryDur.With(opScanChunked).ObserveSince(time.Now())
	if _, traced := obs.SpanContextFrom(ctx); traced {
		var span *obs.ActiveSpan
		ctx, span = obs.Span(ctx, "tsdb.scan_chunked")
		defer span.End()
		st := envdb.ScanStatsFrom(ctx)
		if st == nil {
			st = new(envdb.ScanStats)
			ctx = envdb.ContextWithScanStats(ctx, st)
		}
		defer func() {
			span.SetAttr("rows", strconv.FormatInt(st.Records.Load(), 10))
			span.SetAttr("blocks", strconv.FormatInt(st.BlocksDecoded.Load(), 10))
		}()
	}
	cm := chunkMerger{streams: s.scanShards(ctx, from, to, workers)}
	if len(cm.streams) > 0 {
		cm.pool = cm.streams[0].pool
		cm.chunk.Loc = cm.streams[0].loc
	}
	defer cm.close()
	for cm.fill() {
		if !f(&cm.chunk) {
			break
		}
	}
	return cm.err
}

// EachRecordMergedTierCtx implements envdb.ContextTierScanner: the merged
// scan one materialized row at a time, with each row's storage tier.
func (s *Store) EachRecordMergedTierCtx(ctx context.Context, workers int, f func(sensors.Record, envdb.Tier) bool) error {
	return envdb.ScanRecords(ctx, s, workers, f)
}

// chunkMerger folds shard streams into columnar chunks one merge round at
// a time. It reads eagerly — a fill may decode past a consumer's early
// stop by up to a chunk — in exchange for doing no per-record heap work.
type chunkMerger struct {
	pool    *scanPool
	streams []*shardStream // as returned by scanShards, shard order
	active  []*shardStream // streams with a current run, shard order
	chunk   envdb.Chunk
	bufs    *scanBuffers // where the chunk's columns come from and go back
	srcs    [][]float64  // aligned-stretch read cursors, reused across rounds
	started bool
	merged  uint64
	err     error
	closed  bool
}

// fill assembles the next chunk; false on exhaustion or error (a partial
// chunk accumulated before a decode error is discarded — the scan failed).
func (cm *chunkMerger) fill() bool {
	if cm.closed || cm.err != nil {
		return false
	}
	if !cm.started {
		cm.started = true
		cm.takeColumns()
		// Admit every stream's first run; the waits overlap since all
		// streams were armed at scanShards time.
		cm.active = make([]*shardStream, 0, len(cm.streams))
		for _, st := range cm.streams {
			if st.advanceRun() {
				cm.active = append(cm.active, st)
			} else if st.err != nil {
				cm.fail(st.err)
				return false
			}
		}
	}
	c := &cm.chunk
	c.Reset()
	for len(cm.active) > 0 && len(c.Times) < chunkTargetRows {
		if !cm.round() {
			return false
		}
	}
	if len(c.Times) == 0 {
		cm.close()
		return false
	}
	cm.merged += uint64(len(c.Times))
	return true
}

// round appends one merge round to the chunk: every remaining record with
// timestamp below the round's boundary, in global (timestamp, rack) order.
// It returns false on a decode error.
func (cm *chunkMerger) round() bool {
	// One pass finds the minimum timestamp t0, how many streams tie at it,
	// the next distinct timestamp after it, and whether every t0 holder is
	// fast-lane eligible: its following record sits in the same run with a
	// later timestamp, so the stream contributes exactly one record and no
	// run advance this round.
	t0, second := int64(math.MaxInt64), int64(math.MaxInt64)
	tied := 0
	fast := true
	for _, st := range cm.active {
		run := &st.cur
		switch t := run.times[st.pos]; {
		case t < t0:
			t0, second, tied = t, t0, 1
			// Constraints recorded by holders of the old minimum no longer
			// apply: they don't tie t0 anymore.
			fast = st.pos+1 < run.hi && run.times[st.pos+1] > t
		case t == t0:
			tied++
			if st.pos+1 >= run.hi || run.times[st.pos+1] == t {
				fast = false
			}
		case t < second:
			second = t
		}
	}
	if tied > 1 && fast {
		// Tick-aligned fast lanes. When every stream ties, whole stretches
		// of rounds usually share identical timestamp sequences and can be
		// emitted in one strided pass; otherwise fall back to one indexed-
		// store round — the per-record appends of the general path spend
		// most of the merge in single-element memmoves.
		if tied == len(cm.active) && cm.roundsAligned() {
			return true
		}
		cm.emitTied(t0, tied)
		return true
	}
	// A lone minimum owns every record below the second-distinct timestamp
	// (its run, often); tied minima interleave by rack, so they each emit
	// exactly their t0 records (nanosecond timestamps: t > t0 ⇒ t ≥ t0+1).
	limit := second
	if tied > 1 {
		limit = t0 + 1
	}
	exhausted := false
	for _, st := range cm.active {
		if st.curTime() >= limit {
			continue
		}
		if !cm.emit(st, limit, tied == 1) {
			if st.err != nil {
				cm.fail(st.err)
				return false
			}
			exhausted = true
		}
	}
	if exhausted {
		kept := cm.active[:0]
		for _, st := range cm.active {
			if !st.done {
				kept = append(kept, st)
			}
		}
		cm.active = kept
	}
	return true
}

// roundsAligned handles the hottest merge shape — every active stream tied
// at the round minimum, tick-aligned — by emitting up to a chunk's worth of
// whole rounds in one strided pass: per stream, per column, a tight copy
// with stride len(active), instead of per-round slice-header reloads and
// minimum rescans. It returns false (emitting nothing) when the streams'
// timestamp sequences diverge immediately; the caller then falls back to
// the one-round path.
func (cm *chunkMerger) roundsAligned() bool {
	active := cm.active
	nA := len(active)
	c := &cm.chunk
	// Rounds to attempt: enough to fill the chunk to its target (rounds are
	// indivisible, so the last may overshoot — same contract as fill).
	k := (chunkTargetRows - len(c.Times) + nA - 1) / nA
	// Every stream must keep one record resident after the stretch: the
	// next round's minimum scan reads it, and stopping short of the run
	// boundary sidesteps cross-run equal-timestamp continuation entirely.
	for _, st := range active {
		if avail := st.cur.hi - st.pos - 1; avail < k {
			k = avail
		}
	}
	if k < 1 {
		return false
	}
	ref := active[0]
	rt := ref.cur.times[ref.pos:]
	// The stretch is the longest prefix that is strictly increasing on the
	// reference stream and timestamp-identical on every other; strict
	// increase means each round takes exactly one record per stream, so
	// emitting round-by-round in active (= rack) order reproduces the
	// general path's global order exactly.
	for r := 1; r < k; r++ {
		if rt[r] <= rt[r-1] {
			k = r
			break
		}
	}
	for _, st := range active[1:] {
		ts := st.cur.times[st.pos:]
		for r := 0; r < k; r++ {
			if ts[r] != rt[r] {
				k = r
				break
			}
		}
	}
	if k < 1 {
		return false
	}
	// If any stream's first record past the stretch repeats the stretch's
	// last timestamp, that record must stay adjacent to the stream's round
	// k-1 record — shrinking by one round restores strictness everywhere:
	// every stream matched rt through index k, and rt increases below k.
	for _, st := range active {
		if st.cur.times[st.pos+k] <= rt[k-1] {
			k--
			break
		}
	}
	if k < 1 {
		return false
	}
	w := len(c.Times)
	kn := k * nA
	cm.growChunk(w + kn)
	times := c.Times[w : w+kn]
	for r := 0; r < k; r++ {
		t := rt[r]
		row := times[r*nA : (r+1)*nA]
		for j := range row {
			row[j] = t
		}
	}
	// The rack and tier columns repeat one nA-wide pattern every round:
	// write it once, then double it with copy — two memmoves per power of
	// two instead of k*nA strided byte stores.
	racks := c.Racks[w : w+kn]
	tiers := c.Tiers[w : w+kn]
	for si, st := range active {
		racks[si] = st.rackCode
		tiers[si] = st.cur.tier
	}
	for f := nA; f < kn; f *= 2 {
		copy(racks[f:], racks[:f])
		copy(tiers[f:], tiers[:f])
	}
	// Value columns interleave round-major. Iterating rounds in the outer
	// loop keeps the stores sequential (consecutive cache lines) while each
	// stream's read cursor advances one element per round, so all nA source
	// lines stay resident — measurably faster than the transposed loop whose
	// stores stride nA*8 bytes and touch a fresh line each.
	if cap(cm.srcs) < nA {
		cm.srcs = make([][]float64, nA)
	}
	srcs := cm.srcs[:nA]
	for m := range c.Cols {
		for si, st := range active {
			srcs[si] = st.cur.cols[m][st.pos : st.pos+k]
		}
		col := c.Cols[m][w : w+kn]
		for r := 0; r < k; r++ {
			row := col[r*nA : r*nA+nA]
			for si := range row {
				row[si] = srcs[si][r]
			}
		}
	}
	for _, st := range active {
		st.pos += k
	}
	return true
}

// emitTied appends exactly one record from each of the `tied` streams
// sitting at t0, in active (= rack) order. Callers guarantee every such
// stream's next record stays in the same run with a later timestamp, so no
// boundary handling is needed here.
func (cm *chunkMerger) emitTied(t0 int64, tied int) {
	c := &cm.chunk
	w := len(c.Times)
	cm.growChunk(w + tied)
	times, racks, tiers := c.Times, c.Racks, c.Tiers
	for _, st := range cm.active {
		run := &st.cur
		p := st.pos
		if run.times[p] != t0 {
			continue
		}
		times[w] = t0
		racks[w] = st.rackCode
		tiers[w] = run.tier
		for m := range c.Cols {
			c.Cols[m][w] = run.cols[m][p]
		}
		st.pos = p + 1
		w++
	}
}

// growCol extends a chunk column to length w, reallocating with headroom
// only when the capacity is short.
func growCol[T any](s []T, w int) []T {
	if cap(s) >= w {
		return s[:w]
	}
	ns := make([]T, w, w+w/2)
	copy(ns, s)
	return ns
}

// growChunk extends every chunk column to length w; once the first chunk
// warms the capacities this is nine reslices.
func (cm *chunkMerger) growChunk(w int) {
	c := &cm.chunk
	c.Times = growCol(c.Times, w)
	c.Racks = growCol(c.Racks, w)
	c.Tiers = growCol(c.Tiers, w)
	for m := range c.Cols {
		c.Cols[m] = growCol(c.Cols[m], w)
	}
}

// emit bulk-copies st's records below limit into the chunk, following the
// stream across run boundaries while records keep arriving below the limit
// (a seal during ingest can split equal timestamps across two runs). A
// lone minimum (every other stream at or past limit) may stop at a run
// boundary once the chunk is full: the rest of its records stay below
// limit, so the next round emits them just the same. That bounds a chunk
// to its target plus one run when a single shard holds the whole range.
// It returns false when the stream is exhausted or failed.
func (cm *chunkMerger) emit(st *shardStream, limit int64, lone bool) bool {
	c := &cm.chunk
	rackCode := st.rackCode
	for {
		run := &st.cur
		i, hi, times := st.pos, run.hi, run.times
		for i < hi && times[i] < limit {
			i++
		}
		if n := i - st.pos; n > 0 {
			c.Times = append(c.Times, times[st.pos:i]...)
			for k := 0; k < n; k++ {
				c.Racks = append(c.Racks, rackCode)
				c.Tiers = append(c.Tiers, run.tier)
			}
			for m := range c.Cols {
				c.Cols[m] = append(c.Cols[m], run.cols[m][st.pos:i]...)
			}
			st.pos = i
		}
		if i < hi {
			return true
		}
		// Run exhausted below the limit: the next run may continue it.
		// Everything needed from this run is copied, so handing the
		// stream's buffers back (advanceRun re-arms the prefetch) is safe.
		if !st.advanceRun() {
			return false
		}
		if st.curTime() >= limit || (lone && len(c.Times) >= chunkTargetRows) {
			return true
		}
	}
}

// takeColumns draws the chunk's columns from arenaPool, so a scan starts
// from the capacities an earlier scan grew instead of regrowing them.
func (cm *chunkMerger) takeColumns() {
	cm.bufs = arenaPool.Get().(*scanBuffers)
	ar, c := &cm.bufs.arenas[0], &cm.chunk
	c.Times, c.Racks, c.Tiers, c.Cols = ar.times, cm.bufs.racks, cm.bufs.tiers, ar.cols
	c.Reset()
}

func (cm *chunkMerger) fail(err error) {
	cm.err = err
	cm.close()
}

// close releases the scan's worker pool; idempotent.
func (cm *chunkMerger) close() {
	if cm.closed {
		return
	}
	cm.closed = true
	metScanRecords.Add(cm.merged)
	if cm.pool != nil && cm.pool.stats != nil {
		cm.pool.stats.Records.Add(int64(cm.merged))
	}
	cm.merged = 0
	if cm.pool != nil {
		cm.pool.close()
	}
	// envdb.Chunk is valid only inside the consumer's callback, and none
	// runs after close: the chunk's columns go back to the pool.
	if b := cm.bufs; b != nil {
		c := &cm.chunk
		b.arenas[0].times, b.racks, b.tiers, b.arenas[0].cols = c.Times, c.Racks, c.Tiers, c.Cols
		arenaPool.Put(b)
		cm.bufs, cm.chunk = nil, envdb.Chunk{}
	}
}
