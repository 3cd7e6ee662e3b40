package tsdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/topology"
	"mira/internal/units"
)

// DefaultPartition is the time span of one block: 30 days ≈ 8640 samples at
// the coolant monitor's 300 s cadence.
const DefaultPartition = 30 * 24 * time.Hour

// compactWindow is the cold-tier cadence retention compaction folds old
// partitions down to: one window per hour, 1/12 of the monitor's 300 s
// sample rate. Each downsampled window retains count/sum/min/max per
// channel.
const compactWindow = time.Hour

// Options configures a Store.
type Options struct {
	// Fleet is the deployment shape: one shard per fleet rack. The zero
	// value is the paper's single 48-rack machine; multi-hall fleets get
	// halls × racks shards and per-hall segment directories on disk.
	Fleet topology.Fleet
	// Partition is the block length (default 30 days). Sealed blocks carry
	// their time bounds, so range queries skip whole partitions.
	Partition time.Duration
	// Downsample keeps only every Nth sample per rack (0 or 1 = keep all).
	// Retained for drop-in compatibility with envdb.Store; compression makes
	// full-rate six-year runs fit in memory, so the default keeps all.
	Downsample int
	// Retention is the hot window: Compact folds sealed partitions whose
	// data is older than Retention (measured back from the store's last
	// record, not wall clock — traces are simulated) into downsampled
	// blocks of one-hour windows. 0 disables compaction.
	Retention time.Duration
}

// channelScales is the per-channel decimal grid values are quantized to on
// ingest, 10^decimals: it mirrors the envdb CSV export schema (3 decimals,
// 1 for power), so quantization never discards information that survives
// an export anyway. A sealed block whose values do not fit the grid (NaN or
// infinities) keeps raw float64 bits with XOR encoding instead.
var channelScales = func() (sc [sensors.NumMetrics]float64) {
	for m := range sc {
		sc[m] = 1000
	}
	sc[sensors.MetricPower] = 10
	return sc
}()

// shard holds one rack's blocks. The RWMutex guards the block list and the
// head's slice headers; closed blocks (frozen or sealed, see sealedBlock)
// and snapshotted head prefixes are immutable, so readers decode outside
// the lock. The lock is only ever held for O(1) or O(batch) work: a writer
// that rolls a partition freezes the head under it and compresses the
// frozen block after releasing it.
type shard struct {
	mu      sync.RWMutex
	cold    []*downBlock   // downsampled tier, strictly before every closed block
	sealed  []*sealedBlock // closed partitions in time order, frozen ones included
	head    *headBlock
	lastT   int64
	hasLast bool
	counter int
	// total counts the records the shard yields to readers: raw samples
	// plus one pseudo-record (the window mean) per downsampled window.
	total int
}

// Store is a sharded, compressed, concurrent environmental database: one
// shard per rack, Gorilla-compressed sealed blocks plus a mutable head
// block per shard. It satisfies envdb.DB, so it is a drop-in replacement
// for the slice-backed envdb.Store anywhere telemetry is recorded or
// queried. The zero value is ready to use with default Options.
type Store struct {
	opts      Options
	fleet     topology.Fleet // normalized Options.Fleet
	partNanos int64
	once      sync.Once
	loc       atomic.Pointer[time.Location]
	diskBytes atomic.Int64 // segment bytes as of the last Flush/Open
	compactMu sync.Mutex   // serializes Compact runs (the only sealed-block remover)
	tickPool  sync.Pool    // *tickScratch for AppendTick
	shards    []shard      // one per fleet rack, topology.Fleet.GlobalIndex order
}

var (
	_ envdb.DB             = (*Store)(nil)
	_ envdb.BatchAppender  = (*Store)(nil)
	_ envdb.FleetDescriber = (*Store)(nil)
)

// NewStore creates a store with default options: 30-day partitions, no
// downsampling.
func NewStore() *Store { return NewStoreWith(Options{}) }

// NewStoreWith creates a store with explicit options.
func NewStoreWith(o Options) *Store {
	s := &Store{opts: o}
	s.init()
	return s
}

func (s *Store) init() {
	s.once.Do(func() {
		s.fleet = s.opts.Fleet.Norm()
		s.shards = make([]shard, s.fleet.NumRacks())
		s.tickPool.New = func() any {
			return &tickScratch{
				shards: make([]tickShardState, len(s.shards)),
			}
		}
		if s.opts.Partition <= 0 {
			s.opts.Partition = DefaultPartition
		}
		s.partNanos = int64(s.opts.Partition)
	})
}

// latchZone makes the first appended record's zone the store's calendar
// zone. Only the first append ever finds
// the latch open; every later one sees that with a load, where a failing
// compare-and-swap would take the cache line exclusively per record.
func (s *Store) latchZone(first time.Time) {
	if s.loc.Load() == nil {
		s.loc.CompareAndSwap(nil, first.Location())
	}
}

func (s *Store) location() *time.Location {
	if l := s.loc.Load(); l != nil {
		return l
	}
	return time.UTC
}

// Fleet returns the store's normalized deployment shape.
func (s *Store) Fleet() topology.Fleet {
	s.init()
	return s.fleet
}

// emptyShard backs reads for racks outside the store's fleet: queries on
// them see an empty snapshot instead of panicking or aliasing a real shard.
var emptyShard shard

// shardPtr returns the shard owning rack, or nil for a rack outside the
// fleet (writers reject it, readers treat it as empty).
func (s *Store) shardPtr(rack topology.RackID) *shard {
	if !s.fleet.Contains(rack) {
		return nil
	}
	return &s.shards[s.fleet.GlobalIndex(rack)]
}

func (s *Store) readShard(rack topology.RackID) *shard {
	if sh := s.shardPtr(rack); sh != nil {
		return sh
	}
	return &emptyShard
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Append ingests one record. Records must arrive in non-decreasing time
// order per rack (equal timestamps are fine); concurrent appends to
// different racks proceed in parallel.
func (s *Store) Append(r sensors.Record) error {
	s.init()
	s.latchZone(r.Time)
	t := r.Time.UnixNano()
	sh := s.shardPtr(r.Rack)
	if sh == nil {
		return fmt.Errorf("tsdb: rack %v outside fleet (%d halls × %d racks)",
			r.Rack, s.fleet.Halls, s.fleet.Racks)
	}
	sh.mu.Lock()
	frozen, err := s.appendLocked(sh, &r, t)
	sh.mu.Unlock()
	// The rare append that rolls a partition pays for compressing the block
	// it closed, but only after the lock is gone.
	if frozen != nil {
		frozen.seal()
	}
	return err
}

// appendLocked is Append's body under the shard's (held) write lock. It
// returns the block it froze when r opened a new partition, for the caller
// to seal once the lock is released.
func (s *Store) appendLocked(sh *shard, r *sensors.Record, t int64) (frozen *sealedBlock, err error) {
	if sh.hasLast && t < sh.lastT {
		metOutOfOrder.Inc()
		return nil, fmt.Errorf("tsdb: out-of-order record for rack %v: %v before %v",
			r.Rack, r.Time, time.Unix(0, sh.lastT).In(s.location()))
	}
	metAppend.Inc()
	// The monotonicity watermark advances for every accepted record, kept
	// or not: with Downsample > 1, an out-of-order record landing between
	// two skipped samples must still be rejected.
	sh.lastT = t
	sh.hasLast = true
	sh.counter++
	if s.opts.Downsample > 1 && (sh.counter-1)%s.opts.Downsample != 0 {
		return nil, nil
	}
	part := floorDiv(t, s.partNanos)
	if sh.head != nil && sh.head.partition != part {
		frozen = freezeHead(sh.head)
		sh.sealed = append(sh.sealed, frozen)
		sh.head = newHead(part, frozen.count)
	}
	if sh.head == nil {
		sh.head = &headBlock{partition: part}
	}
	sh.head.times = append(sh.head.times, t)
	vals := r.Values() // one read of the six fields; Value would copy r per channel
	for m := range sh.head.vals {
		sh.head.vals[m] = append(sh.head.vals[m], quantize(vals[m], channelScales[m]))
	}
	sh.total++
	return frozen, nil
}

// quantize rounds v to the store's decimal grid. NaN/Inf pass through (the
// sealer falls back to XOR for such blocks). The grid has one zero: a value
// that rounds to zero from below, or -0 itself, stores as +0, which is what
// the sealed integer encoding reads back — a head -0 would export as
// "-0.000" until sealing and "0.000" after.
func quantize(v, scale float64) float64 {
	q := math.Round(v*scale) / scale
	switch {
	case q != q: // NaN
		return v
	case q == 0: // also -0
		return 0
	}
	return q
}

// tickScratch is AppendTick's reusable per-call state, pooled on the store
// so steady-state batched ingest allocates nothing: each shard's group of
// batch indices keeps its capacity across calls, and reset() only touches
// the shards the previous batch actually used.
type tickScratch struct {
	nanos   []int64          // per record: UnixNano
	shards  []tickShardState // per shard: this batch's group + watermark
	touched []int32          // shards with a non-empty group
	frozen  []*sealedBlock   // blocks this batch froze, sealed after the unlocks
}

// tickShardState packs one shard's per-batch state into a single cache
// line's worth of scratch, so pass 1 touches one array, not two.
type tickShardState struct {
	group    []int32 // batch indices, reset via touched
	lastSeen int64   // newest timestamp seen in this batch
}

func (sc *tickScratch) reset() {
	for _, j := range sc.touched {
		sc.shards[j].group = sc.shards[j].group[:0]
	}
	sc.touched = sc.touched[:0]
}

// AppendTick ingests a batch of records atomically: the whole batch is
// validated first — fleet membership and per-rack time order, both within
// the batch and against each shard's watermark — and only then applied,
// under a single lock acquisition per touched shard. Either every record
// lands or none does, so a rejected batch leaves the store byte-identical
// and safe to retry after correction; that all-or-nothing contract is what
// lets the network server treat one ingest frame as its unit of dedup.
// Batching also amortizes the per-record locking, bounds checks, and slice
// growth of the Append loop (see BenchmarkIngestTickBatch). Concurrent
// AppendTick calls lock shards in ascending fleet order, so they cannot
// deadlock; Append may interleave between batches but not inside one. A
// batch that crosses a partition boundary freezes the full heads under the
// locks and compresses them after the last lock is released, still before
// returning: readers never wait on compression, and an acked batch is
// always fully applied and sealed.
func (s *Store) AppendTick(recs []sensors.Record) error {
	s.init()
	if len(recs) == 0 {
		return nil
	}
	s.latchZone(recs[0].Time)
	sc := s.tickPool.Get().(*tickScratch)
	defer s.tickPool.Put(sc)
	if cap(sc.nanos) < len(recs) {
		sc.nanos = make([]int64, len(recs))
	}
	nanos := sc.nanos[:len(recs)]
	// Pass 1, lock-free: validate fleet membership and intra-batch time
	// order while grouping the batch by shard. Nothing is applied until the
	// whole batch checks out. The fleet membership check and global index
	// are open-coded — this loop runs per record on the ingest hot path,
	// and Fleet's methods re-derive the normalized shape on every call.
	halls, perHall := s.fleet.Halls, s.fleet.Racks
	states := sc.shards
	touched := sc.touched
	for i := range recs {
		r := &recs[i]
		idx := r.Rack.Row*topology.ColsPerRow + r.Rack.Col
		if uint(r.Rack.Row) >= topology.Rows || uint(r.Rack.Col) >= topology.ColsPerRow ||
			uint(r.Rack.Hall) >= uint(halls) || idx >= perHall {
			sc.touched = touched
			sc.reset()
			return fmt.Errorf("tsdb: rack %v outside fleet (%d halls × %d racks)",
				r.Rack, halls, perHall)
		}
		st := &states[r.Rack.Hall*perHall+idx]
		t := r.Time.UnixNano()
		nanos[i] = t
		if len(st.group) == 0 {
			touched = append(touched, int32(r.Rack.Hall*perHall+idx))
		} else if t < st.lastSeen {
			sc.touched = touched
			sc.reset()
			metOutOfOrder.Inc()
			return fmt.Errorf("tsdb: out-of-order record in batch for rack %v: %v before %v",
				r.Rack, r.Time, time.Unix(0, st.lastSeen).In(s.location()))
		}
		st.lastSeen = t
		st.group = append(st.group, int32(i))
	}
	sc.touched = touched
	// Lock touched shards in ascending fleet order (insertion sort: the
	// batch is typically already in rack order, and concurrent AppendTick
	// calls must agree on lock order) and validate each group's first
	// record against the shard watermark; any violation releases every
	// lock with the store untouched.
	for k := 1; k < len(touched); k++ {
		for l := k; l > 0 && touched[l] < touched[l-1]; l-- {
			touched[l], touched[l-1] = touched[l-1], touched[l]
		}
	}
	for k, j := range touched {
		sh := &s.shards[j]
		sh.mu.Lock()
		if first := sc.shards[j].group[0]; sh.hasLast && nanos[first] < sh.lastT {
			rack, when, wm := recs[first].Rack, recs[first].Time, sh.lastT
			for _, jj := range touched[:k+1] {
				s.shards[jj].mu.Unlock()
			}
			sc.reset()
			metOutOfOrder.Inc()
			return fmt.Errorf("tsdb: out-of-order batch for rack %v: %v before %v",
				rack, when, time.Unix(0, wm).In(s.location()))
		}
	}
	// Validation passed: apply every group, then release the locks.
	frozen := sc.frozen[:0]
	for _, j := range touched {
		sh := &s.shards[j]
		frozen = s.applyGroup(sh, recs, nanos, sc.shards[j].group, frozen)
		sh.lastT = sc.shards[j].lastSeen
		sh.hasLast = true
		sh.mu.Unlock()
	}
	// Sealing waits for the last unlock, not just the block's own: shards
	// later in the lock order stay locked while earlier groups apply, and a
	// fleet-wide roll must not hold them through everyone else's compression.
	for _, b := range frozen {
		b.seal()
	}
	clear(frozen)
	sc.frozen = frozen[:0]
	metAppend.Add(uint64(len(recs)))
	sc.reset()
	return nil
}

// applyGroup appends one shard's group of a validated batch under the
// shard's (held) write lock: downsample stride first, then one fillHead
// call per partition run — the column-at-a-time amortization that makes
// AppendTick fast. Heads the group closes are frozen in place and appended
// to frozen for the caller to seal after unlocking.
func (s *Store) applyGroup(sh *shard, recs []sensors.Record, nanos []int64, g []int32, frozen []*sealedBlock) []*sealedBlock {
	if d := s.opts.Downsample; d > 1 {
		kept := 0
		for _, x := range g {
			sh.counter++
			if (sh.counter-1)%d == 0 {
				g[kept] = x
				kept++
			}
		}
		g = g[:kept]
	} else {
		sh.counter += len(g)
	}
	for len(g) > 0 {
		t0 := nanos[g[0]]
		part := floorDiv(t0, s.partNanos)
		if sh.head != nil && sh.head.partition != part {
			b := freezeHead(sh.head)
			sh.sealed = append(sh.sealed, b)
			frozen = append(frozen, b)
			sh.head = nil
		}
		if sh.head == nil {
			sh.head = &headBlock{partition: part}
		}
		run := len(g)
		// end > t0 guards (part+1)*partNanos overflow: when the partition
		// end is unrepresentable no later partition exists, so the whole
		// group belongs to this one.
		if end := (part + 1) * s.partNanos; end > t0 && nanos[g[run-1]] >= end {
			run = sort.Search(run, func(x int) bool { return nanos[g[x]] >= end })
		}
		s.fillHead(sh.head, recs, nanos, g[:run])
		sh.total += run
		g = g[run:]
	}
	return frozen
}

// fillHead appends one partition run of grouped records to a head block,
// growing each column once and quantizing values straight into place. The
// arithmetic must stay exactly quantize's — Append and AppendTick have to
// produce bit-identical heads.
func (s *Store) fillHead(h *headBlock, recs []sensors.Record, nanos []int64, g []int32) {
	base := len(h.times)
	h.times = reserve(h.times, len(g))
	for m := range h.vals {
		h.vals[m] = reserve(h.vals[m], len(g))
	}
	// The reslices to len(g) let the compiler drop the per-column bounds
	// checks inside the loop: every column provably spans the whole run.
	times := h.times[base:][:len(g)]
	v0, v1, v2 := h.vals[0][base:][:len(g)], h.vals[1][base:][:len(g)], h.vals[2][base:][:len(g)]
	v3, v4, v5 := h.vals[3][base:][:len(g)], h.vals[4][base:][:len(g)], h.vals[5][base:][:len(g)]
	s0, s1, s2 := channelScales[0], channelScales[1], channelScales[2]
	s3, s4, s5 := channelScales[3], channelScales[4], channelScales[5]
	for k, x := range g {
		r := &recs[x]
		times[k] = nanos[x]
		v0[k] = quantize(float64(r.DCTemperature), s0)
		v1[k] = quantize(float64(r.DCHumidity), s1)
		v2[k] = quantize(float64(r.Flow), s2)
		v3[k] = quantize(float64(r.InletTemp), s3)
		v4[k] = quantize(float64(r.OutletTemp), s4)
		v5[k] = quantize(float64(r.Power), s5)
	}
}

// reserve extends s by n elements the caller will overwrite, growing the
// backing array in place on a capacity miss. fillHead stores to every
// reserved index, so the stale memory past the old length is never read.
func reserve[T any](s []T, n int) []T {
	return slices.Grow(s, n)[:len(s)+n]
}

// SealAll closes and compresses every non-empty head block. Appends
// afterwards start fresh heads; use before Stats for a fully-compressed
// footprint, or to bound head memory when ingest pauses. On return every
// block closed so far is sealed, including ones a concurrent Append or
// AppendTick froze and is still compressing.
func (s *Store) SealAll() {
	s.init()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if sh.head != nil && len(sh.head.times) > 0 {
			sh.sealed = append(sh.sealed, freezeHead(sh.head))
			sh.head = nil
		}
		closed := sh.sealed[:len(sh.sealed):len(sh.sealed)]
		sh.mu.Unlock()
		for _, b := range closed {
			b.seal()
		}
	}
}

// Len returns the number of records the store yields across all racks:
// raw samples plus one window record per downsampled window.
func (s *Store) Len() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		total += sh.total
		sh.mu.RUnlock()
	}
	return total
}

// snapshot is an immutable view of one shard taken under its read lock:
// closed block pointers plus the head's current slice prefixes. The backing
// arrays are never mutated below the snapshotted lengths, so the snapshot
// can be decoded and scanned lock-free.
type snapshot struct {
	cold   []*downBlock
	sealed []*sealedBlock
	head   headBlock // the head's columns clipped to their snapshot length
	// total is the shard's stored-record count at snapshot time (Stats).
	total int
}

func (sh *shard) snapshot() snapshot {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	snap := snapshot{
		cold:   sh.cold[:len(sh.cold):len(sh.cold)],
		sealed: sh.sealed[:len(sh.sealed):len(sh.sealed)],
		total:  sh.total,
	}
	if sh.head != nil {
		n := len(sh.head.times)
		snap.head.times = sh.head.times[:n:n]
		for m := range sh.head.vals {
			snap.head.vals[m] = sh.head.vals[m][:n:n]
		}
	}
	return snap
}

// blockView is one time-ordered run of samples: a downsampled block (one
// record per window, timestamped at the window start, valued at the window
// mean), a sealed block (decoded lazily, one column at a time), or raw
// uncompressed columns — the head prefix, or a frozen block whose payload
// does not exist yet. The two raw forms are indistinguishable to readers.
type blockView struct {
	down   *downBlock
	sealed *sealedBlock
	raw    *headBlock
}

// appendBlocks appends to dst the views of snap's blocks that overlap
// [fromN, toN), in time order, so readers never look at a block outside
// their range.
func (snap *snapshot) appendBlocks(dst []blockView, fromN, toN int64) []blockView {
	// Cold blocks precede every closed block in time (the compaction
	// boundary never splits a window), so this order is time order.
	for _, d := range snap.cold {
		dst = appendOverlapping(dst, blockView{down: d}, fromN, toN)
	}
	for _, b := range snap.sealed {
		// The one place a reader decides which form of a closed block it
		// sees: a frozen block's columns stay valid (and pinned by this view)
		// however soon seal clears raw.
		if h := b.raw.Load(); h != nil {
			dst = appendOverlapping(dst, blockView{raw: h}, fromN, toN)
		} else {
			dst = appendOverlapping(dst, blockView{sealed: b}, fromN, toN)
		}
	}
	if len(snap.head.times) > 0 {
		dst = appendOverlapping(dst, blockView{raw: &snap.head}, fromN, toN)
	}
	return dst
}

func appendOverlapping(dst []blockView, bv blockView, fromN, toN int64) []blockView {
	if minT, maxT := bv.bounds(); maxT >= fromN && minT < toN {
		dst = append(dst, bv)
	}
	return dst
}

func (bv blockView) bounds() (minT, maxT int64) {
	if bv.down != nil {
		return bv.down.minT, bv.down.maxT
	}
	if bv.sealed != nil {
		return bv.sealed.minT, bv.sealed.maxT
	}
	return bv.raw.times[0], bv.raw.times[len(bv.raw.times)-1]
}

// rows is the view's row count: samples, or windows of a cold block.
func (bv blockView) rows() int {
	if bv.down != nil {
		return bv.down.count
	}
	if bv.sealed != nil {
		return bv.sealed.count
	}
	return len(bv.raw.times)
}

// mustOK is the internal-invariant backstop for the error-free point
// reads (Query, Series): memory-born blocks are correct by construction
// and disk-loaded blocks are checksum-verified at Open, so a decode error
// there means in-process memory corruption or a codec bug — not bad
// input. Callers that want errors instead of a panic (e.g. streaming over
// untrusted segments) use Aggregate or EachChunkMergedCtx and check the
// returned error.
func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}

// searchRange returns the half-open index range of times within [fromN, toN).
func searchRange(times []int64, fromN, toN int64) (lo, hi int) {
	lo = sort.Search(len(times), func(i int) bool { return times[i] >= fromN })
	hi = sort.Search(len(times), func(i int) bool { return times[i] >= toN })
	return lo, hi
}

// Query returns the stored records for one rack with timestamps in
// [from, to), in time order. Values are the stored (ingest-quantized)
// values; see channelScales. Each block view in range is one point read
// of a blockReader (readRange) into a pooled readArena, and only the rows
// in range become records.
func (s *Store) Query(rack topology.RackID, from, to time.Time) []sensors.Record {
	s.init()
	defer metQueryDur.With(opQuery).ObserveSince(time.Now())
	loc := s.location()
	fromN, toN := from.UnixNano(), to.UnixNano()
	ar := pointRead(s.readShard(rack), fromN, toN)
	defer ar.release()
	out := []sensors.Record{}
	var rd blockReader
	var cols [sensors.NumMetrics][]float64
	for _, bv := range ar.views {
		rd.reset(bv)
		run, lo, hi, err := rd.readRange(fromN, toN, allCols, &ar.scanArena)
		mustOK(err)
		if lo >= hi {
			continue
		}
		for m := range cols {
			cols[m] = ar.floats(run, m, lo, hi)
		}
		out = slices.Grow(out, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, recordAt(rack, loc, run.times[i], &cols, i))
		}
	}
	return out
}

// recordAt materializes one record of Query from decoded columnar data.
func recordAt(rack topology.RackID, loc *time.Location, tN int64, cols *[sensors.NumMetrics][]float64, i int) sensors.Record {
	return sensors.Record{
		Time:          time.Unix(0, tN).In(loc),
		Rack:          rack,
		DCTemperature: units.Fahrenheit(cols[sensors.MetricDCTemperature][i]),
		DCHumidity:    units.RelativeHumidity(cols[sensors.MetricDCHumidity][i]),
		Flow:          units.GPM(cols[sensors.MetricFlow][i]),
		InletTemp:     units.Fahrenheit(cols[sensors.MetricInletTemp][i]),
		OutletTemp:    units.Fahrenheit(cols[sensors.MetricOutletTemp][i]),
		Power:         units.Watts(cols[sensors.MetricPower][i]),
	}
}

// Series extracts one metric for one rack over [from, to) as parallel
// times/values slices, decompressing only that metric's column.
func (s *Store) Series(rack topology.RackID, m sensors.Metric, from, to time.Time) ([]time.Time, []float64) {
	s.init()
	defer metQueryDur.With(opSeries).ObserveSince(time.Now())
	loc := s.location()
	fromN, toN := from.UnixNano(), to.UnixNano()
	ar := pointRead(s.readShard(rack), fromN, toN)
	defer ar.release()
	times := []time.Time{}
	vals := []float64{}
	var rd blockReader
	for _, bv := range ar.views {
		rd.reset(bv)
		run, lo, hi, err := rd.readRange(fromN, toN, colOf(m), &ar.scanArena)
		mustOK(err)
		if lo >= hi {
			continue
		}
		times = slices.Grow(times, hi-lo)
		for _, t := range run.times[lo:hi] {
			times = append(times, time.Unix(0, t).In(loc))
		}
		vals = append(vals, ar.floats(run, int(m), lo, hi)[lo:hi]...)
	}
	return times, vals
}

// Sentinel nanos covering any representable sample time.
const (
	minTime = int64(-1) << 62
	maxTime = int64(1)<<62 - 1
)

// Stats describes the store's footprint.
type Stats struct {
	// Records is the record count the store yields to readers: raw samples
	// (sealed + head) plus one window record per downsampled window.
	Records int
	// SealedRecords and SealedBlocks count the compressed raw portion
	// (frozen blocks join it once sealed).
	SealedRecords int
	SealedBlocks  int
	// SealedBytes is the compressed payload size of all sealed blocks.
	SealedBytes int64
	// HeadBytes is the uncompressed columnar footprint: every head plus any
	// frozen block whose compression has not finished.
	HeadBytes int64
	// ColdBlocks/ColdWindows/ColdSourceRecords/ColdBytes describe the
	// downsampled tier: block and window counts, how many raw records were
	// folded into it, and its compressed payload size.
	ColdBlocks        int
	ColdWindows       int
	ColdSourceRecords int64
	ColdBytes         int64
	// BytesPerRecord is SealedBytes / SealedRecords: one record is one
	// timestamp plus six float64 channels.
	BytesPerRecord float64
	// BytesPerSample is the Gorilla-style metric: compressed bytes per
	// (timestamp, value) sample, i.e. SealedBytes / (SealedRecords × 6).
	BytesPerSample float64
	// DiskBytes is the on-disk footprint of the store's segment files as of
	// the last Flush or Open; 0 for a purely in-memory store.
	DiskBytes int64
}

// Stats reports the current footprint. Call SealAll first for a
// fully-compressed view.
//
// Stats never blocks ingest beyond the snapshot instant: each shard's read
// lock is held only long enough to copy the block-list header (the same
// snapshot the query surface takes), and the per-block byte accounting —
// slice-length sums over already-compressed payloads, never a decode —
// runs lock-free afterwards. A frozen block is uncompressed columnar memory
// and counts toward HeadBytes until its seal completes; Stats neither
// triggers nor waits for that. ExposeGauges republishes these numbers as
// scrape-time gauges, so live processes should scrape /metrics instead of
// polling this one-shot struct.
func (s *Store) Stats() Stats {
	st, _ := s.stats()
	return st
}

// stats is Stats plus the number of frozen blocks awaiting compression.
func (s *Store) stats() (st Stats, frozen int) {
	s.init()
	const rawRecordBytes = 8 * (1 + int64(sensors.NumMetrics))
	for i := range s.shards {
		snap := s.shards[i].snapshot()
		st.Records += snap.total
		for _, b := range snap.sealed {
			if b.raw.Load() != nil {
				frozen++
				st.HeadBytes += int64(b.count) * rawRecordBytes
				continue
			}
			st.SealedBlocks++
			st.SealedRecords += b.count
			st.SealedBytes += b.payloadBytes()
		}
		st.ColdBlocks += len(snap.cold)
		for _, d := range snap.cold {
			st.ColdWindows += d.count
			st.ColdSourceRecords += d.srcRecords
			st.ColdBytes += d.payloadBytes()
		}
		st.HeadBytes += int64(len(snap.head.times)) * rawRecordBytes
	}
	if st.SealedRecords > 0 {
		st.BytesPerRecord = float64(st.SealedBytes) / float64(st.SealedRecords)
		st.BytesPerSample = st.BytesPerRecord / float64(sensors.NumMetrics)
	}
	st.DiskBytes = s.diskBytes.Load()
	return st, frozen
}

// Bounds reports the earliest and latest record timestamps across all
// racks; ok is false for an empty store. Blocks are time-ordered within a
// shard (cold, then closed, then head), so each shard contributes its
// first block's start and its last block's end, read under the shard's
// read lock: no snapshot, no view list, no allocation — the telemetry
// server asks for the zone on every response.
func (s *Store) Bounds() (first, last time.Time, ok bool) {
	s.init()
	var minN, maxN int64
	for i := range s.shards {
		lo, hi, has := s.shards[i].bounds()
		if !has {
			continue
		}
		if !ok || lo < minN {
			minN = lo
		}
		if !ok || hi > maxN {
			maxN = hi
		}
		ok = true
	}
	if !ok {
		return time.Time{}, time.Time{}, false
	}
	loc := s.location()
	return time.Unix(0, minN).In(loc), time.Unix(0, maxN).In(loc), true
}

// bounds is the shard's first and last stored timestamp; ok is false for
// an empty shard.
func (sh *shard) bounds() (minT, maxT int64, ok bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	headRows := 0
	if sh.head != nil {
		headRows = len(sh.head.times)
	}
	switch {
	case len(sh.cold) > 0:
		minT = sh.cold[0].minT
	case len(sh.sealed) > 0:
		minT = sh.sealed[0].minT
	case headRows > 0:
		minT = sh.head.times[0]
	default:
		return 0, 0, false
	}
	switch {
	case headRows > 0:
		maxT = sh.head.times[headRows-1]
	case len(sh.sealed) > 0:
		maxT = sh.sealed[len(sh.sealed)-1].maxT
	default:
		maxT = sh.cold[len(sh.cold)-1].maxT
	}
	return minT, maxT, true
}
