package analysis

import (
	"context"
	"sort"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/stats"
	"mira/internal/topology"
	"mira/internal/units"
)

// CollectFromStore replays an environmental database (the slice-backed
// envdb.Store or the compressed tsdb.Store, e.g. telemetry re-imported from
// a mirasim CSV export) through a Collector, enabling offline analysis of
// exported traces. System power is reconstructed as the sum of rack powers
// per tick; utilization is unavailable offline, so the
// utilization-dependent panels of Figs. 2, 4–6 read NaN while every
// coolant/ambient figure (3, 7, 8, 9) is fully usable. It is
// CollectFromStoreParallel with the default worker count.
func CollectFromStore(db envdb.DB) *Collector {
	return CollectFromStoreParallel(db, 0)
}

// CollectOptions configures an offline replay.
type CollectOptions struct {
	// Workers bounds the scan's shard-decode pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Hall selects which machine hall of a fleet store to analyze (default
	// 0 — for a single-machine store that is the whole trace). The paper's
	// figures describe one 48-rack machine, so a fleet replay analyzes one
	// hall at a time; records from other halls are skipped during the scan
	// and the reconstructed system power covers the selected hall only.
	// The filter applies identically to local and remote stores, so the
	// figures stay bit-identical across a push/analyze round trip.
	Hall int
}

// CollectFromStoreParallel is CollectFromStoreOpts with only the worker
// count set — the chunked scan path when the store supports it.
func CollectFromStoreParallel(db envdb.DB, workers int) *Collector {
	return CollectFromStoreOpts(db, CollectOptions{Workers: workers})
}

// CollectFromStoreOpts replays db through a Collector. The replay is a
// streaming run-length pass over the time-ordered merge: peak buffering is
// one tick — at most one record per rack — regardless of trace length.
// Stores exposing the batch-columnar surface (envdb.ChunkScanner) replay
// chunk-at-a-time, materializing records only inside the tick grouping
// loop; plain ShardScanner stores replay record-at-a-time; stores with
// neither capability fall back to the buffering replay (O(trace) memory).
// Both scan surfaces decode the same stored bytes, so the figures are
// bit-identical across all paths.
//
// Stores with a downsampled cold tier replay the hot window only: a cold
// window's mean record is not a sample, so feeding it to the tick/incident
// pipeline would fabricate ticks. Replay figures therefore cover the
// retained full-rate range, while the Fig. 7/9 pushdown figures aggregate
// across both tiers exactly.
func CollectFromStoreOpts(db envdb.DB, opts CollectOptions) *Collector {
	return CollectFromStoreCtx(context.Background(), db, opts)
}

// CollectFromStoreCtx is CollectFromStoreOpts under a caller trace: the
// replay runs as an "analysis.replay" span parented to ctx, the scan path
// taken is recorded as the span's scan_mode attribute (chunked, record, or
// grouped), and the returned Collector keeps the replay trace so later
// per-figure aggregations join it as children. Stores exposing the
// context-aware scan capabilities (envdb.ContextChunkScanner,
// envdb.ContextTierScanner) additionally propagate the trace into their
// own scan spans; plain stores replay identically, just untraced below
// this level.
func CollectFromStoreCtx(ctx context.Context, db envdb.DB, opts CollectOptions) *Collector {
	defer timed("collect_from_store")()
	ctx, span := obs.Span(ctx, "analysis.replay")
	defer span.End()
	c := NewCollector()
	c.ctx = ctx
	mode := "grouped"
	// The replay surfaces are error-free; a merged-scan failure means
	// in-process corruption — the same invariant the tsdb query surface
	// treats as panic-worthy.
	if cs, ok := db.(envdb.ChunkScanner); ok {
		mode = "chunked"
		if _, err := replayChunkedHallCtx(ctx, cs, opts.Workers, opts.Hall, c); err != nil {
			panic(err)
		}
	} else if ss, ok := db.(envdb.ShardScanner); ok {
		mode = "record"
		if _, err := replayMergedHallCtx(ctx, ss, opts.Workers, opts.Hall, c); err != nil {
			panic(err)
		}
	} else {
		replayGrouped(db, opts.Hall, c)
	}
	span.SetAttr("scan_mode", mode)
	c.Finalize()
	return c
}

// tickAccum groups a time-ordered record stream into monitor ticks and
// feeds them to the collector; shared by the record-at-a-time and chunked
// replays so both produce identical figures by construction.
//
// Grouping keys are unix nanoseconds, not time.Time: == on time.Time
// compares wall clock and location too, so identical instants from
// different sources (Chicago-simulated vs UTC CSV-reimported telemetry)
// would split into separate ticks and corrupt the reconstructed system
// power.
type tickAccum struct {
	c       *Collector
	tick    []sensors.Record
	curN    int64
	maxTick int
}

func newTickAccum(c *Collector) *tickAccum {
	return &tickAccum{c: c, tick: make([]sensors.Record, 0, topology.NumRacks)}
}

// visit appends one record of instant k; a new instant flushes the
// previous tick first.
func (a *tickAccum) visit(k int64, r sensors.Record) {
	if len(a.tick) != 0 && k != a.curN {
		a.flush()
	}
	a.curN = k
	a.tick = append(a.tick, r)
}

// flush replays the buffered tick: system power is reconstructed as the
// sum of rack powers at the instant.
func (a *tickAccum) flush() {
	if len(a.tick) == 0 {
		return
	}
	var totalPower units.Watts
	for _, r := range a.tick {
		totalPower += r.Power
	}
	a.c.OnTick(a.tick[0].Time, totalPower, nanUtil)
	for _, r := range a.tick {
		a.c.OnSample(r)
	}
	if len(a.tick) > a.maxTick {
		a.maxTick = len(a.tick)
	}
	a.tick = a.tick[:0]
}

// replayMerged streams a merged (global time order, rack-ascending within
// an instant) record-at-a-time scan through the collector. It returns the
// peak tick-buffer length so tests can pin the O(racks) memory bound.
func replayMerged(ss envdb.ShardScanner, workers int, c *Collector) (maxTick int, err error) {
	return replayMergedHallCtx(context.Background(), ss, workers, 0, c)
}

func replayMergedHallCtx(ctx context.Context, ss envdb.ShardScanner, workers, hall int, c *Collector) (maxTick int, err error) {
	acc := newTickAccum(c)
	visit := func(r sensors.Record) bool {
		if r.Rack.Hall != hall {
			return true
		}
		acc.visit(r.Time.UnixNano(), r)
		return true
	}
	// Tiered store: replay raw samples only. Downsampled window records
	// are aggregate stand-ins, not monitor ticks.
	tierVisit := func(r sensors.Record, tier envdb.Tier) bool {
		if tier != envdb.TierRaw {
			return true
		}
		return visit(r)
	}
	if cts, ok := ss.(envdb.ContextTierScanner); ok {
		err = cts.EachRecordMergedTierCtx(ctx, workers, tierVisit)
	} else if ts, ok := ss.(envdb.TierScanner); ok {
		err = ts.EachRecordMergedTier(workers, tierVisit)
	} else {
		err = ss.EachRecordMerged(workers, visit)
	}
	if err != nil {
		return acc.maxTick, err
	}
	acc.flush()
	return acc.maxTick, nil
}

// replayChunked is replayMerged over the batch-columnar scan surface: tick
// boundaries are found on the raw int64 timestamp column and records are
// materialized only as they enter the tick buffer. Chunks carry the tier
// column, so cold-tier rows are skipped without a separate capability
// probe. Chunk.Record materializes from the same decoded columns the
// record surface reads, so the resulting figures are bit-identical to the
// record-at-a-time replay.
func replayChunked(cs envdb.ChunkScanner, workers int, c *Collector) (maxTick int, err error) {
	return replayChunkedHallCtx(context.Background(), cs, workers, 0, c)
}

func replayChunkedHallCtx(ctx context.Context, cs envdb.ChunkScanner, workers, hall int, c *Collector) (maxTick int, err error) {
	acc := newTickAccum(c)
	// The hall filter runs on the packed-code column (hall in the high
	// byte), so off-hall rows never materialize a record.
	hallCode := uint16(hall) << 8
	visit := func(ch *envdb.Chunk) bool {
		for i, k := range ch.Times {
			if ch.Tiers[i] != envdb.TierRaw || ch.Racks[i]&0xFF00 != hallCode {
				continue
			}
			acc.visit(k, ch.Record(i))
		}
		return true
	}
	if ccs, ok := cs.(envdb.ContextChunkScanner); ok {
		err = ccs.EachChunkMergedCtx(ctx, workers, visit)
	} else {
		err = cs.EachChunkMerged(workers, visit)
	}
	if err != nil {
		return acc.maxTick, err
	}
	acc.flush()
	return acc.maxTick, nil
}

// replayGrouped is the fallback for stores without merged scans: buffer
// the whole trace, group records into ticks by instant, and replay in
// sorted order. O(trace) memory — kept only for envdb.DB implementations
// outside this module.
func replayGrouped(db envdb.DB, hall int, c *Collector) {
	byTick := make(map[int64][]sensors.Record)
	var order []int64
	db.EachRecord(func(r sensors.Record) {
		if r.Rack.Hall != hall {
			return
		}
		k := r.Time.UnixNano()
		if _, ok := byTick[k]; !ok {
			order = append(order, k)
		}
		byTick[k] = append(byTick[k], r)
	})
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	for _, k := range order {
		recs := byTick[k]
		var totalPower units.Watts
		for _, r := range recs {
			totalPower += r.Power
		}
		c.OnTick(recs[0].Time, totalPower, nanUtil)
		for _, r := range recs {
			c.OnSample(r)
		}
	}
}

// nanUtil marks utilization as unknown in offline mode.
var nanUtil = func() float64 {
	var zero float64
	return zero / zero // NaN
}()

// rackMeansPushdown computes each rack's whole-trace mean of one metric
// via aggregation pushdown: one single-window Aggregate per rack, so only
// that metric's compressed column is decoded and no records are
// materialized. For quantized channels the sums accumulate in the integer
// domain, which makes the means exact and compaction-invariant: the same
// value before and after the store's cold range is downsampled. They agree
// with a full float-order replay to within summation-order rounding.
func rackMeansPushdown(ctx context.Context, db envdb.Aggregator, m sensors.Metric, from, to time.Time, hall int) ([]float64, error) {
	ca, traced := db.(envdb.ContextAggregator)
	out := make([]float64, topology.NumRacks)
	for i := range out {
		rack := topology.RackByIndex(i)
		rack.Hall = hall
		var aggs []envdb.WindowAgg
		var err error
		if traced {
			aggs, err = ca.AggregateCtx(ctx, rack, m, from, to, 0)
		} else {
			aggs, err = db.Aggregate(rack, m, from, to, 0)
		}
		if err != nil {
			return nil, err
		}
		if len(aggs) == 0 {
			out[i] = nanUtil
			continue
		}
		out[i] = aggs[0].Mean()
	}
	return out, nil
}

// Fig7CoolantPushdown computes the Fig. 7 panels straight from compressed
// columns, skipping record materialization and the replay entirely — the
// fast path when only per-rack means are needed. Results match
// Fig7RackCoolant after a full replay of the same store up to float
// summation order, and are identical before and after retention
// compaction (the cold tier stores exact sums).
func Fig7CoolantPushdown(db envdb.Aggregator) (RackCoolant, error) {
	return Fig7CoolantPushdownCtx(context.Background(), db)
}

// Fig7CoolantPushdownCtx is Fig7CoolantPushdown under a caller trace: the
// per-rack Aggregate sweep runs as children of an "analysis.fig7_pushdown"
// span parented to ctx (when the store implements envdb.ContextAggregator).
func Fig7CoolantPushdownCtx(ctx context.Context, db envdb.Aggregator) (RackCoolant, error) {
	return Fig7CoolantPushdownHall(ctx, db, 0)
}

// Fig7CoolantPushdownHall is Fig7CoolantPushdownCtx scoped to one machine
// hall of a fleet store (hall 0 is the whole store for single-machine
// trees) — the pushdown analogue of CollectOptions.Hall.
func Fig7CoolantPushdownHall(ctx context.Context, db envdb.Aggregator, hall int) (RackCoolant, error) {
	defer timed("fig7_rack_coolant_pushdown")()
	ctx, span := obs.Span(ctx, "analysis.fig7_pushdown")
	defer span.End()
	first, last, ok := db.Bounds()
	if !ok {
		return RackCoolant{}, nil
	}
	to := last.Add(time.Nanosecond)
	flow, err := rackMeansPushdown(ctx, db, sensors.MetricFlow, first, to, hall)
	if err != nil {
		return RackCoolant{}, err
	}
	inlet, err := rackMeansPushdown(ctx, db, sensors.MetricInletTemp, first, to, hall)
	if err != nil {
		return RackCoolant{}, err
	}
	outlet, err := rackMeansPushdown(ctx, db, sensors.MetricOutletTemp, first, to, hall)
	if err != nil {
		return RackCoolant{}, err
	}
	return RackCoolant{
		FlowGPM: flow, InletF: inlet, OutletF: outlet,
		FlowSpreadPct:   stats.SpreadPercent(flow),
		InletSpreadPct:  stats.SpreadPercent(inlet),
		OutletSpreadPct: stats.SpreadPercent(outlet),
	}, nil
}

// Fig9AmbientPushdown computes the Fig. 9 panels via aggregation
// pushdown; matches Fig9RackAmbient after a full replay of the same store
// up to float summation order, and is compaction-invariant.
func Fig9AmbientPushdown(db envdb.Aggregator) (RackAmbient, error) {
	return Fig9AmbientPushdownCtx(context.Background(), db)
}

// Fig9AmbientPushdownCtx is Fig9AmbientPushdown under a caller trace; see
// Fig7CoolantPushdownCtx.
func Fig9AmbientPushdownCtx(ctx context.Context, db envdb.Aggregator) (RackAmbient, error) {
	return Fig9AmbientPushdownHall(ctx, db, 0)
}

// Fig9AmbientPushdownHall is Fig9AmbientPushdownCtx scoped to one machine
// hall; see Fig7CoolantPushdownHall.
func Fig9AmbientPushdownHall(ctx context.Context, db envdb.Aggregator, hall int) (RackAmbient, error) {
	defer timed("fig9_rack_ambient_pushdown")()
	ctx, span := obs.Span(ctx, "analysis.fig9_pushdown")
	defer span.End()
	first, last, ok := db.Bounds()
	if !ok {
		return RackAmbient{}, nil
	}
	to := last.Add(time.Nanosecond)
	temp, err := rackMeansPushdown(ctx, db, sensors.MetricDCTemperature, first, to, hall)
	if err != nil {
		return RackAmbient{}, err
	}
	hum, err := rackMeansPushdown(ctx, db, sensors.MetricDCHumidity, first, to, hall)
	if err != nil {
		return RackAmbient{}, err
	}
	return ambientFromMeans(temp, hum), nil
}

// ambientFromMeans assembles the Fig. 9 structure from per-rack mean
// vectors; shared by the replay and pushdown paths.
func ambientFromMeans(temp, hum []float64) RackAmbient {
	out := RackAmbient{
		TempF: temp, HumidityRH: hum,
		TempSpreadPct:   stats.SpreadPercent(temp),
		HumSpreadPct:    stats.SpreadPercent(hum),
		MaxHumidityRack: argmaxRack(hum),
	}
	var endT, endH, inT, inH []float64
	for _, r := range topology.AllRacks() {
		if r.DistanceFromRowEnd() < 3 {
			endT = append(endT, temp[r.Index()])
			endH = append(endH, hum[r.Index()])
		} else {
			inT = append(inT, temp[r.Index()])
			inH = append(inH, hum[r.Index()])
		}
	}
	out.RowEndTempExcess = stats.Mean(endT) - stats.Mean(inT)
	out.RowEndHumidityDeficit = stats.Mean(inH) - stats.Mean(endH)
	return out
}
