package analysis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/stats"
	"mira/internal/topology"
	"mira/internal/units"
)

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

// CollectFromStoreCtx replays an environmental database — the slice-backed
// envdb.Store, the compressed tsdb.Store (e.g. telemetry re-imported from
// a mirasim CSV export) or a remote telemetrynet.Client — through a
// Collector, enabling offline analysis of stored traces. System power is
// reconstructed as the sum of rack powers per tick; utilization is
// unavailable offline, so the utilization-dependent panels of Figs. 2, 4–6
// read NaN while every coolant/ambient figure (3, 7, 8, 9) is fully
// usable.
//
// The replay is one streaming pass over the store's merged chunk scan,
// local and remote alike: it reads the chunk columns in place and feeds
// the collector plain values, so no record is materialized and the only
// per-tick state is a row count and a power sum, regardless of trace
// length. It runs as an "analysis.replay" span parented to ctx, the scan
// joins that trace, and the returned Collector keeps it so later
// per-figure aggregations join it as children.
//
// Stores with a downsampled cold tier replay the hot window only: a cold
// window's mean record is not a sample, so feeding it to the tick/incident
// pipeline would fabricate ticks. Replay figures therefore cover the
// retained full-rate range, while the Fig. 7/9 pushdown figures aggregate
// across both tiers exactly.
func CollectFromStoreCtx(ctx context.Context, db envdb.DB, opts CollectOptions) *Collector {
	defer timed("collect_from_store")()
	ctx, span := obs.Span(ctx, "analysis.replay")
	defer span.End()
	c := NewCollector()
	c.ctx = ctx
	// The replay surface is error-free; a scan failure means in-process
	// corruption or a lost remote store — the same invariant the error-free
	// query surfaces treat as panic-worthy.
	if _, err := replay(ctx, db, opts.Workers, opts.Hall, c); err != nil {
		panic(err)
	}
	c.Finalize()
	return c
}

// replay streams db's merged chunk scan through the collector, straight
// from the chunk columns. Ticks are grouped on the raw int64 timestamp
// column: == on time.Time compares location too, so Chicago-simulated and
// UTC-reimported telemetry of one instant would split into two ticks and
// halve the reconstructed system power. Cold-tier rows and rows of other
// halls are skipped on the packed-code column (hall in the high byte); a
// kept row's values go to Collector.sample with the code's low byte as
// the rack index.
//
// The first row of an instant flushes the previous tick's plant-flow
// sums, and the tick's system power — its rack powers summed in row
// order — is added when the next instant or the scan's end closes it, so
// every accumulator sees the observations the live OnTick-then-OnSample
// order gives it. It returns the most rows one tick spanned so tests can
// pin the one-sample-per-rack tick shape.
func replay(ctx context.Context, db envdb.DB, workers, hall int, c *Collector) (maxTick int, err error) {
	hallCode := uint16(hall) << 8
	var (
		cur   int64       // the open tick's instant
		rows  int         // its rows so far; 0 before the first
		power units.Watts // its summed rack power
		bad   error
	)
	endTick := func() {
		if rows == 0 {
			return
		}
		c.addSystem(time.Unix(0, cur), power, nanUtil)
		maxTick = max(maxTick, rows)
		rows, power = 0, 0
	}
	err = db.EachChunkMergedCtx(ctx, workers, func(ch *envdb.Chunk) bool {
		cols := &ch.Cols
		for i, k := range ch.Times {
			code := ch.Racks[i]
			if ch.Tiers[i] != envdb.TierRaw || code&0xFF00 != hallCode {
				continue
			}
			rack := int(code & 0xFF)
			if rack >= topology.NumRacks {
				// Scanners emit only valid codes (the wire decoder rejects
				// bad ones), so a bad code here is in-process corruption.
				_, bad = topology.RackFromCode(code)
				return false
			}
			if rows == 0 || k != cur {
				endTick()
				cur = k
				t := time.Unix(0, k)
				c.beginTick(t)
				c.resolve(t)
			}
			p := cols[sensors.MetricPower][i]
			power += units.Watts(p)
			rows++
			c.sample(rack, p, cols[sensors.MetricFlow][i], cols[sensors.MetricInletTemp][i],
				cols[sensors.MetricOutletTemp][i], cols[sensors.MetricDCTemperature][i], cols[sensors.MetricDCHumidity][i])
		}
		return true
	})
	if err == nil {
		err = bad
	}
	if err == nil {
		endTick()
	}
	return maxTick, err
}

// nanUtil marks utilization as unknown in offline mode.
var nanUtil = func() float64 {
	var zero float64
	return zero / zero // NaN
}()

// wholeFrom and wholeTo are the widest range a store accepts, every
// instant a UnixNano can name: a whole-trace aggregate asks for it instead
// of first fetching the store's bounds, which is one more request on a
// remote store.
var (
	wholeFrom = time.Unix(0, math.MinInt64)
	wholeTo   = time.Unix(0, math.MaxInt64)
)

// rackMeansPushdown computes each rack's whole-trace mean of every metric
// (out[j] for metrics[j]) via aggregation pushdown: one hall-wide
// AggregateRacks call over [wholeFrom, wholeTo), so only those metrics'
// compressed columns are decoded and no records are materialized — and a
// remote store answers in one request. It returns nil when the hall holds
// no sample. For quantized channels the sums accumulate in the integer
// domain, which makes the means exact and compaction-invariant: the same
// value before and after the store's cold range is downsampled. They agree
// with a full float-order replay to within summation-order rounding.
func rackMeansPushdown(ctx context.Context, db envdb.Aggregator, hall int, metrics ...sensors.Metric) ([][]float64, error) {
	aggs, err := db.AggregateRacks(ctx, hall, metrics, wholeFrom, wholeTo)
	if err != nil {
		return nil, err
	}
	k := len(metrics)
	if len(aggs) != topology.NumRacks*k {
		return nil, fmt.Errorf("analysis: pushdown returned %d windows, want %d", len(aggs), topology.NumRacks*k)
	}
	if !slices.ContainsFunc(aggs, func(a envdb.WindowAgg) bool { return a.Count > 0 }) {
		return nil, nil
	}
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, topology.NumRacks)
		for r := range out[j] {
			out[j][r] = aggs[r*k+j].Mean()
		}
	}
	return out, nil
}

// Fig7CoolantPushdownHall computes the Fig. 7 panels of one machine hall
// (hall 0 is the whole store for single-machine trees — the pushdown
// analogue of CollectOptions.Hall) straight from compressed columns,
// skipping record materialization and the replay entirely — the fast path
// when only per-rack means are needed. The one hall-wide AggregateRacks
// call runs as a child of an "analysis.fig7_pushdown" span parented to
// ctx. Results match Fig7RackCoolant after a full replay of the same store
// up to float summation order, and are identical before and after
// retention compaction (the cold tier stores exact sums). A hall without
// samples yields the zero RackCoolant.
func Fig7CoolantPushdownHall(ctx context.Context, db envdb.Aggregator, hall int) (RackCoolant, error) {
	defer timed("fig7_rack_coolant_pushdown")()
	ctx, span := obs.Span(ctx, "analysis.fig7_pushdown")
	defer span.End()
	means, err := rackMeansPushdown(ctx, db, hall, sensors.MetricFlow, sensors.MetricInletTemp, sensors.MetricOutletTemp)
	if err != nil || means == nil {
		return RackCoolant{}, err
	}
	flow, inlet, outlet := means[0], means[1], means[2]
	return RackCoolant{
		FlowGPM: flow, InletF: inlet, OutletF: outlet,
		FlowSpreadPct:   stats.SpreadPercent(flow),
		InletSpreadPct:  stats.SpreadPercent(inlet),
		OutletSpreadPct: stats.SpreadPercent(outlet),
	}, nil
}

// Fig9AmbientPushdownHall computes the Fig. 9 panels of one machine hall
// via aggregation pushdown; see Fig7CoolantPushdownHall. It matches
// Fig9RackAmbient after a full replay of the same store up to float
// summation order, and is compaction-invariant.
func Fig9AmbientPushdownHall(ctx context.Context, db envdb.Aggregator, hall int) (RackAmbient, error) {
	defer timed("fig9_rack_ambient_pushdown")()
	ctx, span := obs.Span(ctx, "analysis.fig9_pushdown")
	defer span.End()
	means, err := rackMeansPushdown(ctx, db, hall, sensors.MetricDCTemperature, sensors.MetricDCHumidity)
	if err != nil || means == nil {
		return RackAmbient{}, err
	}
	return ambientFromMeans(means[0], means[1]), nil
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
