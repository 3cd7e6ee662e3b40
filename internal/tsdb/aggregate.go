package tsdb

// Aggregation pushdown: per-window count/min/max/sum straight off the
// compressed columns, for one rack (Aggregate) or for every rack of a hall
// over one whole-range window (AggregateRacks).

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/parallel"
	"mira/internal/sensors"
	"mira/internal/topology"
)

// WindowAgg is one aggregation window of Store.Aggregate. The type lives
// in envdb (shared with the slice-backed store's Aggregator capability);
// the alias keeps tsdb's historical name working.
type WindowAgg = envdb.WindowAgg

// MaxAggregateWindows caps how many windows one Aggregate call may
// materialize. A pathological window (1ns over a six-year range is ~2e17
// windows) would otherwise OOM the process before a single sample is
// read; 4Mi windows is ~256 MiB of WindowAgg, far beyond any legitimate
// figure resolution.
const MaxAggregateWindows = 4 << 20

// Aggregate computes min/max/sum/count of one metric per fixed window over
// [from, to) — aggregation pushdown: only the metric's compressed column is
// decoded, block by block, and no records are materialized. Windows are
// aligned to from; a non-positive window yields a single window spanning
// the whole range. Empty windows are included with Count 0. It errors when
// the window count would exceed MaxAggregateWindows or the metric is
// unknown (both wrap envdb.ErrAggregateShape), or a block fails to decode.
//
// Downsampled blocks answer from their stored per-window count/sum/min/max
// columns; each compacted window is attributed to the aggregation window
// containing its start. For decimal-quantized channels (the default for
// all six) sums accumulate in the integer domain, so the result is exact —
// equal to aggregating the pre-compaction raw records — whenever the
// query's window grid does not split compacted windows: [from, to) aligned
// to the compaction-window grid with window a multiple of the compaction
// window (or a single whole-range window). Under that precondition count,
// min, and max are exact on every channel, including XOR-fallback ones —
// only XOR-fallback sums stay float-order approximate across tiers. A grid
// that does split compacted windows attributes each cold window to the
// aggregation window containing its start.
func (s *Store) Aggregate(rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]WindowAgg, error) {
	s.init()
	return s.aggregate(rack, m, from, to, window)
}

// AggregateCtx implements envdb.Aggregator's traced form: Aggregate as a child
// span of ctx's trace. The plain Aggregate deliberately starts no span —
// it runs on untraced hot paths (pushdown sweeps) where a root trace per
// call would be noise.
func (s *Store) AggregateCtx(ctx context.Context, rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]WindowAgg, error) {
	s.init()
	_, span := obs.Span(ctx, "tsdb.aggregate")
	defer span.End()
	aggs, err := s.aggregate(rack, m, from, to, window)
	if err == nil {
		span.SetAttr("rack", rack.String())
		span.SetAttr("windows", strconv.Itoa(len(aggs)))
	}
	return aggs, err
}

// AggregateRacks implements envdb.Aggregator's hall-wide form: one
// whole-range window per (rack, metric) of hall, rack-major, each equal to
// the single window of AggregateCtx(ctx, rack, m, from, to, 0). Each rack
// is snapshotted once and every block's timestamps are decoded once for
// all metrics; the hall's racks are spread over GOMAXPROCS workers.
func (s *Store) AggregateRacks(ctx context.Context, hall int, metrics []sensors.Metric, from, to time.Time) ([]WindowAgg, error) {
	s.init()
	_, span := obs.Span(ctx, "tsdb.aggregate_racks")
	defer span.End()
	defer metQueryDur.With(opAggregateRacks).ObserveSince(time.Now())
	fromN, toN := from.UnixNano(), to.UnixNano()
	if toN <= fromN {
		return nil, nil
	}
	for _, m := range metrics {
		if err := checkMetric(m); err != nil {
			return nil, err
		}
	}
	k := len(metrics)
	out := make([]WindowAgg, topology.NumRacks*k)
	errs := make([]error, topology.NumRacks)
	parallel.For(topology.NumRacks, func(i int) {
		rack := topology.RackByIndex(i)
		rack.Hall = hall
		ar := pointRead(s.readShard(rack), fromN, toN)
		errs[i] = s.aggregateRange(ar, metrics, fromN, toN, 0, out[i*k:(i+1)*k])
		ar.release()
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	span.SetAttr("hall", strconv.Itoa(hall))
	span.SetAttr("windows", strconv.Itoa(len(out)))
	return out, nil
}

// checkMetric refuses a metric no channel stores.
func checkMetric(m sensors.Metric) error {
	if m < 0 || m >= sensors.NumMetrics {
		return fmt.Errorf("tsdb: aggregate of unknown metric %d: %w", int(m), envdb.ErrAggregateShape)
	}
	return nil
}

func (s *Store) aggregate(rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]WindowAgg, error) {
	defer metQueryDur.With(opAggregate).ObserveSince(time.Now())
	fromN, toN := from.UnixNano(), to.UnixNano()
	if toN <= fromN {
		return nil, nil
	}
	if err := checkMetric(m); err != nil {
		return nil, err
	}
	// The span as an unsigned difference is exact even where toN - fromN
	// overflows int64, as it does for a range over most representable
	// instants. (span-1)/window+1 rather than (span+window-1)/window: the
	// latter overflows for large spans, silently truncating the count.
	nWin := uint64(1)
	if window > 0 {
		nWin = (uint64(toN)-uint64(fromN)-1)/uint64(window) + 1
	}
	if nWin > MaxAggregateWindows {
		return nil, fmt.Errorf("tsdb: aggregate window %v over span %v needs %d windows (max %d): %w",
			window, time.Duration(toN-fromN), nWin, int64(MaxAggregateWindows), envdb.ErrAggregateShape)
	}
	ar := pointRead(s.readShard(rack), fromN, toN)
	defer ar.release()
	out := make([]WindowAgg, nWin)
	if err := s.aggregateRange(ar, []sensors.Metric{m}, fromN, toN, int64(window), out); err != nil {
		return nil, err
	}
	return out, nil
}

// windowAcc is one (window, metric) accumulator of aggregateRange.
type windowAcc struct {
	count         int
	min, max, sum float64
	sumI          int64
}

// addValue folds one decoded sample, checking it against the integer grid.
func (a *windowAcc) addValue(v float64, scale float64, exact *bool) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.count++
	if *exact {
		// Head values were quantized on ingest, so they round-trip through
		// the integer grid; anything that doesn't (raw-precision channels,
		// XOR fallback) demotes the metric to float sums.
		n := math.Round(v * scale)
		if !(math.Abs(n) < maxQuantized) || float64(int64(n))/scale != v {
			*exact = false
		} else if s2, ok := addInt64(a.sumI, int64(n)); ok {
			a.sumI = s2
		} else {
			*exact = false
		}
	}
}

// addInts folds a run of quantized samples of a sealed integer column.
func (a *windowAcc) addInts(ints []int64, scale float64, exactp *bool) {
	cnt, mn, mx, sm, sumI, exact := a.count, a.min, a.max, a.sum, a.sumI, *exactp
	for _, n := range ints {
		v := float64(n) / scale
		if cnt == 0 || v < mn {
			mn = v
		}
		if cnt == 0 || v > mx {
			mx = v
		}
		sm += v
		cnt++
		if exact {
			if s2, ok := addInt64(sumI, n); ok {
				sumI = s2
			} else {
				exact = false
			}
		}
	}
	a.count, a.min, a.max, a.sum, a.sumI, *exactp = cnt, mn, mx, sm, sumI, exact
}

// addDown folds compacted windows [lo, hi) of a downsampled column.
func (a *windowAcc) addDown(col downColumn, counts []int64, lo, hi int, scale float64, exact *bool) {
	for i := lo; i < hi; i++ {
		var mn, mx, sm float64
		if col.scale > 0 {
			mn = float64(col.minsI[i]) / col.scale
			mx = float64(col.maxsI[i]) / col.scale
			sm = float64(col.sumsI[i]) / col.scale
			if *exact && col.scale == scale {
				if s2, ok := addInt64(a.sumI, col.sumsI[i]); ok {
					a.sumI = s2
				} else {
					*exact = false
				}
			} else {
				*exact = false
			}
		} else {
			*exact = false
			mn, mx, sm = col.minsF[i], col.maxsF[i], col.sumsF[i]
		}
		if a.count == 0 || mn < a.min {
			a.min = mn
		}
		if a.count == 0 || mx > a.max {
			a.max = mx
		}
		a.sum += sm
		a.count += int(counts[i])
	}
}

// aggregateRange is the aggregation kernel behind Aggregate and
// AggregateRacks: it folds the rows in [fromN, toN) of ar's views into
// len(out)/len(metrics) windows of winN aligned to fromN (one whole-range
// window, winN unused, when that is 1), out[w·len(metrics) + j] holding
// window w of metrics[j]. Each view is one
// point read of a blockReader (readRange), which decodes each block's
// timestamps once for all metrics; the run is split at window edges, one
// binary search per window, and each piece folds with addInts (a sealed
// integer column, whose integers are the sums' own grid), addDown (the
// stored aggregates of a cold block's windows, each attributed to the
// window holding its start) or addValue. Sums accumulate twice: in float
// (always valid) and in the quantized integer domain. Integer addition is
// associative, so when every contribution of a metric, in any window,
// stays integral, the integer totals replace its float sums at the end —
// making Sum independent of accumulation order and therefore identical
// before and after compaction.
func (s *Store) aggregateRange(ar *readArena, metrics []sensors.Metric, fromN, toN, winN int64, out []WindowAgg) error {
	k := len(metrics)
	if k == 0 {
		return nil
	}
	nWin := len(out) / k
	ar.accs = slices.Grow(ar.accs[:0], len(out))[:len(out)]
	accs := ar.accs
	clear(accs)
	// A stack array holds any list of distinct metrics, so an Aggregate
	// allocates only its result.
	var few [sensors.NumMetrics]bool
	exact := few[:0]
	if k > len(few) {
		exact = make([]bool, 0, k)
	}
	var cols colSet
	for _, m := range metrics {
		exact = append(exact, true)
		cols |= colOf(m)
	}
	var rd blockReader
	for _, bv := range ar.views {
		rd.reset(bv)
		ask := cols
		if bv.down != nil {
			ask = colTimes // a cold block folds its stored aggregates
		}
		run, lo, hi, err := rd.readRange(fromN, toN, ask, &ar.scanArena)
		if err != nil {
			return err
		}
		for i := lo; i < hi; {
			w, j := 0, hi
			if nWin > 1 {
				w = int(uint64(run.times[i]-fromN) / uint64(winN))
			}
			if w < nWin-1 {
				e, _ := slices.BinarySearch(run.times[i:hi], fromN+int64(w+1)*winN)
				j = i + e
			}
			for x, m := range metrics {
				a, scale := &accs[w*k+x], channelScales[m]
				switch ints := run.ints[m]; {
				case bv.down != nil:
					col, counts, err := rd.coldAgg(m)
					if err != nil {
						return err
					}
					a.addDown(col, counts, run.row+i, run.row+j, scale, &exact[x])
				case ints != nil && run.scale[m] == scale:
					a.addInts(ints[i:j], scale, &exact[x])
				default:
					for _, v := range ar.floats(run, int(m), i, j)[i:j] {
						a.addValue(v, scale, &exact[x])
					}
				}
			}
			i = j
		}
	}
	loc := s.location()
	for w := range nWin {
		start := time.Unix(0, fromN+int64(w)*winN).In(loc)
		for x, m := range metrics {
			a := &accs[w*k+x]
			o := WindowAgg{Start: start, Count: a.count, Min: math.NaN(), Max: math.NaN(), Sum: a.sum}
			if a.count > 0 {
				o.Min, o.Max = a.min, a.max
				if exact[x] {
					o.Sum = float64(a.sumI) / channelScales[m]
				}
			}
			out[w*k+x] = o
		}
	}
	// A fine grid over a long range (up to MaxAggregateWindows) does not
	// leave its accumulators pinned in the pool.
	if len(accs) > 1<<16 {
		ar.accs = nil
	}
	return nil
}

var _ envdb.Aggregator = (*Store)(nil)
