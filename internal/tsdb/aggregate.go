package tsdb

// Aggregation pushdown: per-window count/min/max/sum straight off the
// compressed columns, for one rack (Aggregate) or for every rack of a hall
// over one whole-range window (AggregateRacks).

import (
	"context"
	"fmt"
	"math"
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
		errs[i] = s.aggregateWhole(ar, metrics, fromN, toN, out[i*k:(i+1)*k])
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
	winN := int64(window)
	if winN <= 0 {
		winN = toN - fromN
	}
	// (span-1)/winN+1 rather than (span+winN-1)/winN: the latter overflows
	// int64 for large spans, silently truncating the window count.
	nWin := (toN-fromN-1)/winN + 1
	if nWin > MaxAggregateWindows {
		return nil, fmt.Errorf("tsdb: aggregate window %v over span %v needs %d windows (max %d): %w",
			window, time.Duration(toN-fromN), nWin, int64(MaxAggregateWindows), envdb.ErrAggregateShape)
	}
	ar := pointRead(s.readShard(rack), fromN, toN)
	defer ar.release()
	if nWin == 1 {
		out := make([]WindowAgg, 1)
		if err := s.aggregateWhole(ar, []sensors.Metric{m}, fromN, toN, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	loc := s.location()
	out := make([]WindowAgg, nWin)
	for k := range out {
		out[k] = WindowAgg{
			Start: time.Unix(0, fromN+int64(k)*winN).In(loc),
			Min:   math.NaN(),
			Max:   math.NaN(),
		}
	}
	// Sums accumulate twice: in float (always valid) and in the quantized
	// integer domain. Integer addition is associative, so when every
	// contribution stays integral the integer totals replace the float
	// sums at the end — making Sum independent of accumulation order and
	// therefore identical before and after compaction.
	scale := channelScales[m]
	exact := true
	ar.sums = int64Slice(ar.sums, int(nWin))
	sumsI := ar.sums
	clear(sumsI)
	for _, bv := range ar.views {
		sp, err := ar.span(bv, fromN, toN)
		if err != nil {
			return nil, err
		}
		ts, lo, hi := sp.ts, sp.lo, sp.hi
		if lo >= hi {
			continue
		}
		if d := bv.down; d != nil {
			counts, err := d.recordCounts()
			if err != nil {
				return nil, err
			}
			col, err := d.channelAgg(m, counts)
			if err != nil {
				return nil, err
			}
			for i := lo; i < hi; i++ {
				k := (ts[i] - fromN) / winN
				w := &out[k]
				var mn, mx, sm float64
				if col.scale > 0 {
					mn = float64(col.minsI[i]) / col.scale
					mx = float64(col.maxsI[i]) / col.scale
					sm = float64(col.sumsI[i]) / col.scale
					if exact && col.scale == scale {
						if s2, ok := addInt64(sumsI[k], col.sumsI[i]); ok {
							sumsI[k] = s2
						} else {
							exact = false
						}
					} else {
						exact = false
					}
				} else {
					exact = false
					mn, mx, sm = col.minsF[i], col.maxsF[i], col.sumsF[i]
				}
				if w.Count == 0 || mn < w.Min {
					w.Min = mn
				}
				if w.Count == 0 || mx > w.Max {
					w.Max = mx
				}
				w.Sum += sm
				w.Count += int(counts[i])
			}
			continue
		}
		if b := bv.sealed; b != nil && exact && b.ch[m].enc == encIntPacked && b.ch[m].scale == scale {
			// Raw integer fast path: decode the quantized column once and
			// derive the float values by division — the same work as the
			// generic decode, plus the integer accumulation for free.
			ints, err := ar.quantized(sp, m)
			if err != nil {
				return nil, err
			}
			for i := lo; i < hi; i++ {
				k := (ts[i] - fromN) / winN
				w := &out[k]
				v := float64(ints[i]) / scale
				if w.Count == 0 || v < w.Min {
					w.Min = v
				}
				if w.Count == 0 || v > w.Max {
					w.Max = v
				}
				w.Sum += v
				w.Count++
				if exact {
					if s2, ok := addInt64(sumsI[k], ints[i]); ok {
						sumsI[k] = s2
					} else {
						exact = false
					}
				}
			}
			continue
		}
		col, err := ar.values(sp, m)
		if err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			k := (ts[i] - fromN) / winN
			w := &out[k]
			v := col[i]
			if w.Count == 0 || v < w.Min {
				w.Min = v
			}
			if w.Count == 0 || v > w.Max {
				w.Max = v
			}
			w.Sum += v
			w.Count++
			if exact {
				// Head values were quantized on ingest, so they round-trip
				// through the integer grid; anything that doesn't (raw-
				// precision channels, XOR fallback) demotes the whole query
				// to float sums.
				n := math.Round(v * scale)
				if !(math.Abs(n) < maxQuantized) || float64(int64(n))/scale != v {
					exact = false
				} else if s2, ok := addInt64(sumsI[k], int64(n)); ok {
					sumsI[k] = s2
				} else {
					exact = false
				}
			}
		}
	}
	if exact {
		for k := range out {
			if out[k].Count > 0 {
				out[k].Sum = float64(sumsI[k]) / scale
			}
		}
	}
	return out, nil
}

// wholeAgg is one metric's running whole-range window: the windowed
// kernel's per-window state for its single window, plus the query-wide
// exactness flag that kernel keeps per call.
type wholeAgg struct {
	count         int
	min, max, sum float64
	sumI          int64
	exact         bool
}

// addValue folds one decoded sample, checking it against the integer grid.
func (a *wholeAgg) addValue(v float64, scale float64) {
	if a.count == 0 || v < a.min {
		a.min = v
	}
	if a.count == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.count++
	if a.exact {
		// Head values were quantized on ingest, so they round-trip through
		// the integer grid; anything that doesn't (raw-precision channels,
		// XOR fallback) demotes the whole query to float sums.
		n := math.Round(v * scale)
		if !(math.Abs(n) < maxQuantized) || float64(int64(n))/scale != v {
			a.exact = false
		} else if s2, ok := addInt64(a.sumI, int64(n)); ok {
			a.sumI = s2
		} else {
			a.exact = false
		}
	}
}

// addInts folds a run of quantized samples of a sealed integer column.
func (a *wholeAgg) addInts(ints []int64, scale float64) {
	cnt, mn, mx, sm, sumI, exact := a.count, a.min, a.max, a.sum, a.sumI, a.exact
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
	a.count, a.min, a.max, a.sum, a.sumI, a.exact = cnt, mn, mx, sm, sumI, exact
}

// addDown folds compacted windows [lo, hi) of a downsampled column.
func (a *wholeAgg) addDown(col downColumn, counts []int64, lo, hi int, scale float64) {
	for i := lo; i < hi; i++ {
		var mn, mx, sm float64
		if col.scale > 0 {
			mn = float64(col.minsI[i]) / col.scale
			mx = float64(col.maxsI[i]) / col.scale
			sm = float64(col.sumsI[i]) / col.scale
			if a.exact && col.scale == scale {
				if s2, ok := addInt64(a.sumI, col.sumsI[i]); ok {
					a.sumI = s2
				} else {
					a.exact = false
				}
			} else {
				a.exact = false
			}
		} else {
			a.exact = false
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

// aggregateWhole is the single-window kernel behind Aggregate's one-window
// queries and AggregateRacks: it folds the rows in [fromN, toN) of ar's
// views into out[j] for metrics[j]. It accumulates exactly as the windowed
// kernel does for its one window — same rows, same order, same
// integer-domain sums — without the per-row window division, and decodes
// each block's timestamps once for all metrics, into the arena.
func (s *Store) aggregateWhole(ar *readArena, metrics []sensors.Metric, fromN, toN int64, out []WindowAgg) error {
	// A stack array holds any list of distinct metrics, so a one-window
	// Aggregate allocates only its result.
	var few [sensors.NumMetrics]wholeAgg
	accs := few[:]
	if len(metrics) > len(few) {
		accs = make([]wholeAgg, len(metrics))
	}
	accs = accs[:len(metrics)]
	for j := range accs {
		accs[j].exact = true
	}
	for _, bv := range ar.views {
		sp, err := ar.span(bv, fromN, toN)
		if err != nil {
			return err
		}
		lo, hi := sp.lo, sp.hi
		if lo >= hi {
			continue
		}
		if d := bv.down; d != nil {
			counts, err := d.recordCounts()
			if err != nil {
				return err
			}
			for j, m := range metrics {
				col, err := d.channelAgg(m, counts)
				if err != nil {
					return err
				}
				accs[j].addDown(col, counts, lo, hi, channelScales[m])
			}
			continue
		}
		for j, m := range metrics {
			a := &accs[j]
			scale := channelScales[m]
			if b := bv.sealed; b != nil && a.exact && b.ch[m].enc == encIntPacked && b.ch[m].scale == scale {
				// Raw integer fast path: decode the quantized column and
				// derive the float values by division, accumulating the
				// integer sum alongside.
				ints, err := ar.quantized(sp, m)
				if err != nil {
					return err
				}
				a.addInts(ints[lo:hi], scale)
				continue
			}
			col, err := ar.values(sp, m)
			if err != nil {
				return err
			}
			for _, v := range col[lo:hi] {
				a.addValue(v, scale)
			}
		}
	}
	start := time.Unix(0, fromN).In(s.location())
	for j := range accs {
		a := &accs[j]
		w := WindowAgg{Start: start, Count: a.count, Min: math.NaN(), Max: math.NaN(), Sum: a.sum}
		if a.count > 0 {
			w.Min, w.Max = a.min, a.max
			if a.exact {
				w.Sum = float64(a.sumI) / channelScales[metrics[j]]
			}
		}
		out[j] = w
	}
	return nil
}

var _ envdb.Aggregator = (*Store)(nil)
