package tsdb

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/topology"
	"mira/internal/units"
)

// Iter is a streaming cursor over one rack's records in [from, to). It
// decompresses one block at a time against a point-in-time snapshot, so
// scans run without holding locks and without materializing the range.
type Iter struct {
	rack   topology.RackID
	loc    *time.Location
	fromN  int64
	toN    int64
	blocks []blockView

	bi    int
	times []int64
	cols  [sensors.NumMetrics][]float64
	pos   int
	hi    int
	cur   sensors.Record
	err   error
}

// Iter returns a streaming iterator over one rack's records in [from, to).
func (s *Store) Iter(rack topology.RackID, from, to time.Time) *Iter {
	s.init()
	return s.iterShard(rack, s.readShard(rack), from.UnixNano(), to.UnixNano())
}

func (s *Store) iterShard(rack topology.RackID, sh *shard, fromN, toN int64) *Iter {
	snap := sh.snapshot()
	return &Iter{
		rack:   rack,
		loc:    s.location(),
		fromN:  fromN,
		toN:    toN,
		blocks: snap.blocks(),
		pos:    1, // forces block advance on the first Next
		hi:     0,
	}
}

// Next advances the cursor; it returns false when the range is exhausted
// or a block failed to decode (see Err).
func (it *Iter) Next() bool {
	for it.pos+1 >= it.hi {
		if !it.nextBlock() {
			return false
		}
	}
	it.pos++
	it.fill()
	return true
}

// Err reports the first block decode failure the iteration hit, nil on a
// clean scan. Decode failures are only reachable through in-process
// corruption (segments are checksum-verified at Open), so the error-free
// query surface treats a non-nil Err as a panic-worthy invariant violation.
func (it *Iter) Err() error { return it.err }

// nextBlock decodes the next block overlapping the range; false when none.
func (it *Iter) nextBlock() bool {
	if it.err != nil {
		return false
	}
	for ; it.bi < len(it.blocks); it.bi++ {
		bv := it.blocks[it.bi]
		minT, maxT := bv.bounds()
		if minT >= it.toN {
			// Blocks are time-ordered: every later block is past the range
			// too, so stop instead of bounds-checking the whole tail.
			return false
		}
		if maxT < it.fromN {
			continue
		}
		times, err := bv.timestamps()
		if err != nil {
			it.err = err
			return false
		}
		lo, hi := searchRange(times, it.fromN, it.toN)
		if lo >= hi {
			continue
		}
		it.times = times
		for m := range it.cols {
			if it.cols[m], err = bv.channel(sensors.Metric(m)); err != nil {
				it.err = err
				return false
			}
		}
		it.pos = lo - 1
		it.hi = hi
		it.bi++
		return true
	}
	return false
}

func (it *Iter) fill() {
	it.cur = recordAt(it.rack, it.loc, it.times[it.pos], &it.cols, it.pos)
}

// recordAt materializes one record from decoded columnar data; shared by
// the per-rack Iter and the parallel merge iterator so both produce
// bit-identical records from the same stored bytes.
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

// Record returns the record at the cursor; valid after Next returns true.
func (it *Iter) Record() sensors.Record { return it.cur }

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
// the window count would exceed MaxAggregateWindows or a block fails to
// decode.
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

// AggregateCtx implements envdb.ContextAggregator: Aggregate as a child
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

func (s *Store) aggregate(rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]WindowAgg, error) {
	defer metQueryDur.With(opAggregate).ObserveSince(time.Now())
	fromN, toN := from.UnixNano(), to.UnixNano()
	if toN <= fromN {
		return nil, nil
	}
	winN := int64(window)
	if winN <= 0 {
		winN = toN - fromN
	}
	// (span-1)/winN+1 rather than (span+winN-1)/winN: the latter overflows
	// int64 for large spans, silently truncating the window count.
	nWin := (toN-fromN-1)/winN + 1
	if nWin > MaxAggregateWindows {
		return nil, fmt.Errorf("tsdb: aggregate window %v over span %v needs %d windows (max %d)",
			window, time.Duration(toN-fromN), nWin, int64(MaxAggregateWindows))
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
	scale := s.scales[m]
	exact := scale > 0
	sumsI := make([]int64, nWin)
	snap := s.readShard(rack).snapshot()
	for _, bv := range snap.blocks() {
		minT, maxT := bv.bounds()
		if minT >= toN {
			break // blocks are time-ordered: the rest are past the range
		}
		if maxT < fromN {
			continue
		}
		ts, err := bv.timestamps()
		if err != nil {
			return nil, err
		}
		lo, hi := searchRange(ts, fromN, toN)
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
			metDecode.Inc()
			ints, err := decodeIntsPackedInto(nil, b.ch[m].data, b.count)
			if err != nil {
				return nil, b.wrap(m.String(), err)
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
		col, err := bv.channel(m)
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

var (
	_ envdb.Aggregator        = (*Store)(nil)
	_ envdb.ContextAggregator = (*Store)(nil)
)
