package tsdb

import (
	"time"

	"mira/internal/sensors"
	"mira/internal/topology"
	"mira/internal/units"
)

// iter is a streaming cursor over one rack's records in [from, to), the
// row-at-a-time walk behind EachRecordUntil. It decompresses one block at a
// time against a point-in-time snapshot, so scans run without holding locks
// and without materializing the range.
type iter struct {
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

func (s *Store) iterShard(rack topology.RackID, sh *shard, fromN, toN int64) *iter {
	snap := sh.snapshot()
	return &iter{
		rack:   rack,
		loc:    s.location(),
		fromN:  fromN,
		toN:    toN,
		blocks: snap.appendBlocks(nil, fromN, toN),
		pos:    1, // forces block advance on the first Next
		hi:     0,
	}
}

// Next advances the cursor; it returns false when the range is exhausted
// or a block failed to decode (see Err).
func (it *iter) Next() bool {
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
func (it *iter) Err() error { return it.err }

// nextBlock decodes the next block overlapping the range; false when none.
func (it *iter) nextBlock() bool {
	if it.err != nil {
		return false
	}
	for ; it.bi < len(it.blocks); it.bi++ {
		bv := it.blocks[it.bi]
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
		if err := bv.channels(&it.cols); err != nil {
			it.err = err
			return false
		}
		it.pos = lo - 1
		it.hi = hi
		it.bi++
		return true
	}
	return false
}

func (it *iter) fill() {
	it.cur = recordAt(it.rack, it.loc, it.times[it.pos], &it.cols, it.pos)
}

// recordAt materializes one record from decoded columnar data; shared by
// Query and the per-rack iter so both produce bit-identical records from
// the same stored bytes.
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
func (it *iter) Record() sensors.Record { return it.cur }
