// Package envdb is the environmental database of the digital twin — the
// stand-in for the IBM DB2 environmental database that stored Mira's
// coolant-monitor samples. It defines the telemetry-store surface (DB) that
// the simulator records into and the analyses query, the CSV interchange
// (WriteCSV and ReadCSV, free functions over that surface), and a simple
// slice-backed in-memory implementation (Store). The compressed,
// concurrent production engine lives in mira/internal/tsdb and the remote
// client in mira/internal/telemetrynet; both implement the same DB surface.
//
// Every store reads all of its records through one scan,
// DB.EachChunkMergedCtx, in global (time, rack code) order, delivered as
// columnar Chunks; ScanRecords is its row view and WriteCSV its CSV view.
// There is no rack-major walk, no record-at-a-time merge and no scan
// capability to probe for.
//
// Aggregation pushdown (Aggregator) has two query shapes: AggregateCtx is
// one rack's metric in fixed windows (dashboard reads, GET /v1/aggregate
// over the wire), and AggregateRacks is every rack of one hall over one
// whole-range window for several metrics at once (the rack-level maps of
// Figs. 7 and 9, GET /v1/aggregate/racks): one call, one response.
package envdb

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"

	"mira/internal/sensors"
	"mira/internal/topology"
	"mira/internal/units"
)

// DB is the environmental-database surface shared by the slice-backed
// Store, the compressed tsdb.Store and the remote telemetrynet.Client:
// ordered ingest, the stored time range, rack/time-range queries,
// single-metric series extraction, and the one time-ordered scan. CSV
// interchange is WriteCSV and ReadCSV over this surface.
type DB interface {
	// Append ingests one record; records must arrive in non-decreasing
	// time order per rack (equal timestamps are allowed).
	Append(r sensors.Record) error
	// Len returns the number of stored records across all racks.
	Len() int
	// Bounds returns the earliest and latest stored timestamps, or
	// ok=false for an empty store.
	Bounds() (first, last time.Time, ok bool)
	// Query returns one rack's records with timestamps in [from, to).
	Query(rack topology.RackID, from, to time.Time) []sensors.Record
	// Series extracts one metric for one rack over [from, to).
	Series(rack topology.RackID, m sensors.Metric, from, to time.Time) ([]time.Time, []float64)
	// EachChunkMergedCtx is the store's one time-ordered scan: every
	// stored record in global (timestamp, rack code) order, delivered as
	// columnar chunks. workers bounds the store's decode fan-out (<= 0
	// selects GOMAXPROCS; stores without decode work ignore it) and never
	// changes the row order. ctx carries the caller's trace and scan
	// counters (ContextWithScanStats). The scan stops early when f
	// returns false; failures come back as errors, never as panics.
	EachChunkMergedCtx(ctx context.Context, workers int, f func(*Chunk) bool) error
}

// Tier identifies the storage tier a scanned record came from in stores
// with retention/downsampling (tsdb.Store).
type Tier uint8

const (
	// TierRaw marks a full-rate sample stored as ingested.
	TierRaw Tier = iota
	// TierDownsampled marks a cold-tier window record: timestamped at the
	// compaction window's start and valued at the window's per-channel
	// mean, standing in for every raw sample folded into that window.
	// Consumers that replay full-rate semantics (tick grouping, incident
	// detection) skip these rows — a window mean is not a sample — while
	// aggregate consumers may use both tiers.
	TierDownsampled
)

// Chunk is one batch of the merged scan: parallel columns holding
// consecutive rows of the global (timestamp, rack) order. Consumers read
// the columns they need and call Record only for rows they must
// materialize.
//
// A Chunk passed to an EachChunkMergedCtx callback is only valid for the
// duration of the call: the scanner reuses its backing arrays for the next
// chunk. Consumers that need rows afterwards must copy them out.
type Chunk struct {
	// Loc is the records' location, shared by every row.
	Loc *time.Location
	// Times holds unix-nanosecond timestamps, non-decreasing.
	Times []int64
	// Racks holds the packed rack code (topology.RackID.Code: hall high
	// byte, within-hall index low byte) of each row; within equal
	// timestamps rows are ordered by ascending code, which equals the
	// fleet shard order. Hall-0 codes equal the plain rack index.
	Racks []uint16
	// Tiers holds each row's storage tier.
	Tiers []Tier
	// Cols holds one value column per metric, indexed by sensors.Metric.
	Cols [sensors.NumMetrics][]float64
}

// Len returns the number of rows in the chunk.
func (c *Chunk) Len() int { return len(c.Times) }

// Reset empties every column, keeping the backing arrays for reuse.
func (c *Chunk) Reset() {
	c.Times = c.Times[:0]
	c.Racks = c.Racks[:0]
	c.Tiers = c.Tiers[:0]
	for m := range c.Cols {
		c.Cols[m] = c.Cols[m][:0]
	}
}

// Record materializes row i. The result is bit-identical to the stored
// record: the same instant in Loc, the same rack, the same float bits.
func (c *Chunk) Record(i int) sensors.Record {
	rack, err := topology.RackFromCode(c.Racks[i])
	if err != nil {
		// Scanners emit only valid codes (the wire decoder rejects bad
		// ones), so a bad code here is in-process corruption.
		panic(err)
	}
	return sensors.Record{
		Time:          time.Unix(0, c.Times[i]).In(c.Loc),
		Rack:          rack,
		DCTemperature: units.Fahrenheit(c.Cols[sensors.MetricDCTemperature][i]),
		DCHumidity:    units.RelativeHumidity(c.Cols[sensors.MetricDCHumidity][i]),
		Flow:          units.GPM(c.Cols[sensors.MetricFlow][i]),
		InletTemp:     units.Fahrenheit(c.Cols[sensors.MetricInletTemp][i]),
		OutletTemp:    units.Fahrenheit(c.Cols[sensors.MetricOutletTemp][i]),
		Power:         units.Watts(c.Cols[sensors.MetricPower][i]),
	}
}

// appendRecord adds r as the chunk's next row.
func (c *Chunk) appendRecord(r sensors.Record, tier Tier) {
	c.Times = append(c.Times, r.Time.UnixNano())
	c.Racks = append(c.Racks, r.Rack.Code())
	c.Tiers = append(c.Tiers, tier)
	for m := range c.Cols {
		c.Cols[m] = append(c.Cols[m], r.Value(sensors.Metric(m)))
	}
}

// WindowAgg is one aggregation window of an Aggregator pushdown query.
type WindowAgg struct {
	// Start is the window's inclusive start; the window spans one Aggregate
	// window length.
	Start time.Time
	// Count is the number of samples that fell in the window.
	Count int
	// Min, Max, Sum summarize the metric over the window (Min/Max are NaN
	// when Count is zero).
	Min, Max, Sum float64
}

// Mean is Sum/Count, NaN for an empty window.
func (w WindowAgg) Mean() float64 {
	if w.Count == 0 {
		return math.NaN()
	}
	return w.Sum / float64(w.Count)
}

// ErrAggregateShape marks an aggregate query the store refuses for its
// shape — more windows than it will materialize, or a metric it does not
// know — as opposed to a store failure (a block that fails to decode). The
// telemetry server answers the first with 400 and the second with 500.
var ErrAggregateShape = errors.New("envdb: aggregate query shape refused")

// Aggregator is an optional capability of DB implementations that can
// compute per-window min/max/sum/count of one rack's metric without
// materializing records — aggregation pushdown straight off the storage
// representation. AggregateCtx is Aggregate under a caller trace.
//
// AggregateRacks is the hall-wide form: for to > from it returns one
// WindowAgg per (rack 0..NumRacks-1 of hall, metric), rack-major — entry
// r*len(metrics)+j is rack r's metrics[j] — each bit for bit what
// AggregateCtx(ctx, rack, metrics[j], from, to, 0) returns as its single
// window, including the Count-0, NaN-min/max entry of a rack with no rows
// in range or outside the store's fleet. It returns no entries for
// to <= from, and on any error no entries at all.
type Aggregator interface {
	Aggregate(rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]WindowAgg, error)
	AggregateCtx(ctx context.Context, rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]WindowAgg, error)
	AggregateRacks(ctx context.Context, hall int, metrics []sensors.Metric, from, to time.Time) ([]WindowAgg, error)
}

// Appender is the minimal ingest surface ReadCSV needs.
type Appender interface {
	Append(r sensors.Record) error
}

// BatchAppender is an optional capability of DB implementations with an
// atomic batched ingest path: AppendTick validates the whole batch first
// (per-rack time order within the batch and against the store) and applies
// it all-or-nothing — a returned error guarantees the store is unchanged,
// so the batch is safe to retry after correction. Implementations also
// amortize per-record locking across the batch. Servers ingesting network
// batches should type-assert for this capability and fall back to a
// per-record Append loop (which has no atomicity guarantee) when absent.
type BatchAppender interface {
	AppendTick(recs []sensors.Record) error
}

// FleetDescriber is an optional capability of DB implementations that know
// their hall × rack shape. Consumers (the telemetry server, remote
// analyses) treat stores without it as the single-machine 1 × 48 fleet.
type FleetDescriber interface {
	Fleet() topology.Fleet
}

// Store is a plain in-memory environmental database backed by one record
// slice per rack of a single machine: it holds hall 0 only and rejects
// records of any other hall (use tsdb.Store for a fleet). It is not safe
// for concurrent use (use tsdb.Store for concurrent ingest and scans); the
// simulator feeds it from a single goroutine. The zero value is an empty
// store keeping every sample.
type Store struct {
	// records per rack, in append (time) order.
	records [topology.NumRacks][]sensors.Record

	// Downsample keeps only every Nth sample per rack (0 or 1 = keep all).
	Downsample int
	counter    [topology.NumRacks]int

	// lastT/hasLast track the newest accepted timestamp per rack — kept
	// records or not — so monotonicity holds across downsample-skipped
	// samples.
	lastT   [topology.NumRacks]time.Time
	hasLast [topology.NumRacks]bool
}

var _ DB = (*Store)(nil)

// Append ingests one record. Records must arrive in non-decreasing time
// order per rack; Append returns an error otherwise (the coolant monitor is
// a periodic sampler, so out-of-order data indicates a bug upstream).
func (s *Store) Append(r sensors.Record) error {
	if err := checkHall(r); err != nil {
		return err
	}
	idx := r.Rack.Index()
	if s.hasLast[idx] && r.Time.Before(s.lastT[idx]) {
		return fmt.Errorf("envdb: out-of-order record for rack %v: %v before %v",
			r.Rack, r.Time, s.lastT[idx])
	}
	// Advance the watermark before the downsample skip: an out-of-order
	// record between two skipped samples must still be rejected.
	s.lastT[idx] = r.Time
	s.hasLast[idx] = true
	s.counter[idx]++
	if s.Downsample > 1 && (s.counter[idx]-1)%s.Downsample != 0 {
		return nil
	}
	s.records[idx] = append(s.records[idx], r)
	return nil
}

// checkHall rejects records the per-rack arrays cannot hold: they are
// indexed by Rack.Index, which ignores the hall, so a hall-1 record would
// land in its hall-0 twin's slice.
func checkHall(r sensors.Record) error {
	if r.Rack.Hall != 0 {
		return fmt.Errorf("envdb: record for rack %v: the slice store holds hall 0 only", r.Rack)
	}
	return nil
}

var _ BatchAppender = (*Store)(nil)

// AppendTick implements BatchAppender: the batch is validated in full —
// per-rack non-decreasing time order, within the batch and against the
// store — before any record lands, so a returned error leaves the store
// unchanged and the corrected batch can simply be resubmitted.
func (s *Store) AppendTick(recs []sensors.Record) error {
	var last [topology.NumRacks]time.Time
	var seen [topology.NumRacks]bool
	for _, r := range recs {
		if err := checkHall(r); err != nil {
			return err
		}
		idx := r.Rack.Index()
		prev, ok := last[idx], seen[idx]
		if !ok {
			prev, ok = s.lastT[idx], s.hasLast[idx]
		}
		if ok && r.Time.Before(prev) {
			return fmt.Errorf("envdb: out-of-order record in batch for rack %v: %v before %v",
				r.Rack, r.Time, prev)
		}
		last[idx], seen[idx] = r.Time, true
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			// Unreachable: the batch was validated above.
			return err
		}
	}
	return nil
}

// Len returns the number of stored records across all racks.
func (s *Store) Len() int {
	total := 0
	for i := range s.records {
		total += len(s.records[i])
	}
	return total
}

// Query returns the stored records for one rack with timestamps in
// [from, to), in time order.
func (s *Store) Query(rack topology.RackID, from, to time.Time) []sensors.Record {
	recs := s.records[rack.Index()]
	lo := sort.Search(len(recs), func(i int) bool { return !recs[i].Time.Before(from) })
	hi := sort.Search(len(recs), func(i int) bool { return !recs[i].Time.Before(to) })
	out := make([]sensors.Record, hi-lo)
	copy(out, recs[lo:hi])
	return out
}

// Series extracts one metric for one rack over [from, to) as parallel
// times/values slices.
func (s *Store) Series(rack topology.RackID, m sensors.Metric, from, to time.Time) ([]time.Time, []float64) {
	recs := s.Query(rack, from, to)
	times := make([]time.Time, len(recs))
	vals := make([]float64, len(recs))
	for i, r := range recs {
		times[i] = r.Time
		vals[i] = r.Value(m)
	}
	return times, vals
}

// Bounds returns the earliest and latest stored timestamps, each in its
// own record's location, or ok=false for an empty store.
func (s *Store) Bounds() (first, last time.Time, ok bool) {
	for i := range s.records {
		recs := s.records[i]
		if len(recs) == 0 {
			continue
		}
		if f := recs[0].Time; !ok || f.Before(first) {
			first = f
		}
		if l := recs[len(recs)-1].Time; !ok || l.After(last) {
			last = l
		}
		ok = true
	}
	return first, last, ok
}

// sliceChunkRows is the fill target of one slice-store chunk, the same
// size the compressed store's merge targets.
const sliceChunkRows = 4096

// EachChunkMergedCtx implements DB: a serial k-way merge over the per-rack
// slices, filling chunks in global timestamp order with rack-index
// tie-breaking and O(racks) cursor state — no copy of the trace is ever
// built. A chunk also ends where the records' location changes, so every
// row materializes in its own record's location. The slice store has no
// decode work to fan out or trace, so ctx and workers are unused.
func (s *Store) EachChunkMergedCtx(_ context.Context, _ int, f func(*Chunk) bool) error {
	var pos [topology.NumRacks]int
	var c Chunk
	for {
		c.Reset()
		for c.Len() < sliceChunkRows {
			best := -1
			var bestT int64
			for i := range s.records {
				if pos[i] >= len(s.records[i]) {
					continue
				}
				if t := s.records[i][pos[i]].Time.UnixNano(); best < 0 || t < bestT {
					best, bestT = i, t
				}
			}
			if best < 0 {
				break
			}
			r := s.records[best][pos[best]]
			if loc := r.Time.Location(); c.Len() == 0 {
				c.Loc = loc
			} else if loc != c.Loc {
				break
			}
			c.appendRecord(r, TierRaw)
			pos[best]++
		}
		if c.Len() == 0 || !f(&c) {
			return nil
		}
	}
}

// csvHeader is the export schema.
var csvHeader = []string{"time", "rack", "dc_temperature_f", "dc_humidity_rh", "coolant_flow_gpm", "inlet_temp_f", "outlet_temp_f", "power_w"}

// WriteCSV writes every record of db in the csvHeader schema, in the
// merged scan's (time, rack code) order; ctx carries the scan's trace.
// csv.Writer buffers rows, so the writer is flushed and its error checked
// after every scan chunk: a dead destination stops the scan at the chunk
// where its error surfaced instead of walking the remaining records. Scan
// and write failures come back as errors.
func WriteCSV(ctx context.Context, w io.Writer, db DB) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("envdb: writing header: %w", err)
	}
	var werr error
	row := make([]string, len(csvHeader))
	err := db.EachChunkMergedCtx(ctx, 0, func(c *Chunk) bool {
		for i := range c.Times {
			r := c.Record(i)
			row[0] = r.Time.UTC().Format(time.RFC3339)
			row[1] = r.Rack.String()
			row[2] = strconv.FormatFloat(float64(r.DCTemperature), 'f', 3, 64)
			row[3] = strconv.FormatFloat(float64(r.DCHumidity), 'f', 3, 64)
			row[4] = strconv.FormatFloat(float64(r.Flow), 'f', 3, 64)
			row[5] = strconv.FormatFloat(float64(r.InletTemp), 'f', 3, 64)
			row[6] = strconv.FormatFloat(float64(r.OutletTemp), 'f', 3, 64)
			row[7] = strconv.FormatFloat(float64(r.Power), 'f', 1, 64)
			if werr = cw.Write(row); werr != nil {
				return false
			}
		}
		cw.Flush()
		if werr = cw.Error(); werr != nil {
			return false
		}
		metCSVWritten.Add(uint64(c.Len()))
		return true
	})
	if werr != nil {
		return fmt.Errorf("envdb: writing rows: %w", werr)
	}
	if err != nil {
		return fmt.Errorf("envdb: scanning rows: %w", err)
	}
	cw.Flush() // an empty store delivers no chunk: the header is still buffered
	if err := cw.Error(); err != nil {
		return fmt.Errorf("envdb: writing rows: %w", err)
	}
	return nil
}

// ReadCSV reads records in the csvHeader schema into dst. The header must
// match the schema column for column: a reordered or renamed column would
// otherwise silently parse values into the wrong channels.
func ReadCSV(r io.Reader, dst Appender) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("envdb: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return fmt.Errorf("envdb: unexpected header %v", header)
	}
	for i, name := range csvHeader {
		if header[i] != name {
			return fmt.Errorf("envdb: header column %d is %q, want %q", i+1, header[i], name)
		}
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("envdb: line %d: %w", line, err)
		}
		rec, err := parseRow(row)
		if err != nil {
			return fmt.Errorf("envdb: line %d: %w", line, err)
		}
		if err := dst.Append(rec); err != nil {
			return fmt.Errorf("envdb: line %d: %w", line, err)
		}
		metCSVRead.Inc()
	}
}

func parseRow(row []string) (sensors.Record, error) {
	var rec sensors.Record
	ts, err := time.Parse(time.RFC3339, row[0])
	if err != nil {
		return rec, fmt.Errorf("bad time %q: %w", row[0], err)
	}
	rack, err := topology.ParseRackID(row[1])
	if err != nil {
		return rec, err
	}
	vals := make([]float64, 6)
	for i := 0; i < 6; i++ {
		v, err := strconv.ParseFloat(row[2+i], 64)
		if err != nil {
			return rec, fmt.Errorf("bad value %q: %w", row[2+i], err)
		}
		vals[i] = v
	}
	rec = sensors.Record{
		Time:          ts,
		Rack:          rack,
		DCTemperature: units.Fahrenheit(vals[0]),
		DCHumidity:    units.RelativeHumidity(vals[1]),
		Flow:          units.GPM(vals[2]),
		InletTemp:     units.Fahrenheit(vals[3]),
		OutletTemp:    units.Fahrenheit(vals[4]),
		Power:         units.Watts(vals[5]),
	}
	return rec, nil
}
