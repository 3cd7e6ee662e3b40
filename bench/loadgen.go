package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/topology"
)

type opKind int

const (
	opQuery opKind = iota
	opSeries
	opAggregate
)

var opNames = []string{"query", "series", "aggregate"}

var rungNames = []string{"r1", "r2", "r3"}

// aggregateWindow is the dashboard's Aggregate bucket.
const aggregateWindow = time.Hour

// request is one read of the dashboard mix.
type request struct {
	Op       opKind
	Rack     topology.RackID
	Metric   sensors.Metric
	From, To time.Time
}

// reader is the read surface both a local store and the wire client offer.
type reader interface {
	Query(rack topology.RackID, from, to time.Time) []sensors.Record
	Series(rack topology.RackID, m sensors.Metric, from, to time.Time) ([]time.Time, []float64)
	Aggregate(rack topology.RackID, m sensors.Metric, from, to time.Time, window time.Duration) ([]envdb.WindowAgg, error)
}

// The dashboard mix, in percent. Operation and window are independent, so
// the costliest cell, a 30-day Query, is 2 % of the requests: the 99th
// percentile falls inside that cell, not on the edge between two.
var (
	opMix     = [...]int{opQuery: 20, opSeries: 40, opAggregate: 40}
	windowMix = [...]struct {
		d   time.Duration
		pct int
	}{{time.Hour, 40}, {24 * time.Hour, 35}, {7 * 24 * time.Hour, 15}, {30 * 24 * time.Hour, 10}}
)

// mixBlock is the smallest number of requests that holds every
// operation-window cell of the mix in its exact share.
const mixBlock = 500

type mixCell struct {
	op  opKind
	win time.Duration
}

// mixCells is one block's worth of (operation, window) cells, unshuffled.
func mixCells() []mixCell {
	cells := make([]mixCell, 0, mixBlock)
	for op, opPct := range opMix {
		for _, w := range windowMix {
			for k := 0; k < mixBlock*opPct*w.pct/10000; k++ {
				cells = append(cells, mixCell{opKind(op), w.d})
			}
		}
	}
	return cells
}

// subSeed derives the seed of a run's k-th request schedule from the run's
// seed, so neighbouring seeds share no schedule.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// dashboardSchedule draws n requests of the dashboard mix from seed. Every
// consecutive block of mixBlock requests holds the operations and windows in
// exactly the mix's proportions, in a seeded order, so equal-sized batches
// and latency windows carry equal work; what varies is the rack (zipf(1.1)
// over the 48 racks through a seeded permutation), the metric (uniform) and
// the window's end: 70 % just past the newest record, 30 % uniform in
// history. The same seed gives the same schedule.
func dashboardSchedule(seed int64, n int, first, last time.Time) []request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, topology.NumRacks-1)
	perm := rng.Perm(topology.NumRacks)
	now := last.Add(time.Second) // ranges are [from, to): include the newest record
	cells := mixCells()
	out := make([]request, 0, n)
	for len(out) < n {
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		for _, c := range cells[:min(len(cells), n-len(out))] {
			r := request{Op: c.op, To: now}
			if rng.Float64() >= 0.70 {
				if span := now.Sub(first) - c.win; span > 0 {
					r.To = first.Add(c.win + time.Duration(rng.Int63n(int64(span))))
				}
			}
			r.From = r.To.Add(-c.win)
			r.Rack = topology.RackByIndex(perm[zipf.Uint64()])
			r.Metric = sensors.Metric(rng.Intn(int(sensors.NumMetrics)))
			out = append(out, r)
		}
	}
	return out
}

// do issues one request and returns a digest of the response (unix
// nanoseconds and raw float bits, so a wire response and a direct store call
// digest the same exactly when they are bit-identical) and how many store
// records the response covers. The wire client's error-free surface panics
// on a failed request; that is a failed operation.
func do(db reader, r request) (digest uint32, records int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", opNames[r.Op], p)
		}
	}()
	h := crc32.NewIEEE()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch r.Op {
	case opQuery:
		recs := db.Query(r.Rack, r.From, r.To)
		records = len(recs)
		for _, rec := range recs {
			put(uint64(rec.Time.UnixNano()))
			put(uint64(rec.Rack.Code()))
			for _, m := range sensors.AllMetrics() {
				put(math.Float64bits(rec.Value(m)))
			}
		}
	case opSeries:
		times, vals := db.Series(r.Rack, r.Metric, r.From, r.To)
		records = len(times)
		for i := range times {
			put(uint64(times[i].UnixNano()))
			put(math.Float64bits(vals[i]))
		}
	default:
		aggs, aerr := db.Aggregate(r.Rack, r.Metric, r.From, r.To, aggregateWindow)
		if aerr != nil {
			return 0, 0, aerr
		}
		for _, a := range aggs {
			records += a.Count
			put(uint64(a.Start.UnixNano()))
			put(uint64(a.Count))
			put(math.Float64bits(a.Min))
			put(math.Float64bits(a.Max))
			put(math.Float64bits(a.Sum))
		}
	}
	return h.Sum32(), records, nil
}

// loadResult is what one open- or closed-loop phase observed.
type loadResult struct {
	sent    int
	records int // store records the responses covered
	errs    []error
	// latency runs from the intended send time in an open loop and from the
	// send in a closed loop; late (open loop only) is actual minus intended
	// send. Both are in request order.
	latency []time.Duration
	late    []time.Duration
	wall    time.Duration
	samples []sampled // every sampleEvery-th response, for the oracle
}

type sampled struct {
	req    request
	digest uint32
}

// sampleEvery is the oracle's stride: every 50th response is checked
// against the direct store call.
const sampleEvery = 50

func (res *loadResult) add(i int, r request, digest uint32, records int, err error) {
	res.sent++
	switch {
	case err != nil:
		res.errs = append(res.errs, err)
	case i%sampleEvery == 0:
		res.samples = append(res.samples, sampled{r, digest})
	}
	res.records += records
}

func (res *loadResult) merge(parts []loadResult) {
	for _, p := range parts {
		res.sent += p.sent
		res.records += p.records
		res.errs = append(res.errs, p.errs...)
		res.samples = append(res.samples, p.samples...)
	}
}

// openLoop sends at a constant rate regardless of completions, over conns
// workers (one connection each). Request i is due at i/rate; a worker takes
// the next index, waits for its time, asks next for the request (false ends
// the phase) and sends it. Latency runs from the due time, not the send
// time, so a stall is charged to every request it delays; late records how
// far behind its own schedule the generator sent. Under sp every wait is a
// "bench.wait" span and every request a span named layer.
func openLoop(db reader, rate float64, conns int, next func(i int) (request, bool), sp *span, layer string) loadResult {
	type timing struct {
		i         int
		lat, late time.Duration
	}
	parts := make([]loadResult, conns)
	timings := make([][]timing, conns)
	var idx atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		wg.Add(1)
		go func(res *loadResult, mine *[]timing) {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					wait := sp.child("bench.wait")
					time.Sleep(d)
					wait.end()
				}
				r, ok := next(i)
				if !ok {
					return
				}
				late := time.Since(due)
				call := sp.child(layer)
				digest, records, err := do(db, r)
				call.end()
				*mine = append(*mine, timing{i, time.Since(due), late})
				res.add(i, r, digest, records, err)
			}
		}(&parts[w], &timings[w])
	}
	wg.Wait()
	res := loadResult{wall: time.Since(start)}
	res.merge(parts)
	var all []timing
	for _, t := range timings {
		all = append(all, t...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	for _, t := range all {
		res.latency = append(res.latency, t.lat)
		res.late = append(res.late, t.late)
	}
	return res
}

// fromList is openLoop's next for a fixed schedule.
func fromList(reqs []request) func(int) (request, bool) {
	return func(i int) (request, bool) {
		if i >= len(reqs) {
			return request{}, false
		}
		return reqs[i], true
	}
}

// closedLoop sends reqs once over conns workers, each sending its next
// request only after its previous one completed. Latency i belongs to
// reqs[i].
func closedLoop(db reader, reqs []request, conns int, sp *span, layer string) loadResult {
	parts := make([]loadResult, conns)
	latency := make([]time.Duration, len(reqs))
	var idx atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := range parts {
		wg.Add(1)
		go func(res *loadResult) {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				call := sp.child(layer)
				digest, records, err := do(db, reqs[i])
				call.end()
				latency[i] = time.Since(t0)
				res.add(i, reqs[i], digest, records, err)
			}
		}(&parts[w])
	}
	wg.Wait()
	res := loadResult{wall: time.Since(start)}
	res.merge(parts)
	res.latency = latency
	return res
}

// count folds a load phase into the outcome: every request is one attempted
// operation, an error a failed one, and each sampled response is checked
// against the direct store call (truth) as one more operation.
func (o *outcome) count(res loadResult, truth reader) {
	o.attempted += res.sent
	for _, err := range res.errs {
		o.fail(err.Error())
	}
	if truth == nil {
		return
	}
	for _, s := range res.samples {
		want, _, err := do(truth, s.req)
		o.check(err == nil && want == s.digest, "%s response differs from the direct store call (rack %v, %v..%v)",
			opNames[s.req.Op], s.req.Rack, s.req.From, s.req.To)
	}
}
