package telemetrynet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
)

// startServer serves db's telemetry API on a loopback listener and returns
// a client for it.
func startServer(t *testing.T, db envdb.DB) (*httptest.Server, *Client) {
	t.Helper()
	ts := httptest.NewServer(NewServer(db, ServerOptions{}).Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ClientOptions{BatchSize: 64})
}

// netTrace builds ticks×racks records at coolant-monitor cadence, grouped
// tick-major so per-rack timestamps are strictly increasing (the tsdb
// Append contract).
func netTrace(ticks int) []sensors.Record {
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	var recs []sensors.Record
	for i := 0; i < ticks; i++ {
		ts := start.Add(time.Duration(i) * timeutil.SampleInterval)
		for r := 0; r < topology.NumRacks; r++ {
			recs = append(recs, sensors.Record{
				Time:          ts,
				Rack:          topology.RackByIndex(r),
				DCTemperature: units.Fahrenheit(80 + float64(i%7)),
				DCHumidity:    units.RelativeHumidity(30 + float64(r%5)),
				Flow:          units.GPM(26 + 0.125*float64((i+r)%16)),
				InletTemp:     units.Fahrenheit(64 + 0.25*float64(i%8)),
				OutletTemp:    units.Fahrenheit(79 + 0.25*float64(r%8)),
				Power:         units.Watts(55000 + 100*float64(i%11)),
			})
		}
	}
	return recs
}

func fillStore(t *testing.T, db envdb.DB, recs []sensors.Record) {
	t.Helper()
	for _, r := range recs {
		if err := db.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestThenRead pushes a trace through the wire and checks every read
// surface of the client against the backing store directly.
func TestIngestThenRead(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	_, client := startServer(t, store)
	recs := netTrace(20)
	fillStore(t, client, recs) // through the wire
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(recs) {
		t.Fatalf("store has %d records after ingest, want %d", store.Len(), len(recs))
	}
	if client.Len() != len(recs) {
		t.Fatalf("client.Len() = %d, want %d", client.Len(), len(recs))
	}

	first, last, ok := client.Bounds()
	wf, wl, wok := store.Bounds()
	if ok != wok || !first.Equal(wf) || !last.Equal(wl) {
		t.Fatalf("client bounds (%v, %v, %v) != store bounds (%v, %v, %v)", first, last, ok, wf, wl, wok)
	}
	_, cOff := first.Zone()
	_, sOff := wf.Zone()
	if cOff != sOff {
		t.Fatalf("client zone offset %d != store %d", cOff, sOff)
	}

	rack := topology.RackByIndex(3)
	from, to := wf, wl.Add(time.Nanosecond)
	got, want := client.Query(rack, from, to), store.Query(rack, from, to)
	if len(got) != len(want) {
		t.Fatalf("Query: %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("Query record %d: %+v != %+v", i, got[i], want[i])
		}
	}

	gt, gv := client.Series(rack, sensors.MetricFlow, from, to)
	st, sv := store.Series(rack, sensors.MetricFlow, from, to)
	if len(gt) != len(st) {
		t.Fatalf("Series: %d points, want %d", len(gt), len(st))
	}
	for i := range st {
		if !gt[i].Equal(st[i]) || math.Float64bits(gv[i]) != math.Float64bits(sv[i]) {
			t.Fatalf("Series point %d: (%v, %v) != (%v, %v)", i, gt[i], gv[i], st[i], sv[i])
		}
	}
}

// TestIngestDedup pins the idempotency contract: replaying a frame with an
// already-applied (client, seq) token stores nothing and reports the
// duplicate, so a push retried after a lost response cannot double-append.
func TestIngestDedup(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	ts, _ := startServer(t, store)
	recs := netTrace(2)
	frame := encodeIngestFrame(nil, 7, 1, recs)

	post := func() IngestResult {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		var res IngestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := post(); res.AcceptedRecords != len(recs) || res.DuplicateBatches != 0 {
		t.Fatalf("first push: %+v", res)
	}
	dupsBefore := metIngestDuplicates.Value()
	if res := post(); res.AcceptedBatches != 0 || res.DuplicateBatches != 1 {
		t.Fatalf("replayed push: %+v, want 0 accepted / 1 duplicate", res)
	}
	if got := metIngestDuplicates.Value() - dupsBefore; got != 1 {
		t.Fatalf("mira_net_ingest_duplicate_batches_total advanced by %d, want 1", got)
	}
	if store.Len() != len(recs) {
		t.Fatalf("store has %d records after replay, want %d (stored once)", store.Len(), len(recs))
	}
	// A frame with a lower sequence from the same client is also a replay.
	frame = encodeIngestFrame(nil, 7, 0, recs)
	if res := post(); res.DuplicateBatches != 1 || store.Len() != len(recs) {
		t.Fatalf("stale-seq push: %+v, store %d", res, store.Len())
	}
}

// TestIngestMalformed: hostile bodies get a 400 and a counted error, never
// a panic, and leave the store untouched.
func TestIngestMalformed(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	ts, _ := startServer(t, store)
	valid := encodeIngestFrame(nil, 1, 1, netTrace(1))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-2] ^= 0xFF

	cases := map[string][]byte{
		"garbage":   []byte("not a frame at all"),
		"truncated": valid[:len(valid)/2],
		"bad crc":   corrupt,
		// Well-formed, but of the retired narrow-rack generation ("MTN1").
		"retired generation": retiredIngestFrame(1, 1, netTrace(1)),
	}
	errsBefore := metIngestErrors.Value()
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := metIngestErrors.Value() - errsBefore; got != uint64(len(cases)) {
		t.Fatalf("mira_net_ingest_errors_total advanced by %d, want %d", got, len(cases))
	}
	if store.Len() != 0 {
		t.Fatalf("store has %d records after malformed pushes, want 0", store.Len())
	}

	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest: status %d, want 405", resp.StatusCode)
	}
}

// TestAggregatePushdown: remote aggregation is bit-identical to calling
// the store's pushdown in-process.
func TestAggregatePushdown(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(30))
	_, client := startServer(t, store)

	first, last, _ := store.Bounds()
	rack := topology.RackByIndex(17)
	window := time.Hour
	want, err := store.Aggregate(rack, sensors.MetricFlow, first, last.Add(time.Nanosecond), window)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Aggregate(rack, sensors.MetricFlow, first, last.Add(time.Nanosecond), window)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d windows, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := got[i], want[i]
		if !a.Start.Equal(b.Start) || a.Count != b.Count ||
			math.Float64bits(a.Min) != math.Float64bits(b.Min) ||
			math.Float64bits(a.Max) != math.Float64bits(b.Max) ||
			math.Float64bits(a.Sum) != math.Float64bits(b.Sum) {
			t.Fatalf("window %d: %+v != %+v", i, a, b)
		}
	}
}

// TestAggregateNotImplemented: a store without pushdown yields 501 on the
// wire, and the client returns that as an error — one request, no second
// attempt through another endpoint, no locally computed stand-in.
func TestAggregateNotImplemented(t *testing.T) {
	store := &envdb.Store{} // no envdb.Aggregator
	fillStore(t, store, netTrace(4))
	inner := NewServer(store, ServerOptions{}).Handler()
	var requests []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests = append(requests, r.URL.Path)
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ClientOptions{})

	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	to := start.Add(4 * timeutil.SampleInterval)
	got, err := client.Aggregate(topology.RackByIndex(2), sensors.MetricFlow, start, to, timeutil.SampleInterval)
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusNotImplemented {
		t.Fatalf("Aggregate = %v, %v; want the server's 501 as the error", got, err)
	}
	if got != nil {
		t.Fatalf("Aggregate returned %d windows beside its error", len(got))
	}
	if want := []string{"/v1/aggregate"}; !reflect.DeepEqual(requests, want) {
		t.Fatalf("requests %v, want %v", requests, want)
	}
}

// TestScanOrders checks the streamed merged scan against the store's own,
// tier bytes included.
func TestScanOrders(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(10))
	_, client := startServer(t, store)

	type tiered struct {
		r    sensors.Record
		tier envdb.Tier
	}
	var wantTime, gotTime []tiered
	if err := store.EachRecordMergedTierCtx(context.Background(), 3, func(r sensors.Record, tier envdb.Tier) bool {
		wantTime = append(wantTime, tiered{r, tier})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.EachRecordMergedTierCtx(context.Background(), 3, func(r sensors.Record, tier envdb.Tier) bool {
		gotTime = append(gotTime, tiered{r, tier})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(gotTime) != len(wantTime) {
		t.Fatalf("time scan: %d records, want %d", len(gotTime), len(wantTime))
	}
	for i := range wantTime {
		if !sameRecord(gotTime[i].r, wantTime[i].r) || gotTime[i].tier != wantTime[i].tier {
			t.Fatalf("time scan record %d mismatch", i)
		}
	}

	// Early stop downloads a prefix without erroring.
	n := 0
	if err := client.EachRecordMergedTierCtx(context.Background(), 2, func(sensors.Record, envdb.Tier) bool { n++; return n < 7 }); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("early stop visited %d, want 7", n)
	}
}

func TestInfoEmptyStore(t *testing.T) {
	_, client := startServer(t, tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour}))
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.HasData || info.Records != 0 || !info.Aggregator {
		t.Fatalf("empty-store info = %+v", info)
	}
	if _, _, ok := client.Bounds(); ok {
		t.Fatal("Bounds ok on empty store")
	}
}

// TestConcurrentIngestQuery is the tentpole's race check: many clients
// pushing disjoint racks while readers hammer info, range queries,
// aggregate pushdown and merged scans (each streamed through a pooled
// chunk buffer) against the same live store. Run under -race by make
// check.
func TestConcurrentIngestQuery(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	ts, _ := startServer(t, store)

	const (
		pushers = 4
		ticks   = 60
	)
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	var wg sync.WaitGroup
	errs := make(chan error, pushers+4)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// One pusher per rack group keeps per-rack append order intact
			// no matter how HTTP requests interleave.
			c := NewClient(ts.URL, ClientOptions{BatchSize: 48})
			for i := 0; i < ticks; i++ {
				tick := start.Add(time.Duration(i) * timeutil.SampleInterval)
				for r := p; r < topology.NumRacks; r += pushers {
					rec := sensors.Record{Time: tick, Rack: topology.RackByIndex(r),
						Flow: units.GPM(26 + float64(p)), Power: units.Watts(55000)}
					if err := c.Append(rec); err != nil {
						errs <- err
						return
					}
				}
			}
			if err := c.Flush(); err != nil {
				errs <- err
			}
		}(p)
	}
	readClient := NewClient(ts.URL, ClientOptions{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			to := start.Add(ticks * timeutil.SampleInterval)
			for i := 0; i < 40; i++ {
				if _, err := readClient.Info(); err != nil {
					errs <- fmt.Errorf("info: %w", err)
					return
				}
				rack := topology.RackByIndex((g*11 + i) % topology.NumRacks)
				if _, err := readClient.queryErr(context.Background(), rack, start, to); err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
				if _, err := readClient.Aggregate(rack, sensors.MetricFlow, start, to, time.Hour); err != nil {
					errs <- fmt.Errorf("aggregate: %w", err)
					return
				}
				if i%8 != 0 {
					continue
				}
				prev := int64(math.MinInt64)
				var disorder error
				err := readClient.EachChunkMergedCtx(context.Background(), 1, func(c *envdb.Chunk) bool {
					for _, n := range c.Times {
						if n < prev {
							disorder = fmt.Errorf("row at %d after %d", n, prev)
							return false
						}
						prev = n
					}
					return true
				})
				if err == nil {
					err = disorder
				}
				if err != nil {
					errs <- fmt.Errorf("scan: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := ticks * topology.NumRacks; store.Len() != want {
		t.Fatalf("store has %d records after concurrent ingest, want %d", store.Len(), want)
	}
}

// TestReadsAcrossPartitionRoll reads over loopback while a multi-hall push
// crosses a partition boundary. The crossing batch closes every shard's
// block at once, and the store serves those blocks from their raw columns
// until the pushing request has compressed them, so a reader on a second
// connection must keep seeing one gap-free, duplicate-free prefix of the
// trace on both sides of the boundary — never a hole where a partition is
// between head and sealed form.
func TestReadsAcrossPartitionRoll(t *testing.T) {
	fleet := topology.Fleet{Halls: 4, Racks: topology.NumRacks}
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour, Fleet: fleet})
	ts, _ := startServer(t, store)

	const ticks = 72 // six hours, the partition boundary in the middle
	boundary := time.Date(2015, 3, 10, 0, 0, 0, 0, time.UTC).In(timeutil.Chicago)
	start := boundary.Add(-ticks / 2 * timeutil.SampleInterval)
	from, to := boundary.Add(-time.Hour), boundary.Add(time.Hour)
	const rows = int(2 * time.Hour / timeutil.SampleInterval)

	pushed := make(chan error, 1)
	go func() {
		c := NewClient(ts.URL, ClientOptions{BatchSize: 3 * fleet.NumRacks()})
		for i := 0; i < ticks; i++ {
			tick := start.Add(time.Duration(i) * timeutil.SampleInterval)
			for g := 0; g < fleet.NumRacks(); g++ {
				rec := sensors.Record{Time: tick, Rack: fleet.RackAt(g),
					Flow: units.GPM(26 + 0.125*float64(i%16)), Power: units.Watts(55000 + float64(g))}
				if err := c.Append(rec); err != nil {
					pushed <- err
					return
				}
			}
		}
		if err := c.Flush(); err != nil {
			pushed <- err
			return
		}
		if got := c.Stats().PushedRecords; got != ticks*fleet.NumRacks() {
			pushed <- fmt.Errorf("client acked %d records, want %d", got, ticks*fleet.NumRacks())
			return
		}
		pushed <- nil
	}()

	// read checks one Series and one /v1/aggregate answer over the window
	// straddling the boundary and returns how many rows the series held.
	reader := NewClient(ts.URL, ClientOptions{})
	read := func(rack topology.RackID) int {
		times, vals := reader.Series(rack, sensors.MetricFlow, from, to)
		for k := range times {
			if want := from.Add(time.Duration(k) * timeutil.SampleInterval); !times[k].Equal(want) {
				t.Fatalf("rack %v: series row %d at %v, want %v (gap or duplicate)", rack, k, times[k], want)
			}
			if want := 26 + 0.125*float64((k+ticks/2-rows/2)%16); vals[k] != want {
				t.Fatalf("rack %v: series row %d = %v, want %v", rack, k, vals[k], want)
			}
		}
		aggs, err := reader.Aggregate(rack, sensors.MetricFlow, from, to, timeutil.SampleInterval)
		if err != nil {
			t.Fatalf("aggregate: %v", err)
		}
		seen := 0
		for k, w := range aggs {
			if w.Count > 1 || (w.Count == 1 && k != seen) {
				t.Fatalf("rack %v: aggregate window %d holds %d samples after %d filled (gap or duplicate)", rack, k, w.Count, seen)
			}
			seen += w.Count
		}
		// The aggregate ran after the series, and the trace only grows.
		if seen < len(times) {
			t.Fatalf("rack %v: aggregate saw %d rows after series saw %d", rack, seen, len(times))
		}
		return len(times)
	}
	for n, done := 0, false; !done; n++ {
		select {
		case err := <-pushed:
			if err != nil {
				t.Fatalf("push: %v", err)
			}
			done = true
		default:
		}
		read(fleet.RackAt((n * 37) % fleet.NumRacks()))
	}
	for g := 0; g < fleet.NumRacks(); g += 17 {
		if got := read(fleet.RackAt(g)); got != rows {
			t.Fatalf("rack %v: %d rows across the boundary after the push, want %d", fleet.RackAt(g), got, rows)
		}
	}
	if want := ticks * fleet.NumRacks(); store.Len() != want {
		t.Fatalf("store holds %d records, want the %d acked", store.Len(), want)
	}
}

// failingScan is a store whose merged scan fails before its first row.
type failingScan struct{ envdb.DB }

var errScanFailed = errors.New("segment block checksum mismatch")

func (failingScan) EachChunkMergedCtx(context.Context, int, func(*envdb.Chunk) bool) error {
	return errScanFailed
}

// TestScanFailureBeforeFirstRow: a time-ordered scan that fails before the
// stream header is written answers 500 with the store's error, which the
// client returns as the server's error — not as a malformed stream.
func TestScanFailureBeforeFirstRow(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(3))
	_, client := startServer(t, failingScan{store})
	delivered := 0
	err := client.EachChunkMergedCtx(context.Background(), 2, func(c *envdb.Chunk) bool {
		delivered += c.Len()
		return true
	})
	var he *httpError
	if !errors.As(err, &he) || he.code != http.StatusInternalServerError || !strings.Contains(he.msg, errScanFailed.Error()) {
		t.Fatalf("scan = %v, want the server's 500 carrying %q", err, errScanFailed)
	}
	if errors.Is(err, ErrFrame) || delivered != 0 {
		t.Fatalf("scan reported a wire fault (%v) or delivered %d rows", err, delivered)
	}
}

// failingAggregator is a store whose pushdown fails with err on both
// aggregate shapes.
type failingAggregator struct {
	*tsdb.Store
	err error
}

func (f failingAggregator) AggregateCtx(context.Context, topology.RackID, sensors.Metric, time.Time, time.Time, time.Duration) ([]envdb.WindowAgg, error) {
	return nil, f.err
}

func (f failingAggregator) AggregateRacks(context.Context, int, []sensors.Metric, time.Time, time.Time) ([]envdb.WindowAgg, error) {
	return nil, f.err
}

// TestAggregateErrorCodes: an aggregate the store refuses for its shape is
// the client's error (400); any other store error, such as a block that
// fails to decode, is the server's (500). Both endpoints answer alike, and
// the client returns the code as the error, with no windows beside it.
func TestAggregateErrorCodes(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(3))
	start := time.Date(2014, 5, 20, 0, 0, 0, 0, timeutil.Chicago)
	to := start.Add(time.Hour)
	decodeErr := fmt.Errorf("tsdb: sealed block: timestamps: %w", tsdb.ErrCorrupt)
	shapeErr := fmt.Errorf("tsdb: too many windows: %w", envdb.ErrAggregateShape)
	for _, tc := range []struct {
		err  error
		code int
	}{{shapeErr, http.StatusBadRequest}, {decodeErr, http.StatusInternalServerError}} {
		_, client := startServer(t, failingAggregator{store, tc.err})
		calls := map[string]func() ([]envdb.WindowAgg, error){
			"/v1/aggregate": func() ([]envdb.WindowAgg, error) {
				return client.AggregateCtx(context.Background(), topology.RackByIndex(2), sensors.MetricFlow, start, to, 0)
			},
			"/v1/aggregate/racks": func() ([]envdb.WindowAgg, error) {
				return client.AggregateRacks(context.Background(), 0, sensors.AllMetrics(), start, to)
			},
		}
		for path, call := range calls {
			got, err := call()
			var he *httpError
			if !errors.As(err, &he) || he.code != tc.code || !strings.Contains(he.msg, tc.err.Error()) {
				t.Fatalf("%s over a store failing with %q = %v, want the server's %d carrying it", path, tc.err, err, tc.code)
			}
			if got != nil {
				t.Fatalf("%s returned %d windows beside its error", path, len(got))
			}
		}
	}
}

// TestAggregateRacksParams: the hall endpoint refuses a hall outside the
// fleet, an unknown or surplus metric and a malformed range with 400, and
// a store without pushdown with 501; an empty metric list is a valid,
// empty answer.
func TestAggregateRacksParams(t *testing.T) {
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour, Fleet: topology.Fleet{Halls: 2}})
	srv, _ := startServer(t, store)
	const rng = "&from=0&to=1000000000000000000"
	for _, q := range []string{
		"hall=2&metrics=0" + rng, "hall=-1&metrics=0" + rng, "hall=x&metrics=0" + rng,
		"hall=0&metrics=6" + rng, "hall=0&metrics=0,,1" + rng, "hall=0&metrics=0,1,2,3,4,5,0" + rng,
		"hall=0&metrics=0&from=x&to=1", "hall=0&metrics=0&from=0",
	} {
		resp, err := http.Get(srv.URL + "/v1/aggregate/racks?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	client := NewClient(srv.URL, ClientOptions{})
	if got, err := client.AggregateRacks(context.Background(), 1, nil, time.Unix(0, 0), time.Unix(1, 0)); err != nil || len(got) != 0 {
		t.Errorf("no metrics: %d windows, %v", len(got), err)
	}
	slice := &envdb.Store{}
	_, sliceClient := startServer(t, slice)
	var he *httpError
	if _, err := sliceClient.AggregateRacks(context.Background(), 0, sensors.AllMetrics(), time.Unix(0, 0), time.Unix(1, 0)); !errors.As(err, &he) || he.code != http.StatusNotImplemented {
		t.Errorf("slice store: %v, want the server's 501", err)
	}
}

// discardResponse is a ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// TestScanAllocations caps the bytes one warm /v1/scan of 27,648 rows
// allocates through Handler. The stream's chunk buffer comes from a pool:
// regrowing it from nil instead costs ~1.2 MB a scan (append's growth
// steps up to one tiered 4,096-row chunk, ~240 KB), against ~180 KB for
// everything else the scan and its spans allocate. sync.Pool drops items
// at random under the race detector, so the race build skips it; the
// Makefile runs it without. The collector is off while it counts, because
// every collection empties the pools.
func TestScanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is randomized under -race")
	}
	store := tsdb.NewStoreWith(tsdb.Options{Partition: 24 * time.Hour})
	fillStore(t, store, netTrace(576))
	store.SealAll()
	h := NewServer(store, ServerOptions{ScanWorkers: 1}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/scan?tiers=1", nil)
	w := &discardResponse{h: http.Header{}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		h.ServeHTTP(w, req) // warm the pools
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	const ceiling = 384 << 10
	if perScan := (after.TotalAlloc - before.TotalAlloc) / runs; perScan > ceiling {
		t.Fatalf("a warm scan allocates %d B, want ≤ %d", perScan, ceiling)
	}
}
