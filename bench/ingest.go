package main

import (
	"context"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mira/internal/analysis"
	"mira/internal/sensors"
	"mira/internal/telemetrynet"
	"mira/internal/topology"
	"mira/internal/tsdb"
)

// ingestPass is what one push-then-persist pass over a fresh server store
// observed.
type ingestPass struct {
	acked                      int
	pushWall, persistWall      time.Duration
	flushBytes, compactedBytes int64 // segment bytes after Flush, after Compact
	compaction                 tsdb.CompactStats
	reads, idleReads           loadResult
	stats                      telemetrynet.ClientStats
	acks                       []time.Duration
	crashRecovered             int
}

func (sz sizes) ingestStoreOptions() tsdb.Options {
	return tsdb.Options{Fleet: topology.Fleet{Halls: sz.IngestHalls}, Retention: sz.IngestRetention}
}

// eachIngestRecord yields the pass's records in push order: every epoch
// replays the captured trace shifted past the previous epoch, and every tick
// goes to hall 0, 1, ... in turn. afterTick runs once a tick is out.
func eachIngestRecord(sz sizes, trace *tickTrace, emit func(sensors.Record) error, afterTick func(time.Time)) error {
	epoch := time.Duration(sz.TraceDays) * 24 * time.Hour
	for e := 0; e < sz.IngestEpochs; e++ {
		shift := time.Duration(e) * epoch
		for _, tick := range trace.ticks {
			for hall := 0; hall < sz.IngestHalls; hall++ {
				for _, rec := range tick {
					rec.Rack.Hall = hall
					rec.Time = rec.Time.Add(shift)
					if err := emit(rec); err != nil {
						return err
					}
				}
			}
			afterTick(tick[0].Time.Add(shift))
		}
	}
	return nil
}

// trickle draws ingest_live's reads: the last 1 h or 24 h of one rack of
// one hall, Series or Aggregate, ending at the newest tick pushed so far.
type trickle struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	halls  int
	newest *atomic.Int64 // unix nanoseconds
	done   *atomic.Bool
}

func newTrickle(seed int64, halls int, newest *atomic.Int64, done *atomic.Bool) *trickle {
	rng := rand.New(rand.NewSource(seed))
	return &trickle{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, topology.NumRacks-1), halls: halls, newest: newest, done: done}
}

// next is openLoop's generator; one connection calls it, so the rng needs
// no lock.
func (t *trickle) next(int) (request, bool) {
	if t.done.Load() {
		return request{}, false
	}
	r := request{Op: opSeries, Metric: sensors.Metric(t.rng.Intn(int(sensors.NumMetrics)))}
	if t.rng.Intn(2) == 0 {
		r.Op = opAggregate
	}
	win := time.Hour
	if t.rng.Intn(2) == 0 {
		win = 24 * time.Hour
	}
	r.Rack = topology.RackByIndex(int(t.zipf.Uint64()))
	r.Rack.Hall = t.rng.Intn(t.halls)
	r.To = time.Unix(0, t.newest.Load()).Add(time.Second)
	r.From = r.To.Add(-win)
	return r, true
}

// runIngestPass pushes the trace into a fresh served store while a second
// connection reads, then persists: Flush, Compact, Open. Under sp (traced)
// it also times every ack, reads the idle server on the same schedule, and
// tries to recover what a crash at the last ack would leave.
func runIngestPass(sz sizes, seed int64, trace *tickTrace, dir string, sp *span, o *outcome) (ingestPass, error) {
	var p ingestPass
	ctx := context.Background()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	db := tsdb.NewStoreWith(sz.ingestStoreOptions())
	srv, err := serve(db)
	if err != nil {
		return p, err
	}
	defer srv.stop()
	pushRT, err := newTransport(1)
	if err != nil {
		return p, err
	}
	defer pushRT.CloseIdleConnections()
	readRT, err := newTransport(1)
	if err != nil {
		return p, err
	}
	defer readRT.CloseIdleConnections()
	var pushVia http.RoundTripper = pushRT
	var acks *timingTransport
	if sp != nil {
		acks = &timingTransport{inner: pushRT}
		pushVia = acks
	}
	pusher := newClient(srv.url, pushVia)
	reader := newClient(srv.url, readRT)

	var newest atomic.Int64
	var done atomic.Bool
	newest.Store(trace.ticks[0][0].Time.UnixNano())
	readsDone := make(chan loadResult, 1)
	reads := sp.child("bench.trickle")
	go func() {
		readsDone <- openLoop(reader, float64(sz.IngestReadRPS), 1, newTrickle(seed, sz.IngestHalls, &newest, &done).next, reads, "telemetrynet.read")
	}()
	push := sp.child("telemetrynet.push")
	t0 := time.Now()
	err = eachIngestRecord(sz, trace, pusher.Append, func(t time.Time) { newest.Store(t.UnixNano()) })
	if err == nil {
		err = pusher.Flush()
	}
	p.pushWall = time.Since(t0)
	push.end()
	done.Store(true)
	p.reads = <-readsDone
	reads.end()
	o.op(err)
	if err != nil {
		return p, fmt.Errorf("push: %w", err)
	}
	p.stats = pusher.Stats()
	p.acked = p.stats.PushedRecords
	o.count(p.reads, nil)
	o.check(db.Len() == p.acked && p.acked > 0, "server store holds %d records, %d were acked", db.Len(), p.acked)

	if sp != nil {
		p.acks = acks.took
		var idle atomic.Bool
		idleFor := time.AfterFunc(time.Second, func() { idle.Store(true) })
		s := sp.child("bench.trickle_idle")
		p.idleReads = openLoop(reader, float64(sz.IngestReadRPS), 1, newTrickle(seed, sz.IngestHalls, &newest, &idle).next, s, "telemetrynet.read_idle")
		s.end()
		idleFor.Stop()
		o.count(p.idleReads, nil)
		p.crashRecovered = recoverAfterCrash(dir, sz.ingestStoreOptions())
	}
	before, err := analysis.Fig7CoolantPushdownHall(ctx, db, 0)
	o.op(err)

	tPersist := time.Now()
	s := sp.child("tsdb.flush")
	err = db.Flush(dir)
	s.end()
	o.op(err)
	if err != nil {
		return p, fmt.Errorf("flush: %w", err)
	}
	p.flushBytes = db.Stats().DiskBytes
	s = sp.child("tsdb.compact")
	p.compaction, err = db.Compact(dir)
	s.end()
	o.op(err)
	if err != nil {
		return p, fmt.Errorf("compact: %w", err)
	}
	s = sp.child("tsdb.open")
	reopened, err := tsdb.Open(dir, sz.ingestStoreOptions())
	var reopenedLen int
	if err == nil {
		reopenedLen = reopened.Len()
	}
	s.end()
	p.persistWall = time.Since(tPersist)
	o.op(err)
	if err != nil {
		return p, fmt.Errorf("open: %w", err)
	}
	p.compactedBytes = reopened.Stats().DiskBytes

	o.check(p.compaction.SourceRecords > 0, "Compact folded nothing: the pass is shorter than the retention")
	o.check(reopenedLen == db.Len(), "reopened store holds %d records, the compacted one %d", reopenedLen, db.Len())
	after, err := analysis.Fig7CoolantPushdownHall(ctx, reopened, 0)
	o.op(err)
	o.check(figuresClose(before, after, 0), "Fig 7 pushdown changed across Flush, Compact and Open")
	return p, nil
}

// recoverAfterCrash opens a copy of the data directory as it stands at the
// last ack, before any Flush, and returns how many records come back. Only
// the process dies in this crash: the page cache is intact.
func recoverAfterCrash(dir string, opts tsdb.Options) int {
	crashed := dir + "-crashed"
	defer os.RemoveAll(crashed)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(crashed, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(crashed, rel), b, 0o644)
	})
	if err != nil {
		return 0
	}
	db, err := tsdb.Open(crashed, opts)
	if err != nil {
		return 0
	}
	return db.Len()
}

// runIngestLive is the ingest_live workload.
func runIngestLive(sz sizes, seed int64, budget time.Duration, scratch string, tr *tracer) (*outcome, error) {
	o := newOutcome()
	end := sz.TraceStart.AddDate(0, 0, sz.TraceDays)
	trace, setup, err := medianOf(sz.SetupRepeats, func() (*tickTrace, error) {
		return captureTrace(seed, sz.TraceStart, end, sz.Step)
	}, func(*tickTrace) {})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup

	root := tr.begin(nil, "bench.ingest_live")
	var passes []ingestPass
	err = repeatFor(budget, 2, func(i int) error {
		runtime.GC() // each pass starts from a collected heap, whatever the last one left
		sp := root.child("bench.pass")
		p, err := runIngestPass(sz, subSeed(seed, i), trace, filepath.Join(scratch, "ingest"), sp, o)
		sp.end()
		if err != nil {
			return err
		}
		passes = append(passes, p)
		return nil
	})
	root.end()
	if err != nil {
		return o, err
	}

	// Every pass pushes the same records, so the best pass is reported; the
	// reads are pooled over the passes.
	var walls, rates, disk, persist []float64
	var reads []time.Duration
	for _, p := range passes {
		walls = append(walls, (p.pushWall + p.persistWall).Seconds())
		rates = append(rates, float64(p.acked)/p.pushWall.Seconds())
		persist = append(persist, p.persistWall.Seconds())
		disk = append(disk, float64(p.flushBytes)/float64(p.acked*int(sensors.NumMetrics)))
		reads = append(reads, p.reads.latency...)
	}
	o.e2e["wall_s"] = best(walls, "lower")
	o.e2e["records_per_s"] = best(rates, "higher")
	o.e2e["disk_bytes_per_sample"] = median(disk)
	o.reads(reads)
	if tr == nil {
		return o, nil
	}

	l := o.layer
	l["ingest_records_per_s"] = best(rates, "higher")
	l["ingest_read_p50_ms"] = o.e2e["read_p50_ms"]
	l["persist_s"] = best(persist, "lower")
	var idle, acks []time.Duration
	var reduction, amp, recovered []float64
	last := passes[len(passes)-1]
	for _, p := range passes {
		idle = append(idle, p.idleReads.latency...)
		acks = append(acks, p.acks...)
		reduction = append(reduction, p.compaction.Reduction())
		amp = append(amp, float64(p.flushBytes+p.compactedBytes)/float64(p.acked*rawRecordBytes))
		recovered = append(recovered, float64(p.crashRecovered)/float64(p.acked))
	}
	l["telemetrynet.read_p99_ms"], _ = tailPercentile(sortedMs(reads), 0.99)
	l["tsdb.read_idle_p50_ms"], _ = tailPercentile(sortedMs(idle), 0.50)
	ackMs := sortedMs(acks)
	l["telemetrynet.ack_p50_ms"], _ = tailPercentile(ackMs, 0.50)
	l["telemetrynet.ack_p99_ms"], _ = tailPercentile(ackMs, 0.99)
	l["telemetrynet.push_ns_per_record"] = 1e9 / best(rates, "higher")
	l["telemetrynet.batches"] = float64(last.stats.PushedBatches)
	l["telemetrynet.retries"] = float64(last.stats.Retries)
	l["telemetrynet.duplicate_batches"] = float64(last.stats.DuplicateBatches)
	l["tsdb.flush_s"] = tr.medianSec("tsdb.flush")
	l["tsdb.compact_s"] = tr.medianSec("tsdb.compact")
	l["tsdb.open_s"] = tr.medianSec("tsdb.open")
	l["tsdb.compact_reduction"] = median(reduction)
	l["tsdb.write_amp"] = median(amp)
	l["tsdb.crash_recovered_ratio"] = median(recovered)

	layers := tr.begin(nil, "bench.layer_probes")
	defer layers.end()
	if err := ingestProbes(sz, trace, layers, o); err != nil {
		return o, err
	}
	// One more pass with no spans prices the tracing.
	plain, err := runIngestPass(sz, seed, trace, filepath.Join(scratch, "ingest"), nil, o)
	if err != nil {
		return o, err
	}
	l["bench.trace_overhead_pct"] = (median(walls)/(plain.pushWall+plain.persistWall).Seconds() - 1) * 100
	l["bench.selftime_coverage"] = layerCoverage(tr.spans)
	return o, nil
}

// rawRecordBytes is one record as plain values: a timestamp and six float64
// channels. tsdb.write_amp is bytes written per that many bytes ingested.
const rawRecordBytes = 8 + 8*int(sensors.NumMetrics)

// ingestProbes walks the push path one layer at a time over one epoch's
// records (the captured frames are held in memory): AppendTick alone, the
// client's encoding against a stub server, and the handler fed the captured
// frames with no socket.
func ingestProbes(sz sizes, trace *tickTrace, parent *span, o *outcome) error {
	sz.IngestEpochs = 1
	stub := &captureTransport{}
	client := newClient("http://stub.invalid", stub)
	records := 0
	sp := parent.child("telemetrynet.client_encode")
	t0 := time.Now()
	err := eachIngestRecord(sz, trace, func(r sensors.Record) error { records++; return client.Append(r) }, func(time.Time) {})
	if err == nil {
		err = client.Flush()
	}
	encode := time.Since(t0)
	sp.end()
	o.op(err)
	if err != nil {
		return fmt.Errorf("stub push: %w", err)
	}

	handler := telemetrynet.NewServer(tsdb.NewStoreWith(sz.ingestStoreOptions()), telemetrynet.ServerOptions{}).Handler()
	sp = parent.child("telemetrynet.handler_ingest")
	var handling time.Duration
	for _, frame := range stub.reqs {
		status, _, d, err := frame.serve(handler)
		if err == nil && status != 200 {
			err = fmt.Errorf("handler-only ingest answered %d", status)
		}
		if err != nil {
			sp.end()
			o.op(err)
			return err
		}
		handling += d
	}
	sp.end()

	// The store alone takes the batches the frames carried.
	db := tsdb.NewStoreWith(sz.ingestStoreOptions())
	batch := make([]sensors.Record, 0, 4096)
	var appending time.Duration
	appendBatch := func() error {
		t0 := time.Now()
		err := db.AppendTick(batch)
		appending += time.Since(t0)
		batch = batch[:0]
		return err
	}
	sp = parent.child("tsdb.append_tick")
	err = eachIngestRecord(sz, trace, func(r sensors.Record) error {
		batch = append(batch, r)
		if len(batch) == cap(batch) {
			return appendBatch()
		}
		return nil
	}, func(time.Time) {})
	if err == nil && len(batch) > 0 {
		err = appendBatch()
	}
	sp.end()
	o.op(err)
	if err != nil {
		return fmt.Errorf("direct AppendTick: %w", err)
	}
	o.check(db.Len() == records, "direct AppendTick stored %d of %d records", db.Len(), records)

	n := float64(records)
	o.layer["telemetrynet.client_encode_ns_per_record"] = float64(encode.Nanoseconds()) / n
	o.layer["telemetrynet.handler_ingest_ns_per_record"] = float64(handling.Nanoseconds()) / n
	o.layer["tsdb.append_tick_ns_per_record"] = float64(appending.Nanoseconds()) / n
	return nil
}
