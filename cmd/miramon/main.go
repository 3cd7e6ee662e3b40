// Command miramon demonstrates live coolant monitoring: it replays a
// simulated window through the coolant monitor's threshold alarms and a
// trained NN early-warning model side by side, showing the early warnings
// the paper's predictor adds over classic threshold monitoring.
//
// Usage:
//
//	miramon [-seed N] [-train-days 120] [-watch-days 45] [-data dir]
//	        [-retention 0] [-compact-interval 1h] [-listen :8080] [-serve]
//	        [-halls 1] [-racks 48] [-audit-interval 1m]
//	        [-report report.json] [-log-format text|json]
//
// With -data, a cold run persists the watched telemetry to segment files;
// a warm run (segments already present) skips the simulation and instead
// replays the persisted telemetry through the threshold monitor and the
// aggregation summary. -retention bounds the full-rate hot window: records
// older than it are folded on disk into 1-hour downsampled windows, once
// at startup and — when the process stays up with -listen — every
// -compact-interval in the background.
//
// -listen turns miramon into a long-running monitor: /metrics, /healthz,
// and /debug/pprof serve from startup, and after the demo finishes the
// process stays up so the final counters remain scrapeable. If the -data
// store is corrupt, a listening miramon reports 503 on /healthz and keeps
// serving instead of exiting. A listening miramon shuts down gracefully on
// SIGINT/SIGTERM: in-flight requests drain, the -data store is flushed,
// and — with -retention — a final compaction runs before exit.
//
// -serve (requires -listen and -data) skips the demo and runs miramon as a
// telemetry server: the store under -data (created empty if absent) is
// exposed through the telemetrynet ingest and query API on the same
// listener as /metrics, remote mirasim processes push records into it
// (mirasim -push), remote analyses query it (miraanalyze -remote), and a
// background auditor threshold-checks newly ingested records every
// -audit-interval. -halls/-racks size the store for a multi-hall fleet:
// one serving miramon holds every hall's racks as separate shards,
// exposes per-hall sample gauges on /metrics, and the auditor's scan
// fans out across all halls.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"mira"
	"mira/internal/analysis"
	"mira/internal/core"
	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
)

var (
	metAuditRuns = obs.NewCounter("mira_mon_audit_runs_total",
		"incremental threshold-audit passes over the store")
	metAuditRecords = obs.NewCounter("mira_mon_audit_records_total",
		"raw records threshold-checked by the incremental auditor")
	metAuditAlarms = obs.NewCounter("mira_mon_audit_alarms_total",
		"threshold alarms raised by the incremental auditor")
)

// watcher replays telemetry through threshold checks and the NN predictor.
type watcher struct {
	sim.NopRecorder
	predictor *core.Predictor
	step      time.Duration
	logg      *obs.Logger

	rings    map[topology.RackID][]sensors.Record
	warnings int
	alerts   int
	events   []string
}

func newWatcher(p *core.Predictor, step time.Duration, logg *obs.Logger) *watcher {
	return &watcher{predictor: p, step: step, logg: logg, rings: make(map[topology.RackID][]sensors.Record)}
}

func (w *watcher) OnSample(rec sensors.Record) {
	ring := append(w.rings[rec.Rack], rec)
	span := int(core.FeatureSpan/w.step) + 1
	if len(ring) > span {
		ring = ring[len(ring)-span:]
	}
	w.rings[rec.Rack] = ring

	// Classic threshold monitoring.
	if alarms := sensors.DefaultThresholds().Check(rec); len(alarms) > 0 {
		w.warnings++
		w.logg.Debugf("%s threshold alarm: %s", rec.Time.Format("2006-01-02 15:04"), alarms[0].Reason)
		if len(w.events) < 400 {
			w.events = append(w.events, fmt.Sprintf("%s THRESHOLD %s", rec.Time.Format("2006-01-02 15:04"), alarms[0].Reason))
		}
	}
	// NN early warning on the trailing six-hour deltas.
	if len(ring) == span {
		if f, err := core.DeltaFeatures(ring, w.step, 0); err == nil {
			if p := w.predictor.Probability(f); p > 0.9 {
				w.alerts++
				w.logg.Warnf("%s NN early warning: rack %v p=%.2f", rec.Time.Format("2006-01-02 15:04"), rec.Rack, p)
				if len(w.events) < 400 {
					w.events = append(w.events, fmt.Sprintf("%s NN-EARLY-WARNING rack %v p=%.2f", rec.Time.Format("2006-01-02 15:04"), rec.Rack, p))
				}
			}
		}
	}
}

func (w *watcher) OnIncident(inc sim.Incident) {
	w.logg.Warnf("%s CMF at %v: %d racks down, %d jobs killed",
		inc.Time.Format("2006-01-02 15:04"), inc.Epicenter, len(inc.Racks), inc.JobsKilled)
	if len(w.events) < 400 {
		w.events = append(w.events, fmt.Sprintf("%s *** CMF at %v, %d racks down, %d jobs killed ***",
			inc.Time.Format("2006-01-02 15:04"), inc.Epicenter, len(inc.Racks), inc.JobsKilled))
	}
}

func main() {
	var (
		seed        = flag.Int64("seed", 99, "seed")
		trainDays   = flag.Int("train-days", 150, "days of telemetry to train the early-warning model on")
		watchDays   = flag.Int("watch-days", 45, "days of telemetry to monitor")
		dataDir     = flag.String("data", "", "persist watched telemetry to segment files; on a warm open, replay them instead of simulating")
		retention   = flag.Duration("retention", 0, "hot-window length for the -data store: fold older records into 1-hour downsampled windows on disk (0 = keep everything full-rate)")
		compactEach = flag.Duration("compact-interval", time.Hour, "how often a listening monitor re-runs retention compaction in the background (requires -retention and -listen)")
		listen      = flag.String("listen", "", "serve /metrics, /healthz, and pprof on this address and stay up after the demo (e.g. :8080)")
		serve       = flag.Bool("serve", false, "run as a telemetry server: expose the -data store through the telemetrynet ingest/query API on -listen instead of running the demo")
		halls       = flag.Int("halls", 1, "machine halls the -data store is sized for; >1 shards the store per hall and persists per-hall segment directories")
		racks       = flag.Int("racks", topology.NumRacks, "racks per hall (1..48)")
		auditEach   = flag.Duration("audit-interval", time.Minute, "how often a listening monitor threshold-audits records newer than the last audited timestamp")
		reportPath  = flag.String("report", "", "write a RunReport metric snapshot (JSON) to this file at exit")
		logFormat   = flag.String("log-format", "text", "diagnostic log format: text or json")
		scanWorkers = flag.Int("scan-workers", 0, "decode workers for parallel store scans (0 = GOMAXPROCS)")
		slowQuery   = flag.Duration("slow-query", 0, "log telemetry API requests at or over this duration as JSON slow-query lines on stderr, and always keep their traces at /debug/traces (0 = disabled)")
		traceSample = flag.Float64("trace-sample", 1, "head-sampling ratio for request traces at /debug/traces, 0..1; slow requests are kept regardless")
	)
	flag.Parse()
	logg := obs.NewLogger(os.Stderr, *logFormat, "miramon")

	tcfg := obs.TracerConfig{SampleRatio: *traceSample, NoSample: *traceSample <= 0}
	if *slowQuery > 0 {
		// One threshold drives both surfaces: the slow-query log and the
		// tracer's always-keep-slow policy.
		tcfg.SlowSpan = *slowQuery
	}
	obs.ConfigureTracer(tcfg)

	scan := analysis.CollectOptions{Workers: *scanWorkers}

	if *serve && (*listen == "" || *dataDir == "") {
		logg.Fatalf("-serve requires both -listen and -data")
	}
	fleet, err := topology.NewFleet(*halls, *racks)
	if err != nil {
		logg.Fatalf("bad -halls/-racks: %v", err)
	}

	// serveHTTP starts the shared listener: the obs surface, plus — with
	// -serve — the telemetry API mounted on the same mux.
	var httpSrv *obs.HTTPServer
	serveHTTP := func(db envdb.DB) {
		if *listen == "" {
			return
		}
		var mount func(*http.ServeMux)
		if *serve && db != nil {
			mount = telemetrynet.NewServer(db, telemetrynet.ServerOptions{
				ScanWorkers: *scanWorkers,
				SlowQuery:   *slowQuery,
			}).Mount
		}
		srv, err := obs.ServeWith(*listen, mount)
		if err != nil {
			logg.Fatalf("-listen %s: %v", *listen, err)
		}
		httpSrv = srv
		logg.Infof("serving /metrics, /healthz, and /debug/pprof on %s", srv.Addr())
		if mount != nil {
			logg.Infof("telemetry API on %s", srv.Addr())
		}
	}

	if *serve {
		db, err := tsdb.Open(*dataDir, tsdb.Options{Retention: *retention, Fleet: fleet})
		switch {
		case errors.Is(err, tsdb.ErrNoData):
			logg.Infof("no segments under %s; serving an empty store", *dataDir)
			db = tsdb.NewStoreWith(tsdb.Options{Retention: *retention, Fleet: fleet})
		case errors.Is(err, tsdb.ErrCorrupt):
			obs.SetHealth(err)
			logg.Errorf("store under %s is corrupt; serving unhealthy: %v", *dataDir, err)
			serveHTTP(nil)
			finish(logg, httpSrv, nil, "", 0, *reportPath)
			return
		case err != nil:
			logg.Fatalf("%v", err)
		}
		db.ExposeGauges(nil)
		serveHTTP(db)
		compactOnce(db, *dataDir, *retention, logg)
		aud := newAuditor(db, *scanWorkers)
		if recs, alarms, _, err := aud.runOnce(); err != nil {
			logg.Fatalf("initial audit: %v", err)
		} else {
			logg.Infof("serving %d stored records (%d threshold alarms on the initial audit)", db.Len(), alarms)
			_ = recs
		}
		startCompactor(db, *dataDir, *retention, *compactEach, *listen, logg)
		aud.startLoop(*auditEach, logg)
		finish(logg, httpSrv, db, *dataDir, *retention, *reportPath)
		return
	}

	serveHTTP(nil)

	if *dataDir != "" {
		db, err := tsdb.Open(*dataDir, tsdb.Options{Retention: *retention, Fleet: fleet})
		switch {
		case err == nil:
			db.ExposeGauges(nil)
			compactOnce(db, *dataDir, *retention, logg)
			aud := replayAudit(db, *dataDir, scan, logg)
			startCompactor(db, *dataDir, *retention, *compactEach, *listen, logg)
			if *listen != "" {
				aud.startLoop(*auditEach, logg)
			}
			finish(logg, httpSrv, db, *dataDir, *retention, *reportPath)
			return
		case errors.Is(err, tsdb.ErrCorrupt) && *listen != "":
			// A long-running monitor should surface corruption on
			// /healthz, not die: scrapers see the 503 and the error text.
			obs.SetHealth(err)
			logg.Errorf("store under %s is corrupt; serving unhealthy: %v", *dataDir, err)
			finish(logg, httpSrv, nil, "", 0, *reportPath)
			return
		case !errors.Is(err, tsdb.ErrNoData):
			logg.Fatalf("%v", err)
		}
		// Cold start: run the live demo below and persist at the end.
	}

	// Train on a failure-dense 2016 stretch.
	trainStart := time.Date(2016, 6, 1, 0, 0, 0, 0, timeutil.Chicago)
	trainEnd := trainStart.AddDate(0, 0, *trainDays)
	fmt.Printf("training the early-warning model on %d simulated days...\n", *trainDays)
	study, err := mira.RunStudy(mira.StudyConfig{Seed: *seed, Start: trainStart, End: trainEnd})
	if err != nil {
		logg.Fatalf("%v", err)
	}
	predictor, err := study.TrainPredictor(time.Hour, mira.PredictorConfig{Seed: *seed})
	if err != nil {
		logg.Fatalf("%v", err)
	}
	fmt.Printf("trained on %d pre-CMF and %d quiet windows\n\n", len(study.PositiveWindows()), len(study.NegativeWindows()))

	// Watch a later window live.
	watchStart := trainEnd
	watchEnd := watchStart.AddDate(0, 0, *watchDays)
	fmt.Printf("monitoring %s .. %s...\n\n", watchStart.Format("2006-01-02"), watchEnd.Format("2006-01-02"))
	w := newWatcher(predictor, timeutil.SampleInterval, logg)
	s := sim.New(sim.Config{Seed: *seed, Start: trainStart, End: watchEnd})
	// Replay includes the training period for scheduler continuity; only
	// report the watch window.
	w2 := &gate{inner: w, from: watchStart}
	s.AddRecorder(w2)
	// Keep the watched telemetry queryable in the compressed store so the
	// summary can aggregate it without re-running the simulation. The demo
	// simulates one machine; a wider -halls store just leaves the other
	// halls' shards empty.
	db := tsdb.NewStoreWith(tsdb.Options{Retention: *retention, Fleet: fleet})
	db.ExposeGauges(nil)
	dbRec := sim.NewEnvDBRecorder(db)
	s.AddRecorder(&gate{inner: dbRec, from: watchStart})
	if err := s.Run(); err != nil {
		logg.Fatalf("%v", err)
	}
	if dbRec.Err != nil {
		logg.Fatalf("telemetry recording: %v", dbRec.Err)
	}

	for _, e := range w.events {
		fmt.Println(e)
	}
	fmt.Printf("\nsummary: %d threshold alarms, %d NN early warnings, %d CMF incidents\n",
		w.warnings, w.alerts, len(s.Incidents()))
	fmt.Println("threshold alarms fire when limits are already crossed; the NN flags the")
	fmt.Println("characteristic telemetry *changes* hours earlier (paper §VI-D).")

	db.SealAll()
	st := db.Stats()
	fmt.Printf("\ntelemetry retained: %d samples, %.2f MiB compressed (%.2f B/sample)\n",
		db.Len(), float64(st.SealedBytes)/(1<<20), st.BytesPerSample)
	hot := topology.RackID{Row: 1, Col: 8} // the paper's humidity hotspot
	fmt.Printf("rack %v inlet °F by week (min / mean / max, aggregation pushdown):\n", hot)
	aggs, err := db.Aggregate(hot, sensors.MetricInletTemp, watchStart, watchEnd, 7*24*time.Hour)
	if err != nil {
		logg.Fatalf("aggregate: %v", err)
	}
	for _, agg := range aggs {
		if agg.Count == 0 {
			continue
		}
		fmt.Printf("  wk %s  %6.2f / %6.2f / %6.2f\n", agg.Start.Format("2006-01-02"), agg.Min, agg.Mean(), agg.Max)
	}

	summarizeAnalysis(db, scan)

	if *dataDir != "" {
		if err := db.Flush(*dataDir); err != nil {
			logg.Fatalf("%v", err)
		}
		compactOnce(db, *dataDir, *retention, logg)
		fmt.Printf("\nwatched telemetry persisted to %s (%.1f MiB on disk); rerun with -data to replay without simulating\n",
			*dataDir, float64(db.Stats().DiskBytes)/(1<<20))
		startCompactor(db, *dataDir, *retention, *compactEach, *listen, logg)
	}
	finish(logg, httpSrv, db, *dataDir, *retention, *reportPath)
}

// auditor runs incremental threshold audits: each pass scans only records
// newer than the per-rack high-water mark of the previous pass, so a
// long-running monitor re-checks fresh ingest instead of re-scanning the
// whole store every interval.
type auditor struct {
	db         *tsdb.Store
	fleet      topology.Fleet
	workers    int
	thresholds sensors.Thresholds

	mu    sync.Mutex
	lastN []int64 // newest audited UnixNano per fleet rack (GlobalIndex order)
}

func newAuditor(db *tsdb.Store, workers int) *auditor {
	fleet := db.Fleet()
	return &auditor{
		db:         db,
		fleet:      fleet,
		workers:    workers,
		thresholds: sensors.DefaultThresholds(),
		lastN:      make([]int64, fleet.NumRacks()),
	}
}

// runOnce audits everything newer than the watermarks and advances them,
// returning the fresh raw records checked, the alarms among them, and the
// downsampled windows skipped (hourly means would hide the excursions
// compaction averaged away, so only raw records are threshold-checked).
func (a *auditor) runOnce() (records, alarms, coldWindows int, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, last, ok := a.db.Bounds()
	if !ok {
		return 0, 0, 0, nil
	}
	oldest := a.lastN[0]
	for _, n := range a.lastN[1:] {
		if n < oldest {
			oldest = n
		}
	}
	// Racks advance at different rates (one pusher per rack group), so the
	// scan starts at the stalest rack's watermark and per-rack skips below
	// drop the records faster racks already audited. The scan fans out
	// across every hall's shards, so one pass audits the whole fleet.
	err = a.db.EachChunkInRange(context.Background(), time.Unix(0, oldest+1), last.Add(time.Nanosecond), a.workers,
		func(c *envdb.Chunk) bool {
			for i, n := range c.Times {
				r := c.Record(i)
				idx := a.fleet.GlobalIndex(r.Rack)
				if n <= a.lastN[idx] {
					continue
				}
				a.lastN[idx] = n
				if c.Tiers[i] != envdb.TierRaw {
					coldWindows++
					continue
				}
				records++
				if len(a.thresholds.Check(r)) > 0 {
					alarms++
				}
			}
			return true
		})
	if err != nil {
		return records, alarms, coldWindows, err
	}
	metAuditRuns.Inc()
	metAuditRecords.Add(uint64(records))
	metAuditAlarms.Add(uint64(alarms))
	return records, alarms, coldWindows, nil
}

// startLoop re-audits every interval for the life of the process. Errors
// are logged, not fatal: like the compactor, an audit failure must not
// take down the serving surface, and the next tick retries from the same
// watermarks.
func (a *auditor) startLoop(interval time.Duration, logg *obs.Logger) {
	if interval <= 0 {
		return
	}
	logg.Infof("incremental threshold audit every %v", interval)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for range t.C {
			records, alarms, _, err := a.runOnce()
			if err != nil {
				logg.Errorf("threshold audit: %v", err)
				continue
			}
			if alarms > 0 {
				logg.Warnf("threshold audit: %d alarms across %d new records", alarms, records)
			}
		}
	}()
}

// compactOnce runs one retention compaction against the persisted store
// and reports what it folded; a no-op without -retention.
func compactOnce(db *tsdb.Store, dir string, retention time.Duration, logg *obs.Logger) {
	if retention <= 0 {
		return
	}
	cs, err := db.Compact(dir)
	if err != nil {
		logg.Fatalf("retention compaction: %v", err)
	}
	if cs.Windows > 0 {
		fmt.Printf("compacted %d raw records into %d downsampled windows (%.1fx on-disk reduction for the compacted range)\n",
			cs.SourceRecords, cs.Windows, cs.Reduction())
	}
}

// startCompactor re-runs retention compaction every interval for as long
// as the process serves /metrics — the long-running half of the retention
// story. Compaction errors are logged, not fatal: a monitor should keep
// serving its health and metrics surface even when a compaction pass
// fails, and the next tick retries.
func startCompactor(db *tsdb.Store, dir string, retention, interval time.Duration, listen string, logg *obs.Logger) {
	if retention <= 0 || listen == "" {
		return
	}
	logg.Infof("background retention compaction every %v (hot window %v)", interval, retention)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for range t.C {
			cs, err := db.Compact(dir)
			if err != nil {
				logg.Errorf("retention compaction: %v", err)
				continue
			}
			if cs.Windows > 0 {
				logg.Infof("compacted %d raw records into %d downsampled windows across %d shards",
					cs.SourceRecords, cs.Windows, cs.Shards)
			}
		}
	}()
}

// finish writes the RunReport if requested, then either exits (no -listen)
// or keeps serving until SIGINT/SIGTERM. On a signal the shutdown is
// graceful: the listener drains in-flight requests, then — when a -data
// store is live — buffered records are flushed to segments and, with
// -retention, a final compaction folds anything past the hot window, so
// telemetry ingested right up to the signal survives the restart.
func finish(logg *obs.Logger, srv *obs.HTTPServer, db *tsdb.Store, dataDir string, retention time.Duration, reportPath string) {
	if reportPath != "" {
		if err := obs.WriteRunReport(reportPath); err != nil {
			logg.Fatalf("-report: %v", err)
		}
		logg.Infof("run report written to %s", reportPath)
	}
	if srv == nil {
		return
	}
	logg.Infof("serving on %s (SIGINT/SIGTERM for graceful shutdown)", srv.Addr())
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	sig := <-sigCh
	logg.Infof("%v: shutting down", sig)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logg.Errorf("http shutdown: %v", err)
	}
	if db != nil && dataDir != "" {
		if err := db.Flush(dataDir); err != nil {
			logg.Fatalf("final flush: %v", err)
		}
		if retention > 0 {
			if _, err := db.Compact(dataDir); err != nil {
				logg.Errorf("final compaction: %v", err)
			}
		}
		logg.Infof("store flushed to %s (%d records)", dataDir, db.Len())
	}
	logg.Infof("shutdown complete")
}

// summarizeAnalysis runs the rack-level coolant and ambient figures over
// the store so the analysis-layer metrics (figure durations) are populated
// alongside tsdb and sim series on /metrics and in the RunReport.
func summarizeAnalysis(db *tsdb.Store, scan analysis.CollectOptions) {
	c := analysis.CollectFromStoreCtx(context.Background(), db, scan)
	fig7 := c.Fig7RackCoolant()
	fig9 := c.Fig9RackAmbient()
	fmt.Printf("\nrack spreads over the watch window: flow %.1f%%, inlet %.1f%%, outlet %.1f%%; most humid rack %v\n",
		fig7.FlowSpreadPct, fig7.InletSpreadPct, fig7.OutletSpreadPct, fig9.MaxHumidityRack)
}

// replayAudit is the warm-start path: no simulation, no NN (the model
// trains on simulated incidents) — just classic threshold monitoring and
// the aggregation pushdown summary over the persisted telemetry. The
// returned auditor's watermarks sit at the end of the store, so a
// subsequent audit loop re-checks only newly appended records.
func replayAudit(db *tsdb.Store, dir string, scan analysis.CollectOptions, logg *obs.Logger) *auditor {
	first, last, ok := db.Bounds()
	if !ok {
		logg.Fatalf("store under %s is empty", dir)
	}
	st := db.Stats()
	fmt.Printf("warm start: replaying %d persisted samples from %s (%.1f MiB on disk)\n",
		db.Len(), dir, float64(st.DiskBytes)/(1<<20))
	fmt.Printf("window: %s .. %s\n\n", first.Format("2006-01-02 15:04"), last.Format("2006-01-02 15:04"))

	// The merged scan behind the auditor decodes shards in parallel and —
	// unlike EachRecordUntil — returns decode failures instead of
	// panicking, which suits a replay over disk-loaded segments.
	aud := newAuditor(db, scan.Workers)
	_, warnings, coldWindows, err := aud.runOnce()
	if err != nil {
		logg.Fatalf("scan: %v", err)
	}
	fmt.Printf("threshold alarms over the stored window: %d\n", warnings)
	if coldWindows > 0 {
		fmt.Printf("(%d downsampled windows skipped by the threshold check; aggregates below still cover them)\n", coldWindows)
	}
	fmt.Println("(NN early warnings need a live run: the model trains on simulated incidents)")

	hot := topology.RackID{Row: 1, Col: 8} // the paper's humidity hotspot
	fmt.Printf("\nrack %v inlet °F by week (min / mean / max, aggregation pushdown):\n", hot)
	aggs, err := db.Aggregate(hot, sensors.MetricInletTemp, first, last.Add(time.Nanosecond), 7*24*time.Hour)
	if err != nil {
		logg.Fatalf("aggregate: %v", err)
	}
	for _, agg := range aggs {
		if agg.Count == 0 {
			continue
		}
		fmt.Printf("  wk %s  %6.2f / %6.2f / %6.2f\n", agg.Start.Format("2006-01-02"), agg.Min, agg.Mean(), agg.Max)
	}

	summarizeAnalysis(db, scan)
	return aud
}

// gate forwards recorder callbacks only after a cutoff time.
type gate struct {
	sim.NopRecorder
	inner sim.Recorder
	from  time.Time
}

func (g *gate) OnSample(rec sensors.Record) {
	if !rec.Time.Before(g.from) {
		g.inner.OnSample(rec)
	}
}

func (g *gate) OnTick(t time.Time, p units.Watts, u float64) {
	if !t.Before(g.from) {
		g.inner.OnTick(t, p, u)
	}
}

func (g *gate) OnIncident(inc sim.Incident) {
	if !inc.Time.Before(g.from) {
		g.inner.OnIncident(inc)
	}
}
