// Command miramon demonstrates live coolant monitoring: it replays a
// simulated window through the coolant monitor's threshold alarms and a
// trained NN early-warning model side by side, showing the early warnings
// the paper's predictor adds over classic threshold monitoring.
//
// Usage:
//
//	miramon [-seed N] [-train-days 150] [-watch-days 45] [-data dir]
//	        [-retention 0] [-compact-interval 1h] [-listen :8080] [-serve]
//	        [-halls 1] [-racks 48] [-audit-interval 1m] [-scan-workers N]
//	        [-slow-query 0] [-trace-sample 1]
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
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"mira"
	"mira/internal/analysis"
	"mira/internal/cli"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("miramon", stderr).WithReport()
	var (
		seed        = c.Flags.Int64("seed", 99, "seed")
		trainDays   = c.Flags.Int("train-days", 150, "days of telemetry to train the early-warning model on")
		watchDays   = c.Flags.Int("watch-days", 45, "days of telemetry to monitor")
		dataDir     = c.Flags.String("data", "", "persist watched telemetry to segment files; on a warm open, replay them instead of simulating")
		retention   = c.Flags.Duration("retention", 0, "hot-window length for the -data store: fold older records into 1-hour downsampled windows on disk (0 = keep everything full-rate)")
		compactEach = c.Flags.Duration("compact-interval", time.Hour, "how often a listening monitor re-runs retention compaction in the background (requires -retention and -listen; <= 0 disables)")
		listen      = c.Flags.String("listen", "", "serve /metrics, /healthz, and pprof on this address and stay up after the demo (e.g. :8080)")
		serve       = c.Flags.Bool("serve", false, "run as a telemetry server: expose the -data store through the telemetrynet ingest/query API on -listen instead of running the demo")
		fleetFlags  = c.Fleet("machine halls the -data store is sized for; >1 shards the store per hall and persists per-hall segment directories")
		auditEach   = c.Flags.Duration("audit-interval", time.Minute, "how often a listening monitor threshold-audits records newer than the last audited timestamp")
		scanWorkers = c.Flags.Int("scan-workers", 0, "decode workers for parallel store scans (0 = GOMAXPROCS)")
		slowQuery   = c.Flags.Duration("slow-query", 0, "log telemetry API requests at or over this duration as JSON slow-query lines on stderr, and always keep their traces at /debug/traces (0 = disabled)")
		traceSample = c.Flags.Float64("trace-sample", 1, "head-sampling ratio for request traces at /debug/traces, 0..1; slow requests are kept regardless")
	)
	return c.Run(args, func() error {
		// One threshold drives both surfaces: the slow-query log and the
		// tracer's always-keep-slow policy (0 keeps the tracer's default).
		obs.ConfigureTracer(obs.TracerConfig{SampleRatio: *traceSample, NoSample: *traceSample <= 0, SlowSpan: *slowQuery})

		scan := analysis.CollectOptions{Workers: *scanWorkers}
		if *serve && (*listen == "" || *dataDir == "") {
			return errors.New("-serve requires both -listen and -data")
		}
		fleet, err := fleetFlags()
		if err != nil {
			return err
		}
		opts := tsdb.Options{Retention: *retention, Fleet: fleet}

		// db is the -data store when it opened warm, nil on a cold start;
		// -serve serves a missing store empty.
		var db *tsdb.Store
		if *dataDir != "" {
			db, err = tsdb.Open(*dataDir, opts)
			switch {
			case errors.Is(err, tsdb.ErrCorrupt) && *listen != "":
				// A long-running monitor should surface corruption on
				// /healthz, not die: scrapers see the 503 and the error text.
				obs.SetHealth(err)
				c.Log.Errorf("store under %s is corrupt; serving unhealthy: %v", *dataDir, err)
				srv, err := c.Serve(*listen, nil)
				if err != nil {
					return err
				}
				return stayUp(c, srv, nil, "")
			case errors.Is(err, tsdb.ErrNoData) && *serve:
				c.Log.Infof("no segments under %s; serving an empty store", *dataDir)
				db = tsdb.NewStoreWith(opts)
			case err != nil && !errors.Is(err, tsdb.ErrNoData):
				return err
			}
		}

		var mount func(*http.ServeMux)
		if *serve {
			mount = telemetrynet.NewServer(db, telemetrynet.ServerOptions{ScanWorkers: *scanWorkers, SlowQuery: *slowQuery}).Mount
		}
		srv, err := c.Serve(*listen, mount)
		if err != nil {
			return err
		}
		if db != nil {
			if *serve {
				c.Log.Infof("telemetry API on %s", srv.Addr())
			}
			db.ExposeGauges(nil)
			if err := cli.Compact(stdout, db, *dataDir); err != nil {
				return err
			}
			aud := newAuditor(db, *scanWorkers)
			if *serve {
				_, alarms, _, err := aud.runOnce()
				if err != nil {
					return fmt.Errorf("initial audit: %w", err)
				}
				c.Log.Infof("serving %d stored records (%d threshold alarms on the initial audit)", db.Len(), alarms)
			} else if err := replayAudit(stdout, aud, *dataDir, scan); err != nil {
				return err
			}
			startCompactor(c.Log, db, *dataDir, *retention, *compactEach, *listen)
			if *listen != "" {
				aud.startLoop(*auditEach, c.Log)
			}
			return stayUp(c, srv, db, *dataDir)
		}

		// Cold start (or no -data): run the live demo and persist at the end.
		// Train on a failure-dense 2016 stretch.
		trainStart := time.Date(2016, 6, 1, 0, 0, 0, 0, timeutil.Chicago)
		trainEnd := trainStart.AddDate(0, 0, *trainDays)
		fmt.Fprintf(stdout, "training the early-warning model on %d simulated days...\n", *trainDays)
		study, err := mira.RunStudy(mira.StudyConfig{Seed: *seed, Start: trainStart, End: trainEnd})
		if err != nil {
			return err
		}
		predictor, err := study.TrainPredictor(time.Hour, mira.PredictorConfig{Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trained on %d pre-CMF and %d quiet windows\n\n", len(study.PositiveWindows()), len(study.NegativeWindows()))

		// Watch a later window live.
		watchStart := trainEnd
		watchEnd := watchStart.AddDate(0, 0, *watchDays)
		fmt.Fprintf(stdout, "monitoring %s .. %s...\n\n", watchStart.Format("2006-01-02"), watchEnd.Format("2006-01-02"))
		w := newWatcher(predictor, timeutil.SampleInterval, c.Log)
		s := sim.New(sim.Config{Seed: *seed, Start: trainStart, End: watchEnd})
		// Replay includes the training period for scheduler continuity; only
		// report the watch window.
		s.AddRecorder(&gate{inner: w, from: watchStart})
		// Keep the watched telemetry queryable in the compressed store so
		// the summary can aggregate it without re-running the simulation.
		// The demo simulates one machine; a wider -halls store just leaves
		// the other halls' shards empty.
		db = tsdb.NewStoreWith(opts)
		db.ExposeGauges(nil)
		dbRec := sim.NewEnvDBRecorder(db)
		s.AddRecorder(&gate{inner: dbRec, from: watchStart})
		if err := s.Run(); err != nil {
			return err
		}
		if dbRec.Err != nil {
			return fmt.Errorf("telemetry recording: %w", dbRec.Err)
		}

		for _, e := range w.events {
			fmt.Fprintln(stdout, e)
		}
		fmt.Fprintf(stdout, "\nsummary: %d threshold alarms, %d NN early warnings, %d CMF incidents\n",
			w.warnings, w.alerts, len(s.Incidents()))
		fmt.Fprintln(stdout, "threshold alarms fire when limits are already crossed; the NN flags the")
		fmt.Fprintln(stdout, "characteristic telemetry *changes* hours earlier (paper §VI-D).")

		db.SealAll()
		st := db.Stats()
		fmt.Fprintf(stdout, "\ntelemetry retained: %d samples, %.2f MiB compressed (%.2f B/sample)\n",
			db.Len(), float64(st.SealedBytes)/(1<<20), st.BytesPerSample)
		if err := summarize(stdout, db, scan, watchStart, watchEnd); err != nil {
			return err
		}

		if *dataDir != "" {
			if err := db.Flush(*dataDir); err != nil {
				return err
			}
			if err := cli.Compact(stdout, db, *dataDir); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\nwatched telemetry persisted to %s (%.1f MiB on disk); rerun with -data to replay without simulating\n",
				*dataDir, float64(db.Stats().DiskBytes)/(1<<20))
			startCompactor(c.Log, db, *dataDir, *retention, *compactEach, *listen)
		}
		return stayUp(c, srv, db, *dataDir)
	})
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
		for range time.Tick(interval) {
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

// startCompactor re-runs retention compaction every interval for as long
// as the process serves /metrics — the long-running half of the retention
// story; an interval <= 0 turns it off. Compaction errors are logged, not
// fatal: a monitor should keep serving its health and metrics surface even
// when a compaction pass fails, and the next tick retries.
func startCompactor(logg *obs.Logger, db *tsdb.Store, dir string, retention, interval time.Duration, listen string) {
	if retention <= 0 || interval <= 0 || listen == "" {
		return
	}
	logg.Infof("background retention compaction every %v (hot window %v)", interval, retention)
	go func() {
		for range time.Tick(interval) {
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

// stayUp keeps a listening monitor serving until SIGINT/SIGTERM, and
// returns at once without -listen. On a signal the shutdown is graceful:
// the listener drains in-flight requests, then — when a -data store is
// live — buffered records are flushed to segments and, with -retention, a
// final compaction folds anything past the hot window, so telemetry
// ingested right up to the signal survives the restart.
func stayUp(c *cli.Cmd, srv *obs.HTTPServer, db *tsdb.Store, dir string) error {
	if srv == nil {
		return nil
	}
	return c.ServeUntilSignal(srv, func() error {
		if dir == "" {
			return nil
		}
		if err := db.Flush(dir); err != nil {
			return fmt.Errorf("final flush: %w", err)
		}
		if _, err := db.Compact(dir); err != nil {
			c.Log.Errorf("final compaction: %v", err)
		}
		c.Log.Infof("store flushed to %s (%d records)", dir, db.Len())
		return nil
	})
}

// summarize prints the weekly inlet aggregates of the paper's humidity
// hotspot rack over [from, to) through the aggregation pushdown, then runs
// the rack-level coolant and ambient figures over the store so the
// analysis-layer metrics (figure durations) are populated alongside tsdb
// and sim series on /metrics and in the RunReport.
func summarize(w io.Writer, db *tsdb.Store, scan analysis.CollectOptions, from, to time.Time) error {
	hot := topology.RackID{Row: 1, Col: 8} // the paper's humidity hotspot
	fmt.Fprintf(w, "rack %v inlet °F by week (min / mean / max, aggregation pushdown):\n", hot)
	aggs, err := db.Aggregate(hot, sensors.MetricInletTemp, from, to, 7*24*time.Hour)
	if err != nil {
		return fmt.Errorf("aggregate: %w", err)
	}
	for _, agg := range aggs {
		if agg.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "  wk %s  %6.2f / %6.2f / %6.2f\n", agg.Start.Format("2006-01-02"), agg.Min, agg.Mean(), agg.Max)
	}

	c := analysis.CollectFromStoreCtx(context.Background(), db, scan)
	fig7 := c.Fig7RackCoolant()
	fig9 := c.Fig9RackAmbient()
	fmt.Fprintf(w, "\nrack spreads over the watch window: flow %.1f%%, inlet %.1f%%, outlet %.1f%%; most humid rack %v\n",
		fig7.FlowSpreadPct, fig7.InletSpreadPct, fig7.OutletSpreadPct, fig9.MaxHumidityRack)
	return nil
}

// replayAudit is the warm-start path: no simulation, no NN (the model
// trains on simulated incidents) — just classic threshold monitoring and
// the aggregation pushdown summary over the persisted telemetry. It leaves
// the auditor's watermarks at the end of the store, so a subsequent audit
// loop re-checks only newly appended records.
func replayAudit(w io.Writer, aud *auditor, dir string, scan analysis.CollectOptions) error {
	first, last, ok := aud.db.Bounds()
	if !ok {
		return fmt.Errorf("store under %s is empty", dir)
	}
	fmt.Fprintf(w, "warm start: replaying %d persisted samples from %s (%.1f MiB on disk)\n",
		aud.db.Len(), dir, float64(aud.db.Stats().DiskBytes)/(1<<20))
	fmt.Fprintf(w, "window: %s .. %s\n\n", first.Format("2006-01-02 15:04"), last.Format("2006-01-02 15:04"))

	// The merged scan behind the auditor decodes shards in parallel and
	// returns decode failures instead of panicking, which suits a replay
	// over disk-loaded segments.
	_, warnings, coldWindows, err := aud.runOnce()
	if err != nil {
		return fmt.Errorf("scan: %w", err)
	}
	fmt.Fprintf(w, "threshold alarms over the stored window: %d\n", warnings)
	if coldWindows > 0 {
		fmt.Fprintf(w, "(%d downsampled windows skipped by the threshold check; aggregates below still cover them)\n", coldWindows)
	}
	fmt.Fprint(w, "(NN early warnings need a live run: the model trains on simulated incidents)\n\n")
	return summarize(w, aud.db, scan, first, last.Add(time.Nanosecond))
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
