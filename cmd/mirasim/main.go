// Command mirasim runs the Mira digital twin over a chosen window and
// exports the coolant-monitor telemetry and RAS failure log.
//
// Usage:
//
//	mirasim [-seed N] [-start 2014-01-01] [-end 2020-01-01] [-step 300s]
//	        [-downsample N] [-partition 720h] [-retention 0] [-data dir]
//	        [-telemetry out.csv] [-ras out.log] [-push http://host:8080]
//
// With no output flags, a run summary is printed to stdout. -data persists
// the compressed telemetry store to per-shard segment files, which
// miraanalyze and miramon reopen with their own -data flag instead of
// re-running the simulation. -retention bounds the full-rate hot window:
// after the run, older records are folded on disk into 1-hour downsampled
// windows (count/sum/min/max per channel) that the query surface still
// answers from. -listen serves /metrics, /healthz, and pprof
// live while the simulation runs; -report snapshots every metric to a JSON
// RunReport at exit.
//
// -push streams the telemetry over the wire to a remote miramon -serve
// instead of a local store: ticks batch into idempotent CRC-checked ingest
// frames as the simulation runs, so the remote store is live (queryable by
// miraanalyze -remote) while the run is still in flight. Local store
// outputs (-data, -telemetry, -retention, -downsample) do not apply.
//
// -worker turns mirasim into a campaign worker: it claims job specs from a
// miradispatch dispatcher at the given base URL, runs each with the real
// simulator under a heartbeated lease, reports the distilled RunResult
// back, and exits once the sweep drains.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mira/internal/campaign"
	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sim"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/workload"
)

func main() {
	var (
		seed       = flag.Int64("seed", 42, "simulation seed")
		startStr   = flag.String("start", "2014-01-01", "window start (YYYY-MM-DD)")
		endStr     = flag.String("end", "2020-01-01", "window end, exclusive (YYYY-MM-DD)")
		step       = flag.Duration("step", timeutil.SampleInterval, "tick length")
		downsample = flag.Int("downsample", 1, "keep 1 of every N telemetry samples (1 = full rate; the compressed tsdb engine holds full six-year runs in memory)")
		partition  = flag.Duration("partition", tsdb.DefaultPartition, "sealed-block partition length of the telemetry store")
		retention  = flag.Duration("retention", 0, "hot-window length: after the run, records older than this (measured from the newest record) are folded into 1-hour downsampled windows (0 = keep everything full-rate)")
		dataDir    = flag.String("data", "", "persist the telemetry store to segment files under this directory")
		telemetry  = flag.String("telemetry", "", "write telemetry CSV to this file")
		rasOut     = flag.String("ras", "", "write the deduplicated failure log to this file")
		push       = flag.String("push", "", "stream telemetry to a remote miramon -serve at this base URL (e.g. http://host:8080) instead of a local store")
		halls      = flag.Int("halls", 1, "machine halls in the simulated fleet; each hall runs its own simulation seeded seed+hall, recorded under that hall's racks")
		racks      = flag.Int("racks", topology.NumRacks, "racks per hall (1..48)")
		listen     = flag.String("listen", "", "serve /metrics, /healthz, and pprof on this address while the run is live (e.g. :8080)")
		reportPath = flag.String("report", "", "write a RunReport metric snapshot (JSON) to this file at exit")
		logFormat  = flag.String("log-format", "text", "diagnostic log format: text or json")
		worker     = flag.String("worker", "", "run as a campaign worker: claim job specs from the miradispatch dispatcher at this base URL and run them until the sweep drains")
	)
	flag.Parse()
	logg := obs.NewLogger(os.Stderr, *logFormat, "mirasim")

	if *worker != "" {
		// Worker mode runs whatever specs the dispatcher hands out; the local
		// run-shaping flags would be silently ignored, so reject them loudly.
		if *push != "" || *dataDir != "" || *telemetry != "" || *rasOut != "" {
			logg.Fatalf("-worker runs dispatcher-provided job specs; it cannot be combined with -push, -data, -telemetry, or -ras")
		}
		runWorker(logg, *worker, *listen, *reportPath)
		return
	}

	start, err := time.ParseInLocation("2006-01-02", *startStr, timeutil.Chicago)
	if err != nil {
		logg.Fatalf("bad -start: %v", err)
	}
	end, err := time.ParseInLocation("2006-01-02", *endStr, timeutil.Chicago)
	if err != nil {
		logg.Fatalf("bad -end: %v", err)
	}

	if *push != "" && (*dataDir != "" || *telemetry != "" || *retention > 0) {
		logg.Fatalf("-push streams to a remote store; it cannot be combined with -data, -telemetry, or -retention")
	}
	fleet, err := topology.NewFleet(*halls, *racks)
	if err != nil {
		logg.Fatalf("bad -halls/-racks: %v", err)
	}

	db := tsdb.NewStoreWith(tsdb.Options{Downsample: *downsample, Partition: *partition, Retention: *retention, Fleet: fleet})
	db.ExposeGauges(nil)
	if *listen != "" {
		addr, err := obs.Serve(*listen)
		if err != nil {
			logg.Fatalf("-listen %s: %v", *listen, err)
		}
		logg.Infof("serving /metrics, /healthz, and /debug/pprof on %s", addr)
	}

	var sink envdb.DB = db
	var pushClient *telemetrynet.Client
	var pushSpan *obs.ActiveSpan
	if *push != "" {
		// One root span covers the whole push: every ingest batch becomes a
		// net.client.ingest child carried to the server in X-Mira-Trace, so
		// the full stream reads as a single trace at /debug/traces.
		var pushCtx context.Context
		pushCtx, pushSpan = obs.Span(context.Background(), "sim.push")
		pushClient = telemetrynet.NewClient(*push, telemetrynet.ClientOptions{Context: pushCtx})
		sink = pushClient
		logg.Infof("pushing telemetry to %s", *push)
	}
	// One simulation per hall, seeded seed+hall so the halls decorrelate;
	// hall 0 keeps the exact single-machine run (same seed, same recorder
	// stream) and drives the RAS/figure outputs below.
	began := time.Now()
	var s *sim.Simulator
	for h := 0; h < fleet.Halls; h++ {
		rec := sim.NewEnvDBRecorder(sink)
		hs := sim.New(sim.Config{Seed: *seed + int64(h), Start: start, End: end, Step: *step})
		if fleet.Halls > 1 || fleet.Racks != topology.NumRacks {
			hs.AddRecorder(sim.NewHallRecorder(rec, h, fleet.Racks))
		} else {
			hs.AddRecorder(rec)
		}
		if err := hs.Run(); err != nil {
			logg.Fatalf("hall %d: %v", h, err)
		}
		if rec.Err != nil {
			logg.Fatalf("hall %d telemetry recording: %v", h, rec.Err)
		}
		if h == 0 {
			s = hs
		}
	}
	elapsed := time.Since(began)

	cmfs := s.Log().DedupCMF()
	nonCMF := s.Log().DedupNonCMF()
	if fleet.Halls > 1 {
		fmt.Printf("simulated %d-hall fleet (%d racks), %s .. %s at step %v in %v\n",
			fleet.Halls, fleet.NumRacks(), start.Format("2006-01-02"), end.Format("2006-01-02"), *step, elapsed.Round(time.Millisecond))
		fmt.Printf("RAS and job summaries below cover hall 0\n")
	} else {
		fmt.Printf("simulated %s .. %s at step %v in %v\n", start.Format("2006-01-02"), end.Format("2006-01-02"), *step, elapsed.Round(time.Millisecond))
	}
	if pushClient != nil {
		// The recorder latched per-batch errors above; the tail batch still
		// needs a final flush before the push counters are complete.
		if err := pushClient.Flush(); err != nil {
			logg.Fatalf("push: %v", err)
		}
		pushSpan.End()
		ps := pushClient.Stats()
		remote, err := pushClient.Info()
		if err != nil {
			logg.Fatalf("remote info: %v", err)
		}
		fmt.Printf("telemetry pushed: %d records in %d batches (%d retries, %d deduplicated); remote store holds %d records\n",
			ps.PushedRecords, ps.PushedBatches, ps.Retries, ps.DuplicateBatches, remote.Records)
	} else {
		db.SealAll()
		st := db.Stats()
		fmt.Printf("telemetry samples stored: %d (1 of every %d) in %.1f MiB compressed (%.2f B/record, %.2f B/sample)\n",
			db.Len(), *downsample, float64(st.SealedBytes+st.HeadBytes)/(1<<20), st.BytesPerRecord, st.BytesPerSample)
	}
	fmt.Printf("RAS events logged: %d raw\n", s.Log().Len())
	fmt.Printf("coolant monitor failures (deduplicated): %d across %d incidents\n", len(cmfs), len(s.Incidents()))
	fmt.Printf("non-CMF fatal failures (deduplicated): %d\n", len(nonCMF))
	jobs := s.Scheduler().Stats()
	fmt.Printf("jobs: started=%d completed=%d killed=%d rejected=%d\n", jobs.Started, jobs.Completed, jobs.Killed, jobs.Rejected)
	for _, q := range []workload.Queue{workload.ProdShort, workload.ProdLong, workload.ProdCapability} {
		qs := s.Scheduler().QueueStatsFor(q)
		fmt.Printf("  %-15s started=%6d  mean wait=%5.1fh  mean walltime=%5.1fh\n",
			q, qs.Started, qs.MeanWaitHours(), qs.MeanRunHours())
	}

	if *dataDir != "" {
		if err := db.Flush(*dataDir); err != nil {
			logg.Fatalf("%v", err)
		}
		if *retention > 0 {
			cs, err := db.Compact(*dataDir)
			if err != nil {
				logg.Fatalf("retention compaction: %v", err)
			}
			if cs.Windows > 0 {
				fmt.Printf("compacted %d raw records into %d downsampled windows (%.1fx on-disk reduction for the compacted range)\n",
					cs.SourceRecords, cs.Windows, cs.Reduction())
			}
		}
		fmt.Printf("telemetry persisted to %s (%.1f MiB on disk)\n",
			*dataDir, float64(db.Stats().DiskBytes)/(1<<20))
	}
	if *telemetry != "" {
		f, err := os.Create(*telemetry)
		if err != nil {
			logg.Fatalf("%v", err)
		}
		if err := db.ExportCSV(f); err != nil {
			logg.Fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			logg.Fatalf("%v", err)
		}
		fmt.Printf("telemetry written to %s\n", *telemetry)
	}
	if *rasOut != "" {
		f, err := os.Create(*rasOut)
		if err != nil {
			logg.Fatalf("%v", err)
		}
		for _, e := range append(cmfs, nonCMF...) {
			fmt.Fprintln(f, e)
		}
		if err := f.Close(); err != nil {
			logg.Fatalf("%v", err)
		}
		fmt.Printf("failure log written to %s\n", *rasOut)
	}
	if *reportPath != "" {
		if err := obs.WriteRunReport(*reportPath); err != nil {
			logg.Fatalf("-report: %v", err)
		}
		logg.Infof("run report written to %s", *reportPath)
	}
}

// runWorker claims jobs from a campaign dispatcher and runs them with the
// real simulator until the sweep drains or SIGINT/SIGTERM cancels the loop.
// Each job's telemetry goes to a worker-local store — or the shared remote
// store when the spec sets push — and the distilled RunResult is reported
// back through the idempotent complete protocol.
func runWorker(logg *obs.Logger, url, listen, reportPath string) {
	if listen != "" {
		addr, err := obs.Serve(listen)
		if err != nil {
			logg.Fatalf("-listen %s: %v", listen, err)
		}
		logg.Infof("serving /metrics, /healthz, and /debug/pprof on %s", addr)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	w := campaign.NewWorker(url, campaign.WorkerOptions{Context: ctx, Logger: logg})
	logg.Infof("campaign worker %d polling %s", w.ID(), url)
	if err := w.RunLoop(); err != nil {
		logg.Fatalf("worker %d: %v", w.ID(), err)
	}
	if reportPath != "" {
		if err := obs.WriteRunReport(reportPath); err != nil {
			logg.Fatalf("-report: %v", err)
		}
		logg.Infof("run report written to %s", reportPath)
	}
	logg.Infof("campaign worker %d done: %d completed, %d duplicate", w.ID(), w.Completed, w.Duplicates)
}
