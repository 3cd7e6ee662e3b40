// Command mirasim runs the Mira digital twin over a chosen window and
// exports the coolant-monitor telemetry and RAS failure log.
//
// Usage:
//
//	mirasim [-seed N] [-start 2014-01-01] [-end 2020-01-01] [-step 300s]
//	        [-downsample N] [-partition 720h] [-retention 0] [-data dir]
//	        [-telemetry out.csv] [-ras out.log] [-push http://host:8080]
//	        [-halls 1] [-racks 48] [-listen :8080] [-worker http://host:9090]
//	        [-report report.json] [-log-format text|json]
//
// With no output flags, a run summary is printed to stdout. -data persists
// the compressed telemetry store to per-shard segment files, which
// miraanalyze and miramon reopen with their own -data flag instead of
// re-running the simulation. -retention bounds the full-rate hot window:
// after the run, older records are folded on disk into 1-hour downsampled
// windows (count/sum/min/max per channel) that the query surface still
// answers from. -halls/-racks simulate a multi-hall fleet, one simulation
// per hall seeded seed+hall; the summaries cover hall 0. -listen serves
// /metrics, /healthz, and pprof live while the simulation runs; -report
// snapshots every metric to a JSON RunReport at exit.
//
// -push streams the telemetry over the wire to a remote miramon -serve
// instead of a local store: ticks batch into idempotent CRC-checked ingest
// frames as the simulation runs, so the remote store is live (queryable by
// miraanalyze -remote) while the run is still in flight; the local-store
// flags (-data, -telemetry, -retention, -downsample, -partition) are rejected.
//
// -worker turns mirasim into a campaign worker: it claims job specs from a
// miradispatch dispatcher at the given base URL, runs each with the real
// simulator under a heartbeated lease, reports the distilled RunResult
// back, and exits once the sweep drains.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mira/internal/campaign"
	"mira/internal/cli"
	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/sim"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/tsdb"
	"mira/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("mirasim", stderr).WithReport()
	var (
		seed       = c.Flags.Int64("seed", 42, "simulation seed")
		startStr   = c.Flags.String("start", "2014-01-01", "window start (YYYY-MM-DD)")
		endStr     = c.Flags.String("end", "2020-01-01", "window end, exclusive (YYYY-MM-DD)")
		step       = c.Flags.Duration("step", timeutil.SampleInterval, "tick length")
		downsample = c.Flags.Int("downsample", 1, "keep 1 of every N telemetry samples (1 = full rate; the compressed tsdb engine holds full six-year runs in memory)")
		partition  = c.Flags.Duration("partition", tsdb.DefaultPartition, "sealed-block partition length of the telemetry store")
		retention  = c.Flags.Duration("retention", 0, "hot-window length: after the run, records older than this (measured from the newest record) are folded into 1-hour downsampled windows (0 = keep everything full-rate)")
		dataDir    = c.Flags.String("data", "", "persist the telemetry store to segment files under this directory")
		telemetry  = c.Flags.String("telemetry", "", "write telemetry CSV to this file")
		rasOut     = c.Flags.String("ras", "", "write the deduplicated failure log to this file")
		push       = c.Flags.String("push", "", "stream telemetry to a remote miramon -serve at this base URL (e.g. http://host:8080) instead of a local store")
		fleetFlags = c.Fleet("machine halls in the simulated fleet; each hall runs its own simulation seeded seed+hall, recorded under that hall's racks")
		listen     = c.Flags.String("listen", "", "serve /metrics, /healthz, and pprof on this address while the run is live (e.g. :8080)")
		worker     = c.Flags.String("worker", "", "run as a campaign worker: claim job specs from the miradispatch dispatcher at this base URL and run them until the sweep drains")
	)
	return c.Run(args, func() error {
		if *worker != "" {
			// Worker mode runs whatever specs the dispatcher hands out; the
			// local run-shaping flags would be silently ignored, so reject
			// them loudly.
			if *push != "" || *dataDir != "" || *telemetry != "" || *rasOut != "" {
				return errors.New("-worker runs dispatcher-provided job specs; it cannot be combined with -push, -data, -telemetry, or -ras")
			}
			if _, err := c.Serve(*listen, nil); err != nil {
				return err
			}
			// Claim and run jobs until the sweep drains or a signal
			// cancels the loop; each job's telemetry goes to a
			// worker-local store, or the shared remote store when the
			// spec sets push.
			ctx, stop := cli.Signalled()
			defer stop()
			w := campaign.NewWorker(*worker, campaign.WorkerOptions{Context: ctx, Logger: c.Log})
			c.Log.Infof("campaign worker %d polling %s", w.ID(), *worker)
			if err := w.RunLoop(); err != nil {
				return fmt.Errorf("worker %d: %w", w.ID(), err)
			}
			c.Log.Infof("campaign worker %d done: %d completed, %d duplicate", w.ID(), w.Completed, w.Duplicates)
			return nil
		}

		start, end, err := cli.Window(*startStr, *endStr)
		if err != nil {
			return err
		}
		if *push != "" && (*dataDir != "" || *telemetry != "" || *retention > 0 || *downsample > 1 || *partition != tsdb.DefaultPartition) {
			return errors.New("-push streams to a remote store; it cannot be combined with -data, -telemetry, -retention, -downsample, or -partition")
		}
		fleet, err := fleetFlags()
		if err != nil {
			return err
		}

		db := tsdb.NewStoreWith(tsdb.Options{Downsample: *downsample, Partition: *partition, Retention: *retention, Fleet: fleet})
		db.ExposeGauges(nil)
		if _, err := c.Serve(*listen, nil); err != nil {
			return err
		}

		var sink envdb.DB = db
		var pushClient *telemetrynet.Client
		var pushSpan *obs.ActiveSpan
		if *push != "" {
			// One root span covers the whole push: every ingest batch
			// becomes a net.client.ingest child carried to the server in
			// X-Mira-Trace, so the full stream reads as a single trace at
			// /debug/traces.
			var pushCtx context.Context
			pushCtx, pushSpan = obs.Span(context.Background(), "sim.push")
			pushClient = telemetrynet.NewClient(*push, telemetrynet.ClientOptions{Context: pushCtx})
			sink = pushClient
			c.Log.Infof("pushing telemetry to %s", *push)
		}
		began := time.Now()
		s, err := sim.RunFleet(fleet, sink, func(h int) (sim.Config, error) {
			return sim.Config{Seed: *seed + int64(h), Start: start, End: end, Step: *step}, nil
		})
		if err != nil {
			return err
		}
		elapsed := time.Since(began)

		cmfs := s.Log().DedupCMF()
		nonCMF := s.Log().DedupNonCMF()
		if fleet.Halls > 1 {
			fmt.Fprintf(stdout, "simulated %d-hall fleet (%d racks), %s .. %s at step %v in %v\n",
				fleet.Halls, fleet.NumRacks(), start.Format("2006-01-02"), end.Format("2006-01-02"), *step, elapsed.Round(time.Millisecond))
			fmt.Fprintf(stdout, "RAS and job summaries below cover hall 0\n")
		} else {
			fmt.Fprintf(stdout, "simulated %s .. %s at step %v in %v\n", start.Format("2006-01-02"), end.Format("2006-01-02"), *step, elapsed.Round(time.Millisecond))
		}
		if pushClient != nil {
			// The recorder latched per-batch errors above; the tail batch
			// still needs a final flush before the push counters are
			// complete.
			if err := pushClient.Flush(); err != nil {
				return fmt.Errorf("push: %w", err)
			}
			pushSpan.End()
			ps := pushClient.Stats()
			remote, err := pushClient.Info()
			if err != nil {
				return fmt.Errorf("remote info: %w", err)
			}
			fmt.Fprintf(stdout, "telemetry pushed: %d records in %d batches (%d retries, %d deduplicated); remote store holds %d records\n",
				ps.PushedRecords, ps.PushedBatches, ps.Retries, ps.DuplicateBatches, remote.Records)
		} else {
			db.SealAll()
			st := db.Stats()
			fmt.Fprintf(stdout, "telemetry samples stored: %d (1 of every %d) in %.1f MiB compressed (%.2f B/record, %.2f B/sample)\n",
				db.Len(), *downsample, float64(st.SealedBytes+st.HeadBytes)/(1<<20), st.BytesPerRecord, st.BytesPerSample)
		}
		fmt.Fprintf(stdout, "RAS events logged: %d raw\n", s.Log().Len())
		fmt.Fprintf(stdout, "coolant monitor failures (deduplicated): %d across %d incidents\n", len(cmfs), len(s.Incidents()))
		fmt.Fprintf(stdout, "non-CMF fatal failures (deduplicated): %d\n", len(nonCMF))
		jobs := s.Scheduler().Stats()
		fmt.Fprintf(stdout, "jobs: started=%d completed=%d killed=%d rejected=%d\n", jobs.Started, jobs.Completed, jobs.Killed, jobs.Rejected)
		for _, q := range []workload.Queue{workload.ProdShort, workload.ProdLong, workload.ProdCapability} {
			qs := s.Scheduler().QueueStatsFor(q)
			fmt.Fprintf(stdout, "  %-15s started=%6d  mean wait=%5.1fh  mean walltime=%5.1fh\n",
				q, qs.Started, qs.MeanWaitHours(), qs.MeanRunHours())
		}

		if *dataDir != "" {
			if err := db.Flush(*dataDir); err != nil {
				return err
			}
			if err := cli.Compact(stdout, db, *dataDir); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "telemetry persisted to %s (%.1f MiB on disk)\n",
				*dataDir, float64(db.Stats().DiskBytes)/(1<<20))
		}
		if *telemetry != "" {
			f, err := os.Create(*telemetry)
			if err != nil {
				return err
			}
			err = envdb.WriteCSV(context.Background(), f, db)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "telemetry written to %s\n", *telemetry)
		}
		if *rasOut != "" {
			// WriteFile reports a failed write (a full disk) and close.
			var log strings.Builder
			for _, e := range append(cmfs, nonCMF...) {
				fmt.Fprintln(&log, e)
			}
			if err := os.WriteFile(*rasOut, []byte(log.String()), 0o666); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "failure log written to %s\n", *rasOut)
		}
		return nil
	})
}
