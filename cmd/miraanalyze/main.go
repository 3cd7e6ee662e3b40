// Command miraanalyze regenerates every figure of the paper from a
// simulated six-year run and prints the same rows/series the paper reports.
//
// Usage:
//
//	miraanalyze [-seed N] [-step 15m] [-figure all|pue|1..15]
//	            [-from out.csv] [-data dir] [-remote http://host:8080]
//	            [-retention 0] [-scan-workers N]
//	            [-halls 1] [-racks 48] [-hall 0]
//	            [-campaign http://host:9090]
//	            [-report report.json] [-log-format text|json]
//
// A full run at -step 15m takes under a minute; -step 300s matches the
// coolant monitor's native cadence and takes a few minutes. -data reopens
// a telemetry store persisted by mirasim (or a previous cold start) and
// regenerates the offline figures without re-running the simulation; if
// the directory holds no segments yet, the simulation runs once and its
// telemetry is persisted there for the next invocation. -retention folds
// records older than the hot window into 1-hour downsampled windows on
// disk; the Fig. 7/9 pushdown figures keep aggregating across both tiers
// exactly, while the replay figures (3/8) cover the hot window.
//
// -remote analyzes a live telemetry server (miramon -serve) instead of a
// local store: the same figures run through the wire-level envdb client,
// with Fig. 7/9 aggregation pushed down to the server — the output is
// bit-identical to analyzing the server's store in-process.
//
// -campaign prints a scenario sweep's comparison table from a miradispatch
// dispatcher: one row per completed job with reliability (CM failures,
// killed jobs) and efficiency (cooling energy, PUE, coolant spread)
// outcomes, plus deltas against the first completed job as baseline.
//
// For a multi-hall fleet store or CSV, -halls/-racks size the -data open
// and the -from import, and -hall picks the machine hall the figures
// describe (the figures are per-machine views, so a fleet is analyzed one
// hall at a time). The hall filter is applied identically on the local
// and remote paths, so `-hall 1 -remote ...` still diffs clean against
// the server-side store.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mira"
	"mira/internal/analysis"
	"mira/internal/campaign"
	"mira/internal/cli"
	"mira/internal/envdb"
	"mira/internal/obs"
	"mira/internal/ras"
	"mira/internal/report"
	"mira/internal/sim"
	"mira/internal/telemetrynet"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("miraanalyze", stderr).WithReport()
	var (
		seed        = c.Flags.Int64("seed", 42, "simulation seed")
		step        = c.Flags.Duration("step", 15*time.Minute, "simulation tick")
		figure      = c.Flags.String("figure", "all", "which figure to print (1..15, pue, or all)")
		fromCSV     = c.Flags.String("from", "", "analyze an exported telemetry CSV instead of simulating (figures 3/7/8/9 only)")
		dataDir     = c.Flags.String("data", "", "analyze a persisted telemetry store (figures 3/7/8/9; cold start simulates once and persists)")
		remote      = c.Flags.String("remote", "", "analyze a live telemetry server (miramon -serve) at this base URL (figures 3/7/8/9, e.g. http://host:8080)")
		retention   = c.Flags.Duration("retention", 0, "hot-window length for -data stores: fold older records into 1-hour downsampled windows on disk before analyzing (0 = keep everything full-rate)")
		scanWorkers = c.Flags.Int("scan-workers", 0, "decode workers for parallel store scans on the offline paths (0 = GOMAXPROCS)")
		fleetFlags  = c.Fleet("machine halls the -data store or -from CSV is sized for")
		hall        = c.Flags.Int("hall", 0, "which machine hall the offline figures describe (fleet stores are analyzed one hall at a time)")
		campaignURL = c.Flags.String("campaign", "", "print the scenario-sweep comparison table from the miradispatch dispatcher at this base URL")
	)
	return c.Run(args, func() error {
		// figures is every -figure value a run prints, in print order;
		// "all" prints each. It is checked before anything is simulated,
		// so a typo costs no six-year run.
		figures := []struct {
			name  string
			print func(io.Writer, *mira.Study)
		}{
			{"1", printFig1}, {"2", printFig2}, {"3", printFig3}, {"4", printFig4}, {"5", printFig5},
			{"6", printFig6}, {"7", printFig7}, {"8", printFig8}, {"9", printFig9}, {"10", printFig10},
			{"11", printFig11}, {"12", printFig12}, {"13", func(w io.Writer, s *mira.Study) { printFig13(w, s, *seed) }},
			{"14", printFig14}, {"15", printFig15}, {"pue", printEfficiency},
		}
		want := func(f string) bool { return *figure == "all" || *figure == f }
		known := false
		for _, f := range figures {
			known = known || want(f.name)
		}
		if !known {
			return fmt.Errorf("bad -figure %q: want 1..15, pue, or all", *figure)
		}

		if *campaignURL != "" {
			return analyzeCampaign(stdout, *campaignURL)
		}

		fleet, err := fleetFlags()
		if err != nil {
			return err
		}
		if *hall < 0 || *hall >= topology.MaxHalls {
			return fmt.Errorf("bad -hall %d: want 0..%d", *hall, topology.MaxHalls-1)
		}
		if (*dataDir != "" || *fromCSV != "") && *hall >= fleet.Halls {
			return fmt.Errorf("-hall %d outside the %d-hall fleet", *hall, fleet.Halls)
		}

		scan := analysis.CollectOptions{Workers: *scanWorkers, Hall: *hall}
		switch {
		case *remote != "":
			return analyzeRemote(stdout, *remote, scan, *figure)
		case *dataDir != "":
			return analyzeData(stdout, *dataDir, *seed, *step, *retention, fleet, scan, *figure)
		case *fromCSV != "":
			return analyzeOffline(stdout, *fromCSV, fleet, scan, *figure)
		}

		fmt.Fprintf(stdout, "running the 2014-2019 Mira digital twin (seed %d, step %v)...\n", *seed, *step)
		began := time.Now()
		study, err := mira.RunStudy(mira.StudyConfig{Seed: *seed, Step: *step})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "simulation finished in %v\n\n", time.Since(began).Round(time.Second))
		for _, f := range figures {
			if want(f.name) {
				f.print(stdout, study)
			}
		}
		return nil
	})
}

// analyzeData regenerates the coolant/ambient figures from a persisted
// telemetry store. A warm open skips the simulation entirely; a cold start
// (no segments yet) simulates once, persists, then analyzes the same
// store — so cold and warm invocations print identical figures. With
// -retention, the store is compacted on disk before analysis: the Fig. 7/9
// pushdown aggregates across raw and downsampled tiers exactly, while the
// replay figures cover the retained hot window.
func analyzeData(w io.Writer, dir string, seed int64, step, retention time.Duration, fleet topology.Fleet, scan analysis.CollectOptions, figure string) error {
	db, err := tsdb.Open(dir, tsdb.Options{Retention: retention, Fleet: fleet})
	switch {
	case err == nil:
		db.ExposeGauges(nil)
		st := db.Stats()
		fmt.Fprintf(w, "warm start: loaded %d telemetry records from %s (%.1f MiB on disk)\n",
			db.Len(), dir, float64(st.DiskBytes)/(1<<20))
	case errors.Is(err, tsdb.ErrNoData):
		fmt.Fprintf(w, "cold start: no segments under %s; simulating 2014-2019 (seed %d, step %v)...\n", dir, seed, step)
		// The cold-start simulation is the paper's single machine; a wider
		// fleet store just leaves the other halls empty until pushed to.
		db = tsdb.NewStoreWith(tsdb.Options{Fleet: fleet})
		db.ExposeGauges(nil)
		machine := topology.Fleet{Halls: 1, Racks: topology.NumRacks}
		_, err := sim.RunFleet(machine, db, func(int) (sim.Config, error) {
			return sim.Config{Seed: seed, Start: timeutil.ProductionStart, End: timeutil.ProductionEnd, Step: step}, nil
		})
		if err != nil {
			return err
		}
		if err := db.Flush(dir); err != nil {
			return err
		}
		fmt.Fprintf(w, "persisted %d telemetry records to %s (%.1f MiB on disk)\n",
			db.Len(), dir, float64(db.Stats().DiskBytes)/(1<<20))
	default:
		return err
	}
	if err := cli.Compact(w, db, dir); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return analyzeStore(w, db, scan, figure)
}

// analyzeRemote regenerates the coolant/ambient figures from a live
// telemetry server over the wire. The client satisfies the same envdb
// surfaces as a local store — merged scans stream for the replay figures,
// and the Fig. 7/9 aggregation pushdown runs server-side with results
// carried as raw float64 bits — so the figures diff clean against an
// in-process run over the same store.
func analyzeRemote(w io.Writer, url string, scan analysis.CollectOptions, figure string) error {
	client := telemetrynet.NewClient(url, telemetrynet.ClientOptions{})
	info, err := client.Info()
	if err != nil {
		return fmt.Errorf("remote %s: %w", url, err)
	}
	if !info.HasData {
		return fmt.Errorf("remote store at %s is empty; push telemetry first (mirasim -push)", url)
	}
	remoteFleet := topology.Fleet{Halls: info.Halls, Racks: info.RacksPerHall}.Norm()
	if scan.Hall >= remoteFleet.Halls {
		return fmt.Errorf("-hall %d outside the remote store's %d-hall fleet", scan.Hall, remoteFleet.Halls)
	}
	first := time.Unix(0, info.FirstUnixNano).In(time.FixedZone("store", int(info.ZoneOffsetSeconds)))
	last := time.Unix(0, info.LastUnixNano).In(first.Location())
	fmt.Fprintf(w, "remote store at %s: %d records, %s .. %s\n\n",
		url, info.Records, first.Format("2006-01-02 15:04"), last.Format("2006-01-02 15:04"))
	return analyzeStore(w, client, scan, figure)
}

// analyzeCampaign fetches a scenario sweep's completed RunResults from a
// miradispatch dispatcher and prints the comparison table: reliability and
// efficiency outcomes per job, with deltas against the sweep's first
// completed job as the baseline.
func analyzeCampaign(w io.Writer, url string) error {
	client := campaign.NewClient(url, nil)
	ctx := context.Background()
	jobs, err := client.Status(ctx)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", url, err)
	}
	results, err := client.Results(ctx)
	if err != nil {
		return fmt.Errorf("campaign %s: %w", url, err)
	}
	fmt.Fprintf(w, "campaign at %s: %d jobs, %d completed\n\n", url, len(jobs), len(results))
	fmt.Fprintln(w, campaign.FormatDiffTable(results))
	if len(results) < len(jobs) {
		fmt.Fprintf(w, "\n%d jobs not yet completed:\n", len(jobs)-len(results))
		for _, j := range jobs {
			if j.State != campaign.StateDone {
				fmt.Fprintf(w, "  job %d %s: %s\n", j.ID, j.Name, j.State)
			}
		}
	}
	return nil
}

// analyzeOffline regenerates the coolant/ambient figures from an exported
// telemetry CSV (see cmd/mirasim -telemetry), imported into a store sized
// for the fleet the CSV was written from.
func analyzeOffline(w io.Writer, path string, fleet topology.Fleet, scan analysis.CollectOptions, figure string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	db := tsdb.NewStoreWith(tsdb.Options{Fleet: fleet})
	if err := envdb.ReadCSV(f, db); err != nil {
		return err
	}
	db.SealAll()
	db.ExposeGauges(nil)
	st := db.Stats()
	fmt.Fprintf(w, "loaded %d telemetry records from %s (%.1f MiB compressed, %.2f B/sample)\n\n",
		db.Len(), path, float64(st.SealedBytes)/(1<<20), st.BytesPerSample)
	return analyzeStore(w, db, scan, figure)
}

// analyzeStore prints the offline figures (3/7/8/9) from a telemetry
// database, however it is reached (CSV import, warm segment open, a fresh
// simulation, or a remote server through the telemetrynet client). The
// replay streams the database's merged scan through the collector per the
// scan options (worker count and hall); when only Figs. 7/9 are requested and the
// database can push down, per-rack means come straight from compressed
// columns via aggregation pushdown and the replay is skipped entirely.
func analyzeStore(w io.Writer, db envdb.DB, scan analysis.CollectOptions, figure string) error {
	want := func(f string) bool { return figure == "all" || figure == f }
	if !want("3") && !want("7") && !want("8") && !want("9") {
		fmt.Fprintf(w, "figure %s needs utilization or incident data; offline stores carry figures 3, 7, 8, and 9\n", figure)
		return nil
	}

	// One root span covers the whole figure run, so an analysis against a
	// remote server shows up at /debug/traces (both ends) as a single trace:
	// analyze.run → replay/pushdown → client RPC spans → server handler →
	// tsdb scan/aggregate. The client's Ctx-aware scan and aggregate
	// surfaces carry the trace in X-Mira-Trace.
	ctx, span := obs.Span(context.Background(), "analyze.run")
	defer span.End()
	span.SetAttr("figure", figure)

	if scan.Hall != 0 {
		fmt.Fprintf(w, "analyzing machine hall %d\n\n", scan.Hall)
	}

	if agg, ok := db.(envdb.Aggregator); ok && !want("3") && !want("8") {
		// Pushdown fast path: Figs. 7 and 9 need only per-rack means, which
		// come exactly (integer-domain sums) from compressed columns of both
		// the raw and downsampled tiers.
		if want("7") {
			fig7, err := analysis.Fig7CoolantPushdownHall(ctx, agg, scan.Hall)
			if err != nil {
				return err
			}
			printOfflineFig7(w, fig7)
		}
		if want("9") {
			fig9, err := analysis.Fig9AmbientPushdownHall(ctx, agg, scan.Hall)
			if err != nil {
				return err
			}
			printOfflineFig9(w, fig9)
		}
		return nil
	}

	c := analysis.CollectFromStoreCtx(ctx, db, scan)

	if want("3") {
		fig3 := c.Fig3CoolantTimeline()
		fig7 := c.Fig7RackCoolant()
		header(w, "Fig. 3 — Coolant timeline (offline)")
		// Downsampled exports thin each tick's rack coverage, so reconstruct
		// the plant flow from the per-rack means instead of per-tick sums.
		var plantFlow float64
		for _, f := range fig7.FlowGPM {
			plantFlow += f
		}
		fmt.Fprintf(w, "plant flow: %.0f GPM mean; inlet σ %.2f F, outlet σ %.2f F\n",
			plantFlow, fig3.InletStd, fig3.OutletStd)
		fmt.Fprintln(w)
	}
	if want("7") {
		printOfflineFig7(w, c.Fig7RackCoolant())
	}
	if want("8") {
		fig8 := c.Fig8AmbientTimeline()
		header(w, "Fig. 8 — Ambient timeline (offline)")
		fmt.Fprintf(w, "temperature σ %.2f F; humidity σ %.2f RH\n", fig8.TempStd, fig8.HumStd)
		fmt.Fprintln(w)
	}
	if want("9") {
		printOfflineFig9(w, c.Fig9RackAmbient())
	}
	return nil
}

// printOfflineFig7 and printOfflineFig9 are shared by the replay and
// pushdown paths, so `-figure 7` output diffs clean against the full run.
func printOfflineFig7(w io.Writer, fig7 analysis.RackCoolant) {
	header(w, "Fig. 7 — Rack coolant (offline)")
	fmt.Fprintf(w, "spreads: flow %.1f%%, inlet %.1f%%, outlet %.1f%%\n",
		fig7.FlowSpreadPct, fig7.InletSpreadPct, fig7.OutletSpreadPct)
	fmt.Fprint(w, report.RackHeatmap(fig7.FlowGPM))
	fmt.Fprintln(w)
}

func printOfflineFig9(w io.Writer, fig9 analysis.RackAmbient) {
	header(w, "Fig. 9 — Rack ambient (offline)")
	fmt.Fprintf(w, "spreads: temperature %.1f%%, humidity %.1f%%; most humid rack %v\n",
		fig9.TempSpreadPct, fig9.HumSpreadPct, fig9.MaxHumidityRack)
	fmt.Fprint(w, report.RackHeatmap(fig9.HumidityRH))
}

func printEfficiency(w io.Writer, s *mira.Study) {
	eff := s.EfficiencyStudy(2015)
	header(w, "Efficiency measures — PUE and economizer savings (reference year 2015)")
	fmt.Fprintln(w, "month  PUE")
	for i, m := range eff.Month {
		fmt.Fprintf(w, "%5d  %.3f %s\n", m, eff.PUE[i], report.Bar((eff.PUE[i]-1)/0.5, 24))
	}
	fmt.Fprintf(w, "mean PUE %.3f; winter %.3f vs summer %.3f (free cooling)\n",
		eff.MeanPUE, eff.WinterPUE, eff.SummerPUE)
	fmt.Fprintf(w, "annual cooling energy: %.2f GWh; economizer savings: %.2f GWh [paper: ~2.17 GWh/season potential]\n",
		eff.CoolingEnergyKWh/1e6, eff.EconomizerSavingsKWh/1e6)
	fmt.Fprintln(w)
}

func printFig1(w io.Writer, _ *mira.Study) {
	header(w, "Fig. 1 — Mira's liquid-cooling design (as modeled)")
	fmt.Fprint(w, `
  Chilled Water Plant (CWP)                 TCS machine room
  ┌──────────────────────────┐              ┌─────────────────────────────┐
  │ 2 × 1,500-ton chillers   │  external    │ 48 BG/Q racks (3 rows × 16) │
  │ + waterside economizer   │===loop======>│  ┌─ internal loop per rack  │
  │   (free cooling Dec–Mar) │  ~64°F supply│  │   HX under the floor     │
  │                          │<=============│  └─> outlet ~79°F           │
  └──────────────────────────┘  1250→1300   │ coolant monitor per rack:   │
        Theta joins the loop      GPM       │  temp/humidity/flow/in/out/ │
        July 2016 ──────────────────────────│  power @ 300 s, alarms      │
                                            └─────────────────────────────┘
`)
	fmt.Fprintln(w)
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func printFig2(w io.Writer, s *mira.Study) {
	fig := s.Fig2YearlyTrend()
	header(w, "Fig. 2 — Yearly power and utilization trends")
	fmt.Fprintf(w, "power fit:       %.3f MW (2014) -> %.3f MW (2019)  [paper: ~2.5 -> ~2.9]\n", fig.PowerStartMW, fig.PowerEndMW)
	fmt.Fprintf(w, "utilization fit: %.1f%% (2014) -> %.1f%% (2019)      [paper: ~80%% -> ~93%%]\n", fig.UtilStartPct, fig.UtilEndPct)
	fmt.Fprintf(w, "monthly series (%d months):\n", len(fig.YearMonth))
	for i, ym := range fig.YearMonth {
		if ym%100 == 1 { // print January of each year
			fmt.Fprintf(w, "  %d-01: power=%.3f MW  utilization=%.1f%%\n", ym/100, fig.PowerMW[i], fig.Utilization[i])
		}
	}
	fmt.Fprintf(w, "power       2014 %s 2019\n", report.Sparkline(fig.PowerMW))
	fmt.Fprintf(w, "utilization 2014 %s 2019\n", report.Sparkline(fig.Utilization))
	fmt.Fprintln(w)
}

func printFig3(w io.Writer, s *mira.Study) {
	fig := s.Fig3CoolantTimeline()
	header(w, "Fig. 3 — Coolant flow / inlet / outlet timeline")
	fmt.Fprintf(w, "plant flow: %.0f GPM before Theta -> %.0f GPM after July 2016 [paper: 1250 -> 1300]\n",
		fig.FlowBeforeTheta, fig.FlowAfterTheta)
	fmt.Fprintf(w, "overall std dev: flow %.1f GPM, inlet %.2f F, outlet %.2f F [paper: 41, 0.61, 0.71]\n",
		fig.FlowStd, fig.InletStd, fig.OutletStd)
	fmt.Fprintf(w, "flow   2014 %s 2019 (note the July 2016 step)\n", report.Sparkline(fig.FlowGPM))
	fmt.Fprintf(w, "inlet  2014 %s 2019 (note the Theta bump)\n", report.Sparkline(fig.InletF))
	fmt.Fprintf(w, "outlet 2014 %s 2019\n", report.Sparkline(fig.OutletF))
	fmt.Fprintln(w)
}

func printFig4(w io.Writer, s *mira.Study) {
	fig := s.Fig4MonthlyProfile()
	header(w, "Fig. 4 — Monthly profiles (medians)")
	fmt.Fprintln(w, "month  power(MW)  util(%)  flow(GPM)  inlet(F)  outlet(F)")
	for i, m := range fig.Month {
		fmt.Fprintf(w, "%5d  %9.3f  %7.1f  %9.1f  %8.2f  %9.2f\n",
			m, fig.PowerMW[i], fig.Utilization[i], fig.FlowGPM[i], fig.InletF[i], fig.OutletF[i])
	}
	fmt.Fprintf(w, "H2 vs H1: power +%.1f%%, utilization +%.1f%% [paper: higher H2 due to allocation years]\n",
		fig.SecondHalfPowerGain*100, fig.SecondHalfUtilGain*100)
	fmt.Fprintf(w, "winter inlet excess: +%.2f F (economizer) | max coolant monthly change: %.2f%% [paper: <1.5%%]\n",
		fig.WinterInletExcess, fig.MaxCoolantChangePct)
	fmt.Fprintln(w)
}

func printFig5(w io.Writer, s *mira.Study) {
	fig := s.Fig5WeekdayProfile()
	header(w, "Fig. 5 — Day-of-week profiles")
	days := []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}
	fmt.Fprintln(w, "day  power(MW)  util(%)  outlet(F)")
	for i, d := range fig.Weekday {
		fmt.Fprintf(w, "%s  %9.3f  %7.1f  %9.2f\n", days[d], fig.PowerMW[i], fig.Utilization[i], fig.OutletF[i])
	}
	fmt.Fprintf(w, "non-Monday gains: power +%.1f%% [paper ~6%%], utilization +%.1f%% [paper ~1.5%%], outlet +%.1f%% [paper ~2%%]\n",
		fig.NonMondayPowerGainPct, fig.NonMondayUtilGainPct, fig.NonMondayOutletGainPct)
	fmt.Fprintf(w, "flow %.2f%% and inlet %.2f%% [paper: no difference]\n", fig.NonMondayFlowGainPct, fig.NonMondayInletGainPct)
	fmt.Fprintln(w)
}

func printFig6(w io.Writer, s *mira.Study) {
	fig := s.Fig6RackPowerUtil()
	header(w, "Fig. 6 — Rack-level power and utilization")
	fmt.Fprintf(w, "power spread: %.1f%% [paper: up to 15%%], utilization spread: %.1f%%\n", fig.PowerSpreadPct, fig.UtilSpreadPct)
	fmt.Fprintf(w, "highest power: rack %v [paper: (0,D)]; highest utilization: rack %v [paper: (0,A)]\n",
		fig.MaxPowerRack, fig.MaxUtilRack)
	fmt.Fprintf(w, "row means: power %.1f / %.1f / %.1f kW; utilization %.1f / %.1f / %.1f %% [paper: row 0 leads]\n",
		fig.RowPowerKW[0], fig.RowPowerKW[1], fig.RowPowerKW[2],
		fig.RowUtilPct[0], fig.RowUtilPct[1], fig.RowUtilPct[2])
	fmt.Fprintf(w, "power-utilization correlation: %.2f [paper: 0.45]\n", fig.Correlation)
	fmt.Fprintln(w, "rack power heatmap:")
	fmt.Fprint(w, report.RackHeatmap(fig.PowerKW))
	fmt.Fprintln(w, "rack utilization heatmap:")
	fmt.Fprint(w, report.RackHeatmap(fig.UtilPct))
	fmt.Fprintln(w)
}

func printFig7(w io.Writer, s *mira.Study) {
	fig := s.Fig7RackCoolant()
	header(w, "Fig. 7 — Rack-level coolant metrics")
	fmt.Fprintf(w, "spreads: flow %.1f%% [paper: 11%%], inlet %.1f%% [paper: ~1%%], outlet %.1f%% [paper: ~3%%]\n",
		fig.FlowSpreadPct, fig.InletSpreadPct, fig.OutletSpreadPct)
	fmt.Fprintln(w, "rack coolant-flow heatmap (under-floor blockages):")
	fmt.Fprint(w, report.RackHeatmap(fig.FlowGPM))
	fmt.Fprintln(w)
}

func printFig8(w io.Writer, s *mira.Study) {
	fig := s.Fig8AmbientTimeline()
	header(w, "Fig. 8 — DC ambient temperature and humidity timeline")
	fmt.Fprintf(w, "temperature: monthly means %.1f..%.1f F, std %.2f [paper: 76-90 F, std 2.48]\n",
		fig.TempMin, fig.TempMax, fig.TempStd)
	fmt.Fprintf(w, "humidity: monthly means %.1f..%.1f RH, std %.2f [paper: 28-37 RH, std 3.66]\n",
		fig.HumMin, fig.HumMax, fig.HumStd)
	fmt.Fprintf(w, "summer humidity excess: +%.1f RH [paper: humid summers]\n", fig.SummerHumidityExcess)
	fmt.Fprintf(w, "temperature 2014 %s 2019\n", report.Sparkline(fig.TempF))
	fmt.Fprintf(w, "humidity    2014 %s 2019 (seasonal)\n", report.Sparkline(fig.HumidityRH))
	fmt.Fprintln(w)
}

func printFig9(w io.Writer, s *mira.Study) {
	fig := s.Fig9RackAmbient()
	header(w, "Fig. 9 — Rack-level ambient conditions")
	fmt.Fprintf(w, "spreads: temperature %.1f%% [paper: up to 11%%], humidity %.1f%% [paper: up to 36%%]\n",
		fig.TempSpreadPct, fig.HumSpreadPct)
	fmt.Fprintf(w, "most humid rack: %v [paper: the (1,8) hotspot]\n", fig.MaxHumidityRack)
	fmt.Fprintf(w, "row ends: +%.2f F warmer, %.2f RH drier than inner racks\n",
		fig.RowEndTempExcess, fig.RowEndHumidityDeficit)
	fmt.Fprintln(w, "rack humidity heatmap (note the (1,8) hotspot, dry row ends):")
	fmt.Fprint(w, report.RackHeatmap(fig.HumidityRH))
	fmt.Fprintln(w)
}

func printFig10(w io.Writer, s *mira.Study) {
	fig := s.Fig10CMFPerYear()
	header(w, "Fig. 10 — Coolant monitor failures per year")
	for i, y := range fig.Years {
		fmt.Fprintf(w, "  %d: %d\n", y, fig.Counts[i])
	}
	fmt.Fprintf(w, "total: %d [paper: 361]; 2016 share: %.0f%% [paper: ~40%%]; longest quiet gap: %.0f days [paper: >2 years]\n",
		fig.Total, fig.Share2016*100, fig.QuietGapDays)
	fmt.Fprintln(w)
}

func printFig11(w io.Writer, s *mira.Study) {
	fig := s.Fig11CMFPerRack()
	header(w, "Fig. 11 — Coolant monitor failures per rack")
	for row := 0; row < topology.Rows; row++ {
		fmt.Fprintf(w, "  row %d:", row)
		for col := 0; col < topology.ColsPerRow; col++ {
			fmt.Fprintf(w, " %2d", fig.Counts[topology.RackID{Row: row, Col: col}.Index()])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "max: %d at %v [paper: 14 at (1,8)]; min: %d at %v [paper: 5 at (2,7)]\n",
		fig.MaxCount, fig.MaxRack, fig.MinCount, fig.MinRack)
	fmt.Fprintf(w, "correlations: utilization %.2f [paper: -0.21], outlet %.2f [paper: -0.06], humidity %.2f [paper: 0.06]\n",
		fig.CorrUtilization, fig.CorrOutletTemp, fig.CorrHumidity)
	fmt.Fprintln(w)
}

func printFig12(w io.Writer, s *mira.Study) {
	fig := s.Fig12LeadUp()
	header(w, "Fig. 12 — Telemetry lead-up to a CMF")
	fmt.Fprintf(w, "windows analyzed: %d\n", fig.Windows)
	fmt.Fprintf(w, "inlet: max dip %.1f%% [paper: -7%%], final spike %+.1f%% [paper: +8%%]\n",
		fig.InletMaxDipPct, fig.InletFinalPct)
	fmt.Fprintf(w, "outlet: max dip %.1f%% [paper: -5%%]\n", fig.OutletMaxDipPct)
	fmt.Fprintf(w, "flow: stable until %.1f h out, final change %.1f%% [paper: stable until ~30 min]\n",
		fig.FlowStableUntilH, fig.FlowFinalPct)
	if len(fig.LeadHours) > 0 {
		fmt.Fprintf(w, "inlet%%  -%gh %s now\n", fig.LeadHours[0], report.Sparkline(fig.InletPct))
		fmt.Fprintf(w, "flow%%   -%gh %s now\n", fig.LeadHours[0], report.Sparkline(fig.FlowPct))
	}
	fmt.Fprintln(w)
}

func printFig13(w io.Writer, s *mira.Study, seed int64) {
	header(w, "Fig. 13 — CMF predictor performance vs lead time")
	points, err := s.Fig13Predictor(mira.PredictorConfig{Seed: seed})
	if err != nil {
		fmt.Fprintf(w, "predictor unavailable: %v\n\n", err)
		return
	}
	fmt.Fprintln(w, "lead    accuracy  precision  recall   F1      FPR")
	for _, pt := range points {
		c := pt.Confusion
		fmt.Fprintf(w, "%-6s  %8.3f  %9.3f  %6.3f  %6.3f  %5.3f\n",
			pt.Lead, c.Accuracy(), c.Precision(), c.Recall(), c.F1(), c.FalsePositiveRate())
	}
	fmt.Fprintln(w, "[paper: ~87% accuracy at 6h rising to ~97% at 30 min; FPR 6% -> 1.2%]")
	fmt.Fprintln(w)
}

func printFig14(w io.Writer, s *mira.Study) {
	fig := s.Fig14PostCMF()
	header(w, "Fig. 14 — Failures after a CMF")
	fmt.Fprintln(w, "window(h)  rate(/h)")
	for i, h := range fig.WindowHours {
		fmt.Fprintf(w, "%9.0f  %8.3f\n", h, fig.RatePerHour[i])
	}
	fmt.Fprintf(w, "rate(6h)/rate(3h) = %.2f [paper: <0.75]; rate(48h)/rate(3h) = %.2f [paper: ~0.10]\n",
		fig.Rate6vs3, fig.Rate48vs3)
	fmt.Fprintln(w, "post-CMF failure types:")
	for _, tp := range []ras.EventType{ras.ACToDCPower, ras.BQL, ras.BQC, ras.Card, ras.Software, ras.Ethernet, ras.Process} {
		fmt.Fprintf(w, "  %-15s %5.1f%%\n", tp, fig.TypeFraction[tp]*100)
	}
	fmt.Fprintln(w, "[paper: AC-to-DC ~50%, process <2%]")
	fmt.Fprintln(w)
}

func printFig15(w io.Writer, s *mira.Study) {
	fig := s.Fig15PostCMFSpatial()
	header(w, "Fig. 15 — Where post-CMF failures land")
	fmt.Fprintf(w, "mean rack-grid distance from epicenter: %.2f (uniform-random expectation: %.2f)\n",
		fig.MeanDistance, fig.RandomExpectedDistance)
	fmt.Fprintf(w, "same-rack fraction: %.1f%% — follow-ons land anywhere [paper: no spatial affinity]\n",
		fig.SameRackFraction*100)
	for _, ex := range fig.Examples {
		follows := make([]string, 0, len(ex.FollowOns))
		for _, r := range ex.FollowOns {
			follows = append(follows, r.String())
		}
		fmt.Fprintf(w, "  example: CMF at %v -> follow-ons at %s\n", ex.Epicenter, strings.Join(follows, " "))
	}
	fmt.Fprintln(w)
}
