// Command miraanalyze regenerates every figure of the paper from a
// simulated six-year run and prints the same rows/series the paper reports.
//
// Usage:
//
//	miraanalyze [-seed N] [-step 15m] [-figure all|2|3|...|15]
//	            [-from out.csv] [-data dir] [-retention 0] [-scan-workers N]
//	            [-halls 1] [-racks 48] [-hall 0]
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
// For a multi-hall fleet store, -halls/-racks size the -data open and
// -hall picks the machine hall the figures describe (the figures are
// per-machine views, so a fleet is analyzed one hall at a time). The
// hall filter is applied identically on the local and remote paths, so
// `-hall 1 -remote ...` still diffs clean against the server-side store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mira"
	"mira/internal/analysis"
	"mira/internal/campaign"
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

func main() {
	var (
		seed        = flag.Int64("seed", 42, "simulation seed")
		step        = flag.Duration("step", 15*time.Minute, "simulation tick")
		figure      = flag.String("figure", "all", "which figure to print (1..15, pue, or all)")
		fromCSV     = flag.String("from", "", "analyze an exported telemetry CSV instead of simulating (figures 3/7/8/9 only)")
		dataDir     = flag.String("data", "", "analyze a persisted telemetry store (figures 3/7/8/9; cold start simulates once and persists)")
		remote      = flag.String("remote", "", "analyze a live telemetry server (miramon -serve) at this base URL (figures 3/7/8/9, e.g. http://host:8080)")
		retention   = flag.Duration("retention", 0, "hot-window length for -data stores: fold older records into 1-hour downsampled windows on disk before analyzing (0 = keep everything full-rate)")
		reportPath  = flag.String("report", "", "write a RunReport metric snapshot (JSON) to this file at exit")
		logFormat   = flag.String("log-format", "text", "diagnostic log format: text or json")
		scanWorkers = flag.Int("scan-workers", 0, "decode workers for parallel store scans on the offline paths (0 = GOMAXPROCS)")
		halls       = flag.Int("halls", 1, "machine halls the -data store is sized for")
		racks       = flag.Int("racks", topology.NumRacks, "racks per hall (1..48)")
		hall        = flag.Int("hall", 0, "which machine hall the offline figures describe (fleet stores are analyzed one hall at a time)")
		campaignURL = flag.String("campaign", "", "print the scenario-sweep comparison table from the miradispatch dispatcher at this base URL")
	)
	flag.Parse()
	logg = obs.NewLogger(os.Stderr, *logFormat, "miraanalyze")

	if *campaignURL != "" {
		analyzeCampaign(*campaignURL)
		writeReport(*reportPath)
		return
	}

	fleet, err := topology.NewFleet(*halls, *racks)
	if err != nil {
		logg.Fatalf("bad -halls/-racks: %v", err)
	}
	if *hall < 0 || *hall >= topology.MaxHalls {
		logg.Fatalf("bad -hall %d: want 0..%d", *hall, topology.MaxHalls-1)
	}
	if *dataDir != "" && *hall >= fleet.Halls {
		logg.Fatalf("-hall %d outside the %d-hall fleet", *hall, fleet.Halls)
	}

	scan := analysis.CollectOptions{Workers: *scanWorkers, Hall: *hall}

	if *remote != "" {
		analyzeRemote(*remote, scan, *figure)
		writeReport(*reportPath)
		return
	}
	if *dataDir != "" {
		analyzeData(*dataDir, *seed, *step, *retention, fleet, scan, *figure)
		writeReport(*reportPath)
		return
	}
	if *fromCSV != "" {
		analyzeOffline(*fromCSV, scan, *figure)
		writeReport(*reportPath)
		return
	}

	fmt.Printf("running the 2014-2019 Mira digital twin (seed %d, step %v)...\n", *seed, *step)
	began := time.Now()
	study, err := mira.RunStudy(mira.StudyConfig{Seed: *seed, Step: *step})
	if err != nil {
		logg.Fatalf("%v", err)
	}
	fmt.Printf("simulation finished in %v\n\n", time.Since(began).Round(time.Second))

	want := func(f string) bool { return *figure == "all" || *figure == f }

	if want("1") {
		printFig1()
	}
	if want("2") {
		printFig2(study)
	}
	if want("3") {
		printFig3(study)
	}
	if want("4") {
		printFig4(study)
	}
	if want("5") {
		printFig5(study)
	}
	if want("6") {
		printFig6(study)
	}
	if want("7") {
		printFig7(study)
	}
	if want("8") {
		printFig8(study)
	}
	if want("9") {
		printFig9(study)
	}
	if want("10") {
		printFig10(study)
	}
	if want("11") {
		printFig11(study)
	}
	if want("12") {
		printFig12(study)
	}
	if want("13") {
		printFig13(study, *seed)
	}
	if want("14") {
		printFig14(study)
	}
	if want("15") {
		printFig15(study)
	}
	if want("pue") || *figure == "all" {
		printEfficiency(study)
	}
	writeReport(*reportPath)
}

// logg is the process-wide diagnostic logger; figure output stays on
// stdout so exported figures remain diffable across provenance paths.
var logg *obs.Logger

// writeReport snapshots every metric to a RunReport JSON file when
// -report is set.
func writeReport(path string) {
	if path == "" {
		return
	}
	if err := obs.WriteRunReport(path); err != nil {
		logg.Fatalf("-report: %v", err)
	}
	logg.Infof("run report written to %s", path)
}

func printEfficiency(s *mira.Study) {
	eff := s.EfficiencyStudy(2015)
	header("Efficiency measures — PUE and economizer savings (reference year 2015)")
	fmt.Println("month  PUE")
	for i, m := range eff.Month {
		fmt.Printf("%5d  %.3f %s\n", m, eff.PUE[i], report.Bar((eff.PUE[i]-1)/0.5, 24))
	}
	fmt.Printf("mean PUE %.3f; winter %.3f vs summer %.3f (free cooling)\n",
		eff.MeanPUE, eff.WinterPUE, eff.SummerPUE)
	fmt.Printf("annual cooling energy: %.2f GWh; economizer savings: %.2f GWh [paper: ~2.17 GWh/season potential]\n",
		eff.CoolingEnergyKWh/1e6, eff.EconomizerSavingsKWh/1e6)
	fmt.Println()
}

// analyzeData regenerates the coolant/ambient figures from a persisted
// telemetry store. A warm open skips the simulation entirely; a cold start
// (no segments yet) simulates once, persists, then analyzes the same
// store — so cold and warm invocations print identical figures. With
// -retention, the store is compacted on disk before analysis: the Fig. 7/9
// pushdown aggregates across raw and downsampled tiers exactly, while the
// replay figures cover the retained hot window.
func analyzeData(dir string, seed int64, step, retention time.Duration, fleet topology.Fleet, scan analysis.CollectOptions, figure string) {
	db, err := tsdb.Open(dir, tsdb.Options{Retention: retention, Fleet: fleet})
	switch {
	case err == nil:
		db.ExposeGauges(nil)
		st := db.Stats()
		fmt.Printf("warm start: loaded %d telemetry records from %s (%.1f MiB on disk)\n",
			db.Len(), dir, float64(st.DiskBytes)/(1<<20))
	case errors.Is(err, tsdb.ErrNoData):
		fmt.Printf("cold start: no segments under %s; simulating 2014-2019 (seed %d, step %v)...\n", dir, seed, step)
		// The cold-start simulation is the paper's single machine; a wider
		// fleet store just leaves the other halls empty until pushed to.
		db = tsdb.NewStoreWith(tsdb.Options{Fleet: fleet})
		db.ExposeGauges(nil)
		rec := sim.NewEnvDBRecorder(db)
		s := sim.New(sim.Config{Seed: seed, Start: timeutil.ProductionStart, End: timeutil.ProductionEnd, Step: step})
		s.AddRecorder(rec)
		if err := s.Run(); err != nil {
			logg.Fatalf("%v", err)
		}
		if rec.Err != nil {
			logg.Fatalf("telemetry recording: %v", rec.Err)
		}
		if err := db.Flush(dir); err != nil {
			logg.Fatalf("%v", err)
		}
		fmt.Printf("persisted %d telemetry records to %s (%.1f MiB on disk)\n",
			db.Len(), dir, float64(db.Stats().DiskBytes)/(1<<20))
	default:
		logg.Fatalf("%v", err)
	}
	if retention > 0 {
		cs, err := db.Compact(dir)
		if err != nil {
			logg.Fatalf("retention compaction: %v", err)
		}
		if cs.Windows > 0 {
			fmt.Printf("compacted %d raw records into %d downsampled windows (%.1fx on-disk reduction for the compacted range)\n",
				cs.SourceRecords, cs.Windows, cs.Reduction())
		}
	}
	fmt.Println()
	analyzeStore(db, scan, figure)
}

// analyzeRemote regenerates the coolant/ambient figures from a live
// telemetry server over the wire. The client satisfies the same envdb
// surfaces as a local store — merged scans stream for the replay figures,
// and the Fig. 7/9 aggregation pushdown runs server-side with results
// carried as raw float64 bits — so the figures diff clean against an
// in-process run over the same store.
func analyzeRemote(url string, scan analysis.CollectOptions, figure string) {
	client := telemetrynet.NewClient(url, telemetrynet.ClientOptions{})
	info, err := client.Info()
	if err != nil {
		logg.Fatalf("remote %s: %v", url, err)
	}
	if !info.HasData {
		logg.Fatalf("remote store at %s is empty; push telemetry first (mirasim -push)", url)
	}
	remoteFleet := topology.Fleet{Halls: info.Halls, Racks: info.RacksPerHall}.Norm()
	if scan.Hall >= remoteFleet.Halls {
		logg.Fatalf("-hall %d outside the remote store's %d-hall fleet", scan.Hall, remoteFleet.Halls)
	}
	first := time.Unix(0, info.FirstUnixNano).In(time.FixedZone("store", int(info.ZoneOffsetSeconds)))
	last := time.Unix(0, info.LastUnixNano).In(first.Location())
	fmt.Printf("remote store at %s: %d records, %s .. %s\n\n",
		url, info.Records, first.Format("2006-01-02 15:04"), last.Format("2006-01-02 15:04"))
	analyzeStore(client, scan, figure)
}

// analyzeCampaign fetches a scenario sweep's completed RunResults from a
// miradispatch dispatcher and prints the comparison table: reliability and
// efficiency outcomes per job, with deltas against the sweep's first
// completed job as the baseline.
func analyzeCampaign(url string) {
	client := campaign.NewClient(url, nil)
	ctx := context.Background()
	jobs, err := client.Status(ctx)
	if err != nil {
		logg.Fatalf("campaign %s: %v", url, err)
	}
	results, err := client.Results(ctx)
	if err != nil {
		logg.Fatalf("campaign %s: %v", url, err)
	}
	fmt.Printf("campaign at %s: %d jobs, %d completed\n\n", url, len(jobs), len(results))
	fmt.Println(campaign.FormatDiffTable(results))
	if len(results) < len(jobs) {
		fmt.Printf("\n%d jobs not yet completed:\n", len(jobs)-len(results))
		for _, j := range jobs {
			if j.State != campaign.StateDone {
				fmt.Printf("  job %d %s: %s\n", j.ID, j.Name, j.State)
			}
		}
	}
}

// analyzeOffline regenerates the coolant/ambient figures from an exported
// telemetry CSV (see cmd/mirasim -telemetry).
func analyzeOffline(path string, scan analysis.CollectOptions, figure string) {
	f, err := os.Open(path)
	if err != nil {
		logg.Fatalf("%v", err)
	}
	defer f.Close()
	db := tsdb.NewStore()
	if err := db.ImportCSV(f); err != nil {
		logg.Fatalf("%v", err)
	}
	db.SealAll()
	db.ExposeGauges(nil)
	st := db.Stats()
	fmt.Printf("loaded %d telemetry records from %s (%.1f MiB compressed, %.2f B/sample)\n\n",
		db.Len(), path, float64(st.SealedBytes)/(1<<20), st.BytesPerSample)
	analyzeStore(db, scan, figure)
}

// analyzeStore prints the offline figures (3/7/8/9) from a telemetry
// database, however it is reached (CSV import, warm segment open, a fresh
// simulation, or a remote server through the telemetrynet client). The
// replay streams the database's merged scan through the collector per the
// scan options (worker count and hall); when only Figs. 7/9 are requested and the
// database can push down, per-rack means come straight from compressed
// columns via aggregation pushdown and the replay is skipped entirely.
func analyzeStore(db envdb.DB, scan analysis.CollectOptions, figure string) {
	want := func(f string) bool { return figure == "all" || figure == f }
	if !want("3") && !want("7") && !want("8") && !want("9") {
		fmt.Printf("figure %s needs utilization or incident data; offline stores carry figures 3, 7, 8, and 9\n", figure)
		return
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
		fmt.Printf("analyzing machine hall %d\n\n", scan.Hall)
	}

	if agg, ok := db.(envdb.Aggregator); ok && !want("3") && !want("8") {
		// Pushdown fast path: Figs. 7 and 9 need only per-rack means, which
		// come exactly (integer-domain sums) from compressed columns of both
		// the raw and downsampled tiers.
		if want("7") {
			fig7, err := analysis.Fig7CoolantPushdownHall(ctx, agg, scan.Hall)
			if err != nil {
				logg.Fatalf("%v", err)
			}
			printOfflineFig7(fig7)
		}
		if want("9") {
			fig9, err := analysis.Fig9AmbientPushdownHall(ctx, agg, scan.Hall)
			if err != nil {
				logg.Fatalf("%v", err)
			}
			printOfflineFig9(fig9)
		}
		return
	}

	c := analysis.CollectFromStoreCtx(ctx, db, scan)

	if want("3") {
		fig3 := c.Fig3CoolantTimeline()
		fig7 := c.Fig7RackCoolant()
		header("Fig. 3 — Coolant timeline (offline)")
		// Downsampled exports thin each tick's rack coverage, so reconstruct
		// the plant flow from the per-rack means instead of per-tick sums.
		var plantFlow float64
		for _, f := range fig7.FlowGPM {
			plantFlow += f
		}
		fmt.Printf("plant flow: %.0f GPM mean; inlet σ %.2f F, outlet σ %.2f F\n",
			plantFlow, fig3.InletStd, fig3.OutletStd)
		fmt.Println()
	}
	if want("7") {
		printOfflineFig7(c.Fig7RackCoolant())
	}
	if want("8") {
		fig8 := c.Fig8AmbientTimeline()
		header("Fig. 8 — Ambient timeline (offline)")
		fmt.Printf("temperature σ %.2f F; humidity σ %.2f RH\n", fig8.TempStd, fig8.HumStd)
		fmt.Println()
	}
	if want("9") {
		printOfflineFig9(c.Fig9RackAmbient())
	}
}

// printOfflineFig7 and printOfflineFig9 are shared by the replay and
// pushdown paths, so `-figure 7` output diffs clean against the full run.
func printOfflineFig7(fig7 analysis.RackCoolant) {
	header("Fig. 7 — Rack coolant (offline)")
	fmt.Printf("spreads: flow %.1f%%, inlet %.1f%%, outlet %.1f%%\n",
		fig7.FlowSpreadPct, fig7.InletSpreadPct, fig7.OutletSpreadPct)
	fmt.Print(report.RackHeatmap(fig7.FlowGPM))
	fmt.Println()
}

func printOfflineFig9(fig9 analysis.RackAmbient) {
	header("Fig. 9 — Rack ambient (offline)")
	fmt.Printf("spreads: temperature %.1f%%, humidity %.1f%%; most humid rack %v\n",
		fig9.TempSpreadPct, fig9.HumSpreadPct, fig9.MaxHumidityRack)
	fmt.Print(report.RackHeatmap(fig9.HumidityRH))
}

func printFig1() {
	header("Fig. 1 — Mira's liquid-cooling design (as modeled)")
	fmt.Print(`
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
	fmt.Println()
}

func header(title string) {
	fmt.Printf("%s\n%s\n", title, strings.Repeat("-", len(title)))
}

func printFig2(s *mira.Study) {
	fig := s.Fig2YearlyTrend()
	header("Fig. 2 — Yearly power and utilization trends")
	fmt.Printf("power fit:       %.3f MW (2014) -> %.3f MW (2019)  [paper: ~2.5 -> ~2.9]\n", fig.PowerStartMW, fig.PowerEndMW)
	fmt.Printf("utilization fit: %.1f%% (2014) -> %.1f%% (2019)      [paper: ~80%% -> ~93%%]\n", fig.UtilStartPct, fig.UtilEndPct)
	fmt.Printf("monthly series (%d months):\n", len(fig.YearMonth))
	for i, ym := range fig.YearMonth {
		if ym%100 == 1 { // print January of each year
			fmt.Printf("  %d-01: power=%.3f MW  utilization=%.1f%%\n", ym/100, fig.PowerMW[i], fig.Utilization[i])
		}
	}
	fmt.Printf("power       2014 %s 2019\n", report.Sparkline(fig.PowerMW))
	fmt.Printf("utilization 2014 %s 2019\n", report.Sparkline(fig.Utilization))
	fmt.Println()
}

func printFig3(s *mira.Study) {
	fig := s.Fig3CoolantTimeline()
	header("Fig. 3 — Coolant flow / inlet / outlet timeline")
	fmt.Printf("plant flow: %.0f GPM before Theta -> %.0f GPM after July 2016 [paper: 1250 -> 1300]\n",
		fig.FlowBeforeTheta, fig.FlowAfterTheta)
	fmt.Printf("overall std dev: flow %.1f GPM, inlet %.2f F, outlet %.2f F [paper: 41, 0.61, 0.71]\n",
		fig.FlowStd, fig.InletStd, fig.OutletStd)
	fmt.Printf("flow   2014 %s 2019 (note the July 2016 step)\n", report.Sparkline(fig.FlowGPM))
	fmt.Printf("inlet  2014 %s 2019 (note the Theta bump)\n", report.Sparkline(fig.InletF))
	fmt.Printf("outlet 2014 %s 2019\n", report.Sparkline(fig.OutletF))
	fmt.Println()
}

func printFig4(s *mira.Study) {
	fig := s.Fig4MonthlyProfile()
	header("Fig. 4 — Monthly profiles (medians)")
	fmt.Println("month  power(MW)  util(%)  flow(GPM)  inlet(F)  outlet(F)")
	for i, m := range fig.Month {
		fmt.Printf("%5d  %9.3f  %7.1f  %9.1f  %8.2f  %9.2f\n",
			m, fig.PowerMW[i], fig.Utilization[i], fig.FlowGPM[i], fig.InletF[i], fig.OutletF[i])
	}
	fmt.Printf("H2 vs H1: power +%.1f%%, utilization +%.1f%% [paper: higher H2 due to allocation years]\n",
		fig.SecondHalfPowerGain*100, fig.SecondHalfUtilGain*100)
	fmt.Printf("winter inlet excess: +%.2f F (economizer) | max coolant monthly change: %.2f%% [paper: <1.5%%]\n",
		fig.WinterInletExcess, fig.MaxCoolantChangePct)
	fmt.Println()
}

func printFig5(s *mira.Study) {
	fig := s.Fig5WeekdayProfile()
	header("Fig. 5 — Day-of-week profiles")
	days := []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}
	fmt.Println("day  power(MW)  util(%)  outlet(F)")
	for i, d := range fig.Weekday {
		fmt.Printf("%s  %9.3f  %7.1f  %9.2f\n", days[d], fig.PowerMW[i], fig.Utilization[i], fig.OutletF[i])
	}
	fmt.Printf("non-Monday gains: power +%.1f%% [paper ~6%%], utilization +%.1f%% [paper ~1.5%%], outlet +%.1f%% [paper ~2%%]\n",
		fig.NonMondayPowerGainPct, fig.NonMondayUtilGainPct, fig.NonMondayOutletGainPct)
	fmt.Printf("flow %.2f%% and inlet %.2f%% [paper: no difference]\n", fig.NonMondayFlowGainPct, fig.NonMondayInletGainPct)
	fmt.Println()
}

func printFig6(s *mira.Study) {
	fig := s.Fig6RackPowerUtil()
	header("Fig. 6 — Rack-level power and utilization")
	fmt.Printf("power spread: %.1f%% [paper: up to 15%%], utilization spread: %.1f%%\n", fig.PowerSpreadPct, fig.UtilSpreadPct)
	fmt.Printf("highest power: rack %v [paper: (0,D)]; highest utilization: rack %v [paper: (0,A)]\n",
		fig.MaxPowerRack, fig.MaxUtilRack)
	fmt.Printf("row means: power %.1f / %.1f / %.1f kW; utilization %.1f / %.1f / %.1f %% [paper: row 0 leads]\n",
		fig.RowPowerKW[0], fig.RowPowerKW[1], fig.RowPowerKW[2],
		fig.RowUtilPct[0], fig.RowUtilPct[1], fig.RowUtilPct[2])
	fmt.Printf("power-utilization correlation: %.2f [paper: 0.45]\n", fig.Correlation)
	fmt.Println("rack power heatmap:")
	fmt.Print(report.RackHeatmap(fig.PowerKW))
	fmt.Println("rack utilization heatmap:")
	fmt.Print(report.RackHeatmap(fig.UtilPct))
	fmt.Println()
}

func printFig7(s *mira.Study) {
	fig := s.Fig7RackCoolant()
	header("Fig. 7 — Rack-level coolant metrics")
	fmt.Printf("spreads: flow %.1f%% [paper: 11%%], inlet %.1f%% [paper: ~1%%], outlet %.1f%% [paper: ~3%%]\n",
		fig.FlowSpreadPct, fig.InletSpreadPct, fig.OutletSpreadPct)
	fmt.Println("rack coolant-flow heatmap (under-floor blockages):")
	fmt.Print(report.RackHeatmap(fig.FlowGPM))
	fmt.Println()
}

func printFig8(s *mira.Study) {
	fig := s.Fig8AmbientTimeline()
	header("Fig. 8 — DC ambient temperature and humidity timeline")
	fmt.Printf("temperature: monthly means %.1f..%.1f F, std %.2f [paper: 76-90 F, std 2.48]\n",
		fig.TempMin, fig.TempMax, fig.TempStd)
	fmt.Printf("humidity: monthly means %.1f..%.1f RH, std %.2f [paper: 28-37 RH, std 3.66]\n",
		fig.HumMin, fig.HumMax, fig.HumStd)
	fmt.Printf("summer humidity excess: +%.1f RH [paper: humid summers]\n", fig.SummerHumidityExcess)
	fmt.Printf("temperature 2014 %s 2019\n", report.Sparkline(fig.TempF))
	fmt.Printf("humidity    2014 %s 2019 (seasonal)\n", report.Sparkline(fig.HumidityRH))
	fmt.Println()
}

func printFig9(s *mira.Study) {
	fig := s.Fig9RackAmbient()
	header("Fig. 9 — Rack-level ambient conditions")
	fmt.Printf("spreads: temperature %.1f%% [paper: up to 11%%], humidity %.1f%% [paper: up to 36%%]\n",
		fig.TempSpreadPct, fig.HumSpreadPct)
	fmt.Printf("most humid rack: %v [paper: the (1,8) hotspot]\n", fig.MaxHumidityRack)
	fmt.Printf("row ends: +%.2f F warmer, %.2f RH drier than inner racks\n",
		fig.RowEndTempExcess, fig.RowEndHumidityDeficit)
	fmt.Println("rack humidity heatmap (note the (1,8) hotspot, dry row ends):")
	fmt.Print(report.RackHeatmap(fig.HumidityRH))
	fmt.Println()
}

func printFig10(s *mira.Study) {
	fig := s.Fig10CMFPerYear()
	header("Fig. 10 — Coolant monitor failures per year")
	for i, y := range fig.Years {
		fmt.Printf("  %d: %d\n", y, fig.Counts[i])
	}
	fmt.Printf("total: %d [paper: 361]; 2016 share: %.0f%% [paper: ~40%%]; longest quiet gap: %.0f days [paper: >2 years]\n",
		fig.Total, fig.Share2016*100, fig.QuietGapDays)
	fmt.Println()
}

func printFig11(s *mira.Study) {
	fig := s.Fig11CMFPerRack()
	header("Fig. 11 — Coolant monitor failures per rack")
	for row := 0; row < topology.Rows; row++ {
		fmt.Printf("  row %d:", row)
		for col := 0; col < topology.ColsPerRow; col++ {
			fmt.Printf(" %2d", fig.Counts[topology.RackID{Row: row, Col: col}.Index()])
		}
		fmt.Println()
	}
	fmt.Printf("max: %d at %v [paper: 14 at (1,8)]; min: %d at %v [paper: 5 at (2,7)]\n",
		fig.MaxCount, fig.MaxRack, fig.MinCount, fig.MinRack)
	fmt.Printf("correlations: utilization %.2f [paper: -0.21], outlet %.2f [paper: -0.06], humidity %.2f [paper: 0.06]\n",
		fig.CorrUtilization, fig.CorrOutletTemp, fig.CorrHumidity)
	fmt.Println()
}

func printFig12(s *mira.Study) {
	fig := s.Fig12LeadUp()
	header("Fig. 12 — Telemetry lead-up to a CMF")
	fmt.Printf("windows analyzed: %d\n", fig.Windows)
	fmt.Printf("inlet: max dip %.1f%% [paper: -7%%], final spike %+.1f%% [paper: +8%%]\n",
		fig.InletMaxDipPct, fig.InletFinalPct)
	fmt.Printf("outlet: max dip %.1f%% [paper: -5%%]\n", fig.OutletMaxDipPct)
	fmt.Printf("flow: stable until %.1f h out, final change %.1f%% [paper: stable until ~30 min]\n",
		fig.FlowStableUntilH, fig.FlowFinalPct)
	if len(fig.LeadHours) > 0 {
		fmt.Printf("inlet%%  -%gh %s now\n", fig.LeadHours[0], report.Sparkline(fig.InletPct))
		fmt.Printf("flow%%   -%gh %s now\n", fig.LeadHours[0], report.Sparkline(fig.FlowPct))
	}
	fmt.Println()
}

func printFig13(s *mira.Study, seed int64) {
	header("Fig. 13 — CMF predictor performance vs lead time")
	points, err := s.Fig13Predictor(mira.PredictorConfig{Seed: seed})
	if err != nil {
		fmt.Printf("predictor unavailable: %v\n\n", err)
		return
	}
	fmt.Println("lead    accuracy  precision  recall   F1      FPR")
	for _, pt := range points {
		c := pt.Confusion
		fmt.Printf("%-6s  %8.3f  %9.3f  %6.3f  %6.3f  %5.3f\n",
			pt.Lead, c.Accuracy(), c.Precision(), c.Recall(), c.F1(), c.FalsePositiveRate())
	}
	fmt.Println("[paper: ~87% accuracy at 6h rising to ~97% at 30 min; FPR 6% -> 1.2%]")
	fmt.Println()
}

func printFig14(s *mira.Study) {
	fig := s.Fig14PostCMF()
	header("Fig. 14 — Failures after a CMF")
	fmt.Println("window(h)  rate(/h)")
	for i, w := range fig.WindowHours {
		fmt.Printf("%9.0f  %8.3f\n", w, fig.RatePerHour[i])
	}
	fmt.Printf("rate(6h)/rate(3h) = %.2f [paper: <0.75]; rate(48h)/rate(3h) = %.2f [paper: ~0.10]\n",
		fig.Rate6vs3, fig.Rate48vs3)
	fmt.Println("post-CMF failure types:")
	for _, tp := range []ras.EventType{ras.ACToDCPower, ras.BQL, ras.BQC, ras.Card, ras.Software, ras.Ethernet, ras.Process} {
		fmt.Printf("  %-15s %5.1f%%\n", tp, fig.TypeFraction[tp]*100)
	}
	fmt.Println("[paper: AC-to-DC ~50%, process <2%]")
	fmt.Println()
}

func printFig15(s *mira.Study) {
	fig := s.Fig15PostCMFSpatial()
	header("Fig. 15 — Where post-CMF failures land")
	fmt.Printf("mean rack-grid distance from epicenter: %.2f (uniform-random expectation: %.2f)\n",
		fig.MeanDistance, fig.RandomExpectedDistance)
	fmt.Printf("same-rack fraction: %.1f%% — follow-ons land anywhere [paper: no spatial affinity]\n",
		fig.SameRackFraction*100)
	for _, ex := range fig.Examples {
		follows := make([]string, 0, len(ex.FollowOns))
		for _, r := range ex.FollowOns {
			follows = append(follows, r.String())
		}
		fmt.Printf("  example: CMF at %v -> follow-ons at %s\n", ex.Epicenter, strings.Join(follows, " "))
	}
	fmt.Println()
}
