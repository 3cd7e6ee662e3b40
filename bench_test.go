package mira

// The benchmark harness regenerates every figure of the paper's evaluation
// (go test -bench=. -benchmem). Each BenchmarkFigNN benchmark times the
// analysis that produces the figure and reports its headline numbers as
// benchmark metrics, so a bench run doubles as a reproduction record.
//
// A shared full-production-window study (2014–2019, 30-minute step) is
// simulated once per bench binary; use cmd/miraanalyze for the native
// 300-second regeneration.

import (
	"sync"
	"testing"
	"time"

	"mira/internal/core"
	"mira/internal/sim"
	"mira/internal/timeutil"
	"mira/internal/tsdb"
	"mira/internal/weather"
	"mira/internal/workload"

	"mira/internal/cooling"
	"mira/internal/nn"
	"mira/internal/scheduler"
	"mira/internal/topology"
)

var benchStudy = struct {
	once  sync.Once
	study *Study
	err   error
}{}

// benchSetup simulates the full production window once at a 30-minute step
// (fast enough for a bench binary, fine enough for every figure).
func benchSetup(b *testing.B) *Study {
	b.Helper()
	benchStudy.once.Do(func() {
		benchStudy.study, benchStudy.err = RunStudy(StudyConfig{Seed: 42, Step: 30 * time.Minute})
	})
	if benchStudy.err != nil {
		b.Fatal(benchStudy.err)
	}
	return benchStudy.study
}

func BenchmarkFig02YearlyPowerUtilization(b *testing.B) {
	s := benchSetup(b)
	var fig YearlyTrend
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig2YearlyTrend()
	}
	b.ReportMetric(fig.PowerStartMW, "power2014_MW")
	b.ReportMetric(fig.PowerEndMW, "power2019_MW")
	b.ReportMetric(fig.UtilStartPct, "util2014_pct")
	b.ReportMetric(fig.UtilEndPct, "util2019_pct")
}

func BenchmarkFig03CoolantTimeline(b *testing.B) {
	s := benchSetup(b)
	var fig CoolantTimeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig3CoolantTimeline()
	}
	b.ReportMetric(fig.FlowBeforeTheta, "flowPre_GPM")
	b.ReportMetric(fig.FlowAfterTheta, "flowPost_GPM")
	b.ReportMetric(fig.InletStd, "inletStd_F")
	b.ReportMetric(fig.OutletStd, "outletStd_F")
}

func BenchmarkFig04MonthlyProfiles(b *testing.B) {
	s := benchSetup(b)
	var fig MonthlyProfile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig4MonthlyProfile()
	}
	b.ReportMetric(fig.SecondHalfPowerGain*100, "H2powerGain_pct")
	b.ReportMetric(fig.SecondHalfUtilGain*100, "H2utilGain_pct")
	b.ReportMetric(fig.WinterInletExcess, "winterInlet_F")
}

func BenchmarkFig05DayOfWeek(b *testing.B) {
	s := benchSetup(b)
	var fig WeekdayProfile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig5WeekdayProfile()
	}
	b.ReportMetric(fig.NonMondayPowerGainPct, "nonMonPower_pct")
	b.ReportMetric(fig.NonMondayUtilGainPct, "nonMonUtil_pct")
	b.ReportMetric(fig.NonMondayOutletGainPct, "nonMonOutlet_pct")
}

func BenchmarkFig06RackPowerUtilization(b *testing.B) {
	s := benchSetup(b)
	var fig RackPowerUtil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig6RackPowerUtil()
	}
	b.ReportMetric(fig.PowerSpreadPct, "powerSpread_pct")
	b.ReportMetric(fig.Correlation, "powerUtilCorr")
}

func BenchmarkFig07RackCoolant(b *testing.B) {
	s := benchSetup(b)
	var fig RackCoolant
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig7RackCoolant()
	}
	b.ReportMetric(fig.FlowSpreadPct, "flowSpread_pct")
	b.ReportMetric(fig.InletSpreadPct, "inletSpread_pct")
	b.ReportMetric(fig.OutletSpreadPct, "outletSpread_pct")
}

func BenchmarkFig08AmbientTimeline(b *testing.B) {
	s := benchSetup(b)
	var fig AmbientTimeline
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig8AmbientTimeline()
	}
	b.ReportMetric(fig.TempStd, "tempStd_F")
	b.ReportMetric(fig.HumStd, "humStd_RH")
}

func BenchmarkFig09RackAmbient(b *testing.B) {
	s := benchSetup(b)
	var fig RackAmbient
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig9RackAmbient()
	}
	b.ReportMetric(fig.TempSpreadPct, "tempSpread_pct")
	b.ReportMetric(fig.HumSpreadPct, "humSpread_pct")
}

func BenchmarkFig10CMFPerYear(b *testing.B) {
	s := benchSetup(b)
	var fig CMFPerYear
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig10CMFPerYear()
	}
	b.ReportMetric(float64(fig.Total), "totalCMFs")
	b.ReportMetric(fig.Share2016*100, "share2016_pct")
}

func BenchmarkFig11CMFPerRack(b *testing.B) {
	s := benchSetup(b)
	var fig CMFPerRack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig11CMFPerRack()
	}
	b.ReportMetric(float64(fig.MaxCount), "maxRackCMFs")
	b.ReportMetric(float64(fig.MinCount), "minRackCMFs")
	b.ReportMetric(fig.CorrUtilization, "corrUtil")
}

func BenchmarkFig12LeadUp(b *testing.B) {
	s := benchSetup(b)
	var fig LeadUp
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig12LeadUp()
	}
	b.ReportMetric(fig.InletMaxDipPct, "inletDip_pct")
	b.ReportMetric(fig.InletFinalPct, "inletSpike_pct")
	b.ReportMetric(fig.OutletMaxDipPct, "outletDip_pct")
}

func BenchmarkFig13Predictor(b *testing.B) {
	s := benchSetup(b)
	// Benchmark one full train+cross-validate cycle at a one-hour lead.
	ds, err := s.BuildPredictorDataset(time.Hour, 9)
	if err != nil {
		b.Fatal(err)
	}
	var acc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conf, err := core.CrossValidate(ds, core.Config{Seed: 9}, 5)
		if err != nil {
			b.Fatal(err)
		}
		acc = conf.Accuracy()
	}
	b.ReportMetric(acc, "cvAccuracy1h")
	b.ReportMetric(float64(ds.Len()), "datasetSize")
}

func BenchmarkFig14PostCMF(b *testing.B) {
	s := benchSetup(b)
	var fig PostCMF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig14PostCMF()
	}
	b.ReportMetric(fig.Rate6vs3, "rate6v3")
	b.ReportMetric(fig.Rate48vs3, "rate48v3")
}

func BenchmarkFig15PostCMFSpatial(b *testing.B) {
	s := benchSetup(b)
	var fig PostCMFSpatial
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig = s.Fig15PostCMFSpatial()
	}
	b.ReportMetric(fig.MeanDistance, "meanDistance")
	b.ReportMetric(fig.RandomExpectedDistance, "randomDistance")
}

// ---------------------------------------------------------------------------
// Ablation benches: design choices DESIGN.md calls out.
// ---------------------------------------------------------------------------

// BenchmarkAblationDeltaVsLevelFeatures quantifies the paper's §VI-D claim:
// delta features beat level features at long leads.
func BenchmarkAblationDeltaVsLevelFeatures(b *testing.B) {
	s := benchSetup(b)
	lead := 4 * time.Hour
	deltaDS, err := core.BuildDataset(s.PositiveWindows(), s.NegativeWindows(), s.Step(), lead, core.DeltaFeatures, 21)
	if err != nil {
		b.Fatal(err)
	}
	levelDS, err := core.BuildDataset(s.PositiveWindows(), s.NegativeWindows(), s.Step(), lead, core.LevelFeatures, 21)
	if err != nil {
		b.Fatal(err)
	}
	var dAcc, lAcc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc, err := core.CrossValidate(deltaDS, core.Config{Seed: 22}, 5)
		if err != nil {
			b.Fatal(err)
		}
		lc, err := core.CrossValidate(levelDS, core.Config{Seed: 22}, 5)
		if err != nil {
			b.Fatal(err)
		}
		dAcc, lAcc = dc.Accuracy(), lc.Accuracy()
	}
	b.ReportMetric(dAcc, "deltaAccuracy")
	b.ReportMetric(lAcc, "levelAccuracy")
}

// BenchmarkAblationEconomizer compares annual plant energy with and without
// the waterside economizer.
func BenchmarkAblationEconomizer(b *testing.B) {
	wx := weather.New(3)
	plant := cooling.NewPlant(wx, 4)
	heat := cooling.DesignHeatLoad
	var saved float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saved = 0
		start := time.Date(2015, 1, 1, 0, 0, 0, 0, timeutil.Chicago)
		for ts := start; ts.Before(start.AddDate(1, 0, 0)); ts = ts.Add(time.Hour) {
			chillersOnly := float64(heat)/cooling.ChillerCOP + float64(cooling.PumpTowerPower)
			saved += (chillersOnly - float64(plant.Power(heat, ts))) / 1000
		}
	}
	b.ReportMetric(saved, "annualSavings_kWh")
}

// BenchmarkAblationFlowNetwork compares the rack-flow spread of the blocked
// impedance network against an idealized homogeneous distribution.
func BenchmarkAblationFlowNetwork(b *testing.B) {
	ts := time.Date(2015, 5, 1, 0, 0, 0, 0, timeutil.Chicago)
	net := cooling.NewFlowNetwork(9)
	var spread float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi := 1e12, 0.0
		for _, r := range topology.AllRacks() {
			f := float64(net.RackFlow(r, ts))
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		spread = 100 * (hi - lo) / lo
	}
	b.ReportMetric(spread, "blockedSpread_pct")
	b.ReportMetric(0.8, "homogeneousSpread_pct") // measurement noise only
}

// ---------------------------------------------------------------------------
// Substrate micro-benchmarks.
// ---------------------------------------------------------------------------

// BenchmarkSimulatorDay measures raw twin throughput: one simulated day at
// the coolant monitor's native 300 s cadence.
func BenchmarkSimulatorDay(b *testing.B) {
	start := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(sim.Config{Seed: int64(i), Start: start, End: start.AddDate(0, 0, 1)})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyRun measures what study_local's records_per_s measures
// (bench/README.md), small enough to profile: a 30-day mira.RunStudy at the
// native cadence into a tsdb store — simulator, scheduler, live collector,
// window recorder and ingest together. `make profile-study` prints where
// its time goes.
func BenchmarkStudyRun(b *testing.B) {
	start := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	b.ReportAllocs()
	records := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := tsdb.NewStoreWith(tsdb.Options{})
		if _, err := RunStudy(StudyConfig{Seed: 42, Start: start, End: start.AddDate(0, 0, 30), TelemetryDB: db}); err != nil {
			b.Fatal(err)
		}
		records += db.Len()
	}
	b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSchedulerStep measures one scheduler tick on a loaded machine.
func BenchmarkSchedulerStep(b *testing.B) {
	gen := workload.NewGenerator(1)
	sched := scheduler.New(scheduler.Config{Seed: 1})
	now := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	for i := 0; i < 2000; i++ { // warm to steady state
		sched.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		sched.Step(now)
		now = now.Add(timeutil.SampleInterval)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		sched.Step(now)
		now = now.Add(timeutil.SampleInterval)
	}
}

// BenchmarkPredictorTraining measures one 50-epoch training run of the
// paper's 12-12-6 network.
func BenchmarkPredictorTraining(b *testing.B) {
	s := benchSetup(b)
	ds, err := s.BuildPredictorDataset(time.Hour, 23)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(ds, core.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNNInference measures single-sample predictor inference.
func BenchmarkNNInference(b *testing.B) {
	net, err := nn.New(nn.Config{Inputs: 6, Hidden: []int{12, 12, 6}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.01, -0.02, 0.005, 0.03, -0.001, 0.002}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Predict(x)
	}
}

// ---------------------------------------------------------------------------
// Extension benches: the paper's "Opportunity" directions.
// ---------------------------------------------------------------------------

// BenchmarkExtensionMitigation prices prediction-triggered checkpointing
// against periodic checkpointing (paper §VI-B: use the warning to
// checkpoint active jobs).
func BenchmarkExtensionMitigation(b *testing.B) {
	s := benchSetup(b)
	p, err := s.TrainPredictor(time.Hour, PredictorConfig{Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	var rep MitigationReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = s.EvaluateMitigation(p, MitigationConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.WarnedFraction, "warnedFraction")
	b.ReportMetric(rep.SavingsVsPeriodic(), "savingsVsPeriodic")
}

// BenchmarkExtensionLocationPredictor scores the machine-wide location
// ranking (paper: "predict the location of an impeding CMF from the overall
// coolant telemetry").
func BenchmarkExtensionLocationPredictor(b *testing.B) {
	// Location frames need their own (shorter) run; the shared bench study
	// does not capture them.
	study, err := RunStudy(StudyConfig{
		Seed:               41,
		Start:              time.Date(2016, 6, 1, 0, 0, 0, 0, timeutil.Chicago),
		End:                time.Date(2016, 10, 1, 0, 0, 0, 0, timeutil.Chicago),
		Step:               10 * time.Minute,
		LocationFrameEvery: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := study.TrainPredictor(time.Hour, PredictorConfig{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	var rep LocationReport
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err = study.EvaluateLocation(p, 0.9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Top1, "top1")
	b.ReportMetric(rep.Top3, "top3")
	b.ReportMetric(rep.MeanEpicenterRank, "meanRank")
}

// BenchmarkExtensionEfficiencyStudy computes the PUE/economizer summary
// (the paper's "Efficiency Measures").
func BenchmarkExtensionEfficiencyStudy(b *testing.B) {
	s := benchSetup(b)
	var eff Efficiency
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eff = s.EfficiencyStudy(2015)
	}
	b.ReportMetric(eff.MeanPUE, "meanPUE")
	b.ReportMetric(eff.WinterPUE, "winterPUE")
	b.ReportMetric(eff.SummerPUE, "summerPUE")
	b.ReportMetric(eff.EconomizerSavingsKWh/1e6, "savings_GWh")
}
