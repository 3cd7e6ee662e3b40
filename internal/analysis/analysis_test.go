package analysis

import (
	"math"
	"sync"
	"testing"
	"time"

	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

// fullRun executes the entire 2014–2019 production window once per test
// binary at a 15-minute step and caches the results for every figure test.
var fullRun = struct {
	once sync.Once
	c    *Collector
	win  *sim.IncidentWindowRecorder
	s    *sim.Simulator
	err  error
}{}

const fullStep = 15 * time.Minute

func fullSim(t *testing.T) (*Collector, *sim.IncidentWindowRecorder, *sim.Simulator) {
	t.Helper()
	if testing.Short() {
		t.Skip("full six-year reproduction skipped in -short mode")
	}
	fullRun.once.Do(func() {
		windowTicks := int((6 * time.Hour) / fullStep)
		fullRun.c = NewCollector()
		fullRun.win = sim.NewIncidentWindowRecorder(windowTicks, 200, 4000)
		fullRun.s = sim.New(sim.Config{Seed: 42, Step: fullStep})
		fullRun.s.AddRecorder(fullRun.c)
		fullRun.s.AddRecorder(fullRun.win)
		fullRun.err = fullRun.s.Run()
		fullRun.c.Finalize()
	})
	if fullRun.err != nil {
		t.Fatal(fullRun.err)
	}
	return fullRun.c, fullRun.win, fullRun.s
}

func TestFig2YearlyTrend(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig2YearlyTrend()
	if len(fig.YearMonth) != 72 {
		t.Fatalf("months = %d, want 72", len(fig.YearMonth))
	}
	// Paper: power ≈2.5 → ≈2.9 MW, rising fit.
	if fig.PowerFit.Slope <= 0 {
		t.Error("power trend should rise")
	}
	if fig.PowerStartMW < 2.3 || fig.PowerStartMW > 2.7 {
		t.Errorf("2014 fitted power = %v MW, want ≈2.5", fig.PowerStartMW)
	}
	if fig.PowerEndMW < 2.7 || fig.PowerEndMW > 3.1 {
		t.Errorf("2019 fitted power = %v MW, want ≈2.9", fig.PowerEndMW)
	}
	// Paper: utilization ≈80% → ≈93%, rising fit.
	if fig.UtilFit.Slope <= 0 {
		t.Error("utilization trend should rise")
	}
	if fig.UtilStartPct < 74 || fig.UtilStartPct > 86 {
		t.Errorf("2014 fitted utilization = %v%%, want ≈80%%", fig.UtilStartPct)
	}
	if fig.UtilEndPct < 87 || fig.UtilEndPct > 97 {
		t.Errorf("2019 fitted utilization = %v%%, want ≈93%%", fig.UtilEndPct)
	}
}

func TestFig3CoolantTimeline(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig3CoolantTimeline()
	// Theta step: ≈1250 → ≈1300 GPM.
	if fig.FlowBeforeTheta < 1220 || fig.FlowBeforeTheta > 1270 {
		t.Errorf("pre-Theta flow = %v, want ≈1250", fig.FlowBeforeTheta)
	}
	if fig.FlowAfterTheta < 1280 || fig.FlowAfterTheta > 1330 {
		t.Errorf("post-Theta flow = %v, want ≈1300", fig.FlowAfterTheta)
	}
	if fig.FlowAfterTheta-fig.FlowBeforeTheta < 30 {
		t.Error("Theta cutover step missing")
	}
	// Overall σ: paper reports 41 GPM / 0.61°F / 0.71°F.
	if fig.FlowStd < 20 || fig.FlowStd > 60 {
		t.Errorf("flow σ = %v GPM, want ≈41", fig.FlowStd)
	}
	if fig.InletStd < 0.3 || fig.InletStd > 1.1 {
		t.Errorf("inlet σ = %v °F, want ≈0.61", fig.InletStd)
	}
	if fig.OutletStd < 0.35 || fig.OutletStd > 1.7 {
		t.Errorf("outlet σ = %v °F, want small (paper: 0.71)", fig.OutletStd)
	}
	if fig.OutletStd <= fig.InletStd {
		t.Error("outlet should vary more than inlet")
	}
}

func TestFig4MonthlyProfile(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig4MonthlyProfile()
	if len(fig.Month) != 12 {
		t.Fatalf("months = %d", len(fig.Month))
	}
	// Power/utilization higher in H2 (allocation-year deadlines).
	if fig.SecondHalfPowerGain <= 0 {
		t.Errorf("H2 power gain = %v, want > 0", fig.SecondHalfPowerGain)
	}
	if fig.SecondHalfUtilGain <= 0 {
		t.Errorf("H2 utilization gain = %v, want > 0", fig.SecondHalfUtilGain)
	}
	// Inlet slightly warmer in the free-cooling months.
	if fig.WinterInletExcess <= 0 || fig.WinterInletExcess > 2 {
		t.Errorf("winter inlet excess = %v °F, want ≈0.5-1", fig.WinterInletExcess)
	}
	// Cooling metrics vary < 1.5% month over month (paper).
	if fig.MaxCoolantChangePct >= 2.5 {
		t.Errorf("max coolant monthly change = %v%%, want < 2.5%%", fig.MaxCoolantChangePct)
	}
	// December should be the peak power month.
	maxI := 0
	for i := range fig.PowerMW {
		if fig.PowerMW[i] > fig.PowerMW[maxI] {
			maxI = i
		}
	}
	if fig.Month[maxI] < 10 {
		t.Errorf("peak power month = %d, want late in the year", fig.Month[maxI])
	}
}

func TestFig5WeekdayProfile(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig5WeekdayProfile()
	if len(fig.Weekday) != 7 {
		t.Fatalf("weekdays = %d", len(fig.Weekday))
	}
	// Paper: power +≈6% on non-Mondays, utilization +≈1.5%, outlet +≈2%,
	// flow and inlet flat.
	if fig.NonMondayPowerGainPct < 1.5 || fig.NonMondayPowerGainPct > 12 {
		t.Errorf("non-Monday power gain = %v%%, want ≈6%%", fig.NonMondayPowerGainPct)
	}
	if fig.NonMondayUtilGainPct < 0.3 || fig.NonMondayUtilGainPct > 6 {
		t.Errorf("non-Monday utilization gain = %v%%, want ≈1.5%%", fig.NonMondayUtilGainPct)
	}
	if fig.NonMondayUtilGainPct >= fig.NonMondayPowerGainPct {
		t.Error("power effect should exceed utilization effect (burner jobs)")
	}
	if fig.NonMondayOutletGainPct <= 0 || fig.NonMondayOutletGainPct > 5 {
		t.Errorf("non-Monday outlet gain = %v%%, want ≈2%%", fig.NonMondayOutletGainPct)
	}
	if math.Abs(fig.NonMondayFlowGainPct) > 1 {
		t.Errorf("flow should not depend on weekday: %v%%", fig.NonMondayFlowGainPct)
	}
	if math.Abs(fig.NonMondayInletGainPct) > 1 {
		t.Errorf("inlet should not depend on weekday: %v%%", fig.NonMondayInletGainPct)
	}
}

func TestFig6RackPowerUtil(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig6RackPowerUtil()
	// Paper: power varies up to 15% across racks.
	if fig.PowerSpreadPct < 5 || fig.PowerSpreadPct > 25 {
		t.Errorf("rack power spread = %v%%, want ≈15%%", fig.PowerSpreadPct)
	}
	// Highest power at (0,D); highest utilization at (0,A).
	if fig.MaxPowerRack != topology.HotRack {
		t.Errorf("max power rack = %v, want (0,D)", fig.MaxPowerRack)
	}
	if fig.MaxUtilRack.Row != 0 {
		t.Errorf("max utilization rack = %v, want on row 0", fig.MaxUtilRack)
	}
	// Row 0 leads both metrics.
	if fig.RowPowerKW[0] <= fig.RowPowerKW[1] || fig.RowPowerKW[0] <= fig.RowPowerKW[2] {
		t.Errorf("row 0 power %v should lead rows 1-2 (%v, %v)", fig.RowPowerKW[0], fig.RowPowerKW[1], fig.RowPowerKW[2])
	}
	if fig.RowUtilPct[0] <= fig.RowUtilPct[1] || fig.RowUtilPct[0] <= fig.RowUtilPct[2] {
		t.Errorf("row 0 utilization %v should lead rows 1-2 (%v, %v)", fig.RowUtilPct[0], fig.RowUtilPct[1], fig.RowUtilPct[2])
	}
	// Paper: correlation ≈0.45 — positive but far from 1.
	if fig.Correlation < 0.15 || fig.Correlation > 0.8 {
		t.Errorf("power-utilization correlation = %v, want ≈0.45", fig.Correlation)
	}
}

func TestFig7RackCoolant(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig7RackCoolant()
	// Paper: flow ≤11%, inlet ≈1%, outlet ≤3%.
	if fig.FlowSpreadPct < 6 || fig.FlowSpreadPct > 15 {
		t.Errorf("flow spread = %v%%, want ≈11%%", fig.FlowSpreadPct)
	}
	if fig.InletSpreadPct > 2 {
		t.Errorf("inlet spread = %v%%, want ≈1%%", fig.InletSpreadPct)
	}
	if fig.OutletSpreadPct < 1 || fig.OutletSpreadPct > 6 {
		t.Errorf("outlet spread = %v%%, want ≈3%%", fig.OutletSpreadPct)
	}
	if fig.OutletSpreadPct <= fig.InletSpreadPct {
		t.Error("outlet spread should exceed inlet spread")
	}
	if fig.FlowSpreadPct <= fig.OutletSpreadPct {
		t.Error("flow spread should dominate")
	}
}

func TestFig8AmbientTimeline(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig8AmbientTimeline()
	// Paper: temperature 76–90 °F (σ 2.48), humidity 28–37 RH (σ 3.66).
	if fig.TempStd < 1.2 || fig.TempStd > 4 {
		t.Errorf("temperature σ = %v, want ≈2.48", fig.TempStd)
	}
	if fig.HumStd < 2 || fig.HumStd > 6 {
		t.Errorf("humidity σ = %v, want ≈3.66", fig.HumStd)
	}
	if fig.TempMin < 70 || fig.TempMax > 95 {
		t.Errorf("temperature range [%v, %v] implausible", fig.TempMin, fig.TempMax)
	}
	if fig.HumMin < 20 || fig.HumMax > 45 {
		t.Errorf("humidity range [%v, %v] implausible", fig.HumMin, fig.HumMax)
	}
	// Humidity peaks in summer.
	if fig.SummerHumidityExcess <= 0 {
		t.Errorf("summer humidity excess = %v, want > 0", fig.SummerHumidityExcess)
	}
}

func TestFig9RackAmbient(t *testing.T) {
	c, _, _ := fullSim(t)
	fig := c.Fig9RackAmbient()
	// Paper: temperature ≤11%, humidity ≤36% across racks.
	if fig.TempSpreadPct < 4 || fig.TempSpreadPct > 14 {
		t.Errorf("rack temperature spread = %v%%, want ≈11%%", fig.TempSpreadPct)
	}
	if fig.HumSpreadPct < 20 || fig.HumSpreadPct > 45 {
		t.Errorf("rack humidity spread = %v%%, want ≈36%%", fig.HumSpreadPct)
	}
	if fig.MaxHumidityRack != topology.HumidityHotspot {
		t.Errorf("most humid rack = %v, want the (1,8) hotspot", fig.MaxHumidityRack)
	}
	if fig.RowEndTempExcess <= 0 {
		t.Errorf("row ends should run warmer: %v", fig.RowEndTempExcess)
	}
	if fig.RowEndHumidityDeficit <= 0 {
		t.Errorf("row ends should run drier: %v", fig.RowEndHumidityDeficit)
	}
}

func TestFig10CMFPerYear(t *testing.T) {
	_, _, s := fullSim(t)
	fig := Fig10CMFPerYear(s.Log())
	// Paper: 361 total, ≈40% in 2016, two-year quiet gap.
	if fig.Total < 280 || fig.Total > 460 {
		t.Errorf("total CMFs = %d, want ≈361", fig.Total)
	}
	if fig.Share2016 < 0.28 || fig.Share2016 > 0.52 {
		t.Errorf("2016 share = %v, want ≈0.40", fig.Share2016)
	}
	if fig.QuietGapDays < 500 {
		t.Errorf("longest quiet gap = %v days, want > 500 (the 2017–2018 lull)", fig.QuietGapDays)
	}
	if fig.Counts[3] != 0 { // 2017
		t.Errorf("2017 CMFs = %d, want 0", fig.Counts[3])
	}
}

func TestFig11CMFPerRack(t *testing.T) {
	c, _, s := fullSim(t)
	fig := Fig11CMFPerRack(s.Log(), c)
	// Paper: max 14 at (1,8), min 5 at (2,7).
	if fig.MaxRack != topology.HumidityHotspot {
		t.Errorf("max-failure rack = %v (%d), want (1,8)", fig.MaxRack, fig.MaxCount)
	}
	if fig.MaxCount < 9 || fig.MaxCount > 21 {
		t.Errorf("max rack count = %d, want ≈14", fig.MaxCount)
	}
	if fig.MinCount < 2 || fig.MinCount > 8 {
		t.Errorf("min rack count = %d, want ≈5", fig.MinCount)
	}
	// Correlations: all weak (paper: −0.21, −0.06, +0.06).
	for name, corr := range map[string]float64{
		"utilization": fig.CorrUtilization,
		"outlet":      fig.CorrOutletTemp,
		"humidity":    fig.CorrHumidity,
	} {
		if math.Abs(corr) > 0.45 {
			t.Errorf("CMF-%s correlation = %v, want weak (|r| < 0.45)", name, corr)
		}
	}
}

func TestFig12LeadUp(t *testing.T) {
	c, win, s := fullSim(t)
	fig := Fig12LeadUp(win.Positives(), c.Incidents(), fullStep)
	_ = s
	if fig.Windows < 20 {
		t.Fatalf("windows analyzed = %d, want many", fig.Windows)
	}
	// Paper: inlet dips ≈−7% then ends ≈+8%; outlet dips ≈−5%; flow stable
	// until ≈30 min then collapses.
	if fig.InletMaxDipPct > -4 || fig.InletMaxDipPct < -10 {
		t.Errorf("inlet max dip = %v%%, want ≈-7%%", fig.InletMaxDipPct)
	}
	if fig.InletFinalPct < 4 || fig.InletFinalPct > 12 {
		t.Errorf("inlet final spike = %v%%, want ≈+8%%", fig.InletFinalPct)
	}
	if fig.OutletMaxDipPct > -2.5 || fig.OutletMaxDipPct < -9 {
		t.Errorf("outlet max dip = %v%%, want ≈-5%%", fig.OutletMaxDipPct)
	}
	if fig.FlowFinalPct > -25 {
		t.Errorf("final flow change = %v%%, want ≈-45%%", fig.FlowFinalPct)
	}
	if fig.FlowStableUntilH > 1.0 {
		t.Errorf("flow destabilizes %v h out, want within the last hour", fig.FlowStableUntilH)
	}
}

func TestFig14PostCMF(t *testing.T) {
	_, _, s := fullSim(t)
	fig := Fig14PostCMF(s.Log())
	if fig.Incidents < 50 {
		t.Fatalf("incidents = %d", fig.Incidents)
	}
	// Paper: rate(6h) < 75% of rate(3h); rate(48h) ≈ 10%.
	if fig.Rate6vs3 >= 0.85 {
		t.Errorf("rate(6h)/rate(3h) = %v, want < 0.85", fig.Rate6vs3)
	}
	if fig.Rate48vs3 < 0.04 || fig.Rate48vs3 > 0.25 {
		t.Errorf("rate(48h)/rate(3h) = %v, want ≈0.10", fig.Rate48vs3)
	}
	// Rates decay monotonically across windows.
	for i := 1; i < len(fig.RatePerHour); i++ {
		if fig.RatePerHour[i] > fig.RatePerHour[i-1]*1.05 {
			t.Errorf("post-CMF rate should decay: %v", fig.RatePerHour)
		}
	}
	// Type mix: AC-to-DC ≈50%, process < 2%... allow sampling slack.
	if f := fig.TypeFraction[0x0]; f != 0 { // no CMFs in the non-CMF mix
		t.Errorf("coolant-monitor events in non-CMF mix: %v", f)
	}
}

func TestFig14TypeMix(t *testing.T) {
	_, _, s := fullSim(t)
	fig := Fig14PostCMF(s.Log())
	var acdc, process float64
	for tp, f := range fig.TypeFraction {
		switch tp.String() {
		case "ac-to-dc-power":
			acdc = f
		case "process":
			process = f
		}
	}
	if acdc < 0.38 || acdc > 0.62 {
		t.Errorf("AC-to-DC fraction = %v, want ≈0.50", acdc)
	}
	if process > 0.05 {
		t.Errorf("process fraction = %v, want rare", process)
	}
}

func TestFig15PostCMFSpatial(t *testing.T) {
	c, _, s := fullSim(t)
	fig := Fig15PostCMFSpatial(s.Log(), c.Incidents())
	if fig.Pairs < 100 {
		t.Fatalf("pairs = %d", fig.Pairs)
	}
	// Follow-ons land anywhere: mean distance ≈ the uniform-random mean.
	if math.Abs(fig.MeanDistance-fig.RandomExpectedDistance) > 1.2 {
		t.Errorf("mean follow-on distance = %v, random expectation = %v — should be close",
			fig.MeanDistance, fig.RandomExpectedDistance)
	}
	if fig.SameRackFraction > 0.15 {
		t.Errorf("same-rack fraction = %v, follow-ons should not cluster on the epicenter", fig.SameRackFraction)
	}
	if len(fig.Examples) == 0 {
		t.Error("no spatial examples captured")
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector()
	c.Finalize()
	fig := c.Fig7RackCoolant()
	if !math.IsNaN(fig.FlowGPM[0]) {
		t.Error("empty collector should produce NaN means")
	}
}

// TestCollectorTickAllocations: one tick through the collector (OnTick and
// 48 OnSample) allocates nothing once the month's and the weekday's groups
// exist. The parent of PR 14 allocated nothing here either — its cost was
// ~480 calendar conversions a tick, which the series.Profile memo cut to 17
// — so this guards the memo against being rebuilt on something that does.
func TestCollectorTickAllocations(t *testing.T) {
	c := NewCollector()
	now := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	tick := func() {
		c.OnTick(now, units.MW(2.5), 0.9)
		for i := 0; i < topology.NumRacks; i++ {
			c.OnSample(sensors.Record{Time: now, Rack: topology.RackByIndex(i),
				DCTemperature: 80, DCHumidity: 30, Flow: 26, InletTemp: 64, OutletTemp: 78, Power: 55000})
		}
		now = now.Add(timeutil.SampleInterval)
	}
	tick()
	if avg := testing.AllocsPerRun(200, tick); avg != 0 {
		t.Errorf("one tick through the collector allocates %v times, want 0", avg)
	}
}
