package analysis

// Synthetic unit tests: feed the Collector hand-built samples with known
// patterns and check each figure computation directly, without running the
// simulator.

import (
	"context"
	"math"
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/ras"
	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

// feedTick pushes one tick of synthetic telemetry: system values plus one
// record per rack produced by mk.
func feedTick(c *Collector, ts time.Time, powerMW, util float64, mk func(r topology.RackID) sensors.Record) {
	c.OnTick(ts, units.MW(powerMW), util)
	for _, r := range topology.AllRacks() {
		c.OnRackState(ts, r, util)
		c.OnSample(mk(r))
	}
}

func flatRecord(ts time.Time, r topology.RackID) sensors.Record {
	return sensors.Record{
		Time: ts, Rack: r,
		DCTemperature: 80, DCHumidity: 32,
		Flow: 26, InletTemp: 64, OutletTemp: 79,
		Power: units.Watts(55e3),
	}
}

func TestFig2FitOnSyntheticTrend(t *testing.T) {
	c := NewCollector()
	// Two years of monthly samples with a linear power ramp 2.5 → 2.9 and
	// utilization 80 → 93.
	start := time.Date(2014, 1, 15, 0, 0, 0, 0, timeutil.Chicago)
	months := 24
	for m := 0; m < months; m++ {
		ts := start.AddDate(0, m, 0)
		frac := float64(m) / float64(months-1)
		feedTick(c, ts, 2.5+0.4*frac, 0.80+0.13*frac, func(r topology.RackID) sensors.Record {
			return flatRecord(ts, r)
		})
	}
	c.Finalize()
	fig := c.Fig2YearlyTrend()
	if len(fig.YearMonth) != months {
		t.Fatalf("months = %d", len(fig.YearMonth))
	}
	if math.Abs(fig.PowerStartMW-2.5) > 0.02 || math.Abs(fig.PowerEndMW-2.9) > 0.02 {
		t.Errorf("power fit = %v -> %v, want 2.5 -> 2.9", fig.PowerStartMW, fig.PowerEndMW)
	}
	if math.Abs(fig.UtilStartPct-80) > 0.7 || math.Abs(fig.UtilEndPct-93) > 0.7 {
		t.Errorf("utilization fit = %v -> %v, want 80 -> 93", fig.UtilStartPct, fig.UtilEndPct)
	}
	if fig.PowerFit.R2 < 0.99 {
		t.Errorf("noiseless ramp should fit with R2 ≈ 1, got %v", fig.PowerFit.R2)
	}
}

func TestFig3ThetaStepOnSynthetic(t *testing.T) {
	c := NewCollector()
	// Daily samples through 2016; flow steps at the cutover.
	for d := 0; d < 366; d++ {
		ts := time.Date(2016, 1, 1, 12, 0, 0, 0, timeutil.Chicago).AddDate(0, 0, d)
		flow := units.GPM(1250.0 / topology.NumRacks)
		if !ts.Before(timeutil.ThetaCutover) {
			flow = 1300.0 / topology.NumRacks
		}
		feedTick(c, ts, 2.7, 0.9, func(r topology.RackID) sensors.Record {
			rec := flatRecord(ts, r)
			rec.Flow = flow
			return rec
		})
	}
	c.Finalize()
	fig := c.Fig3CoolantTimeline()
	if math.Abs(fig.FlowBeforeTheta-1250) > 1 {
		t.Errorf("pre-Theta flow = %v", fig.FlowBeforeTheta)
	}
	if math.Abs(fig.FlowAfterTheta-1300) > 1 {
		t.Errorf("post-Theta flow = %v", fig.FlowAfterTheta)
	}
	// Constant temperatures: near-zero σ.
	if fig.InletStd > 1e-9 || fig.OutletStd > 1e-9 {
		t.Errorf("constant temps should have zero σ: %v / %v", fig.InletStd, fig.OutletStd)
	}
}

func TestFig5MondayDipOnSynthetic(t *testing.T) {
	c := NewCollector()
	start := time.Date(2015, 3, 1, 12, 0, 0, 0, timeutil.Chicago)
	for d := 0; d < 28; d++ {
		ts := start.AddDate(0, 0, d)
		power, util := 2.8, 0.91
		if ts.Weekday() == time.Monday {
			power, util = 2.8/1.06, 0.91/1.015 // the paper's 6% / 1.5% gaps
		}
		feedTick(c, ts, power, util, func(r topology.RackID) sensors.Record {
			return flatRecord(ts, r)
		})
	}
	c.Finalize()
	fig := c.Fig5WeekdayProfile()
	if math.Abs(fig.NonMondayPowerGainPct-6) > 0.2 {
		t.Errorf("power gain = %v, want 6", fig.NonMondayPowerGainPct)
	}
	if math.Abs(fig.NonMondayUtilGainPct-1.5) > 0.2 {
		t.Errorf("utilization gain = %v, want 1.5", fig.NonMondayUtilGainPct)
	}
	if math.Abs(fig.NonMondayFlowGainPct) > 1e-9 {
		t.Errorf("flat flow should have zero weekday effect: %v", fig.NonMondayFlowGainPct)
	}
}

func TestFig6SpatialOnSynthetic(t *testing.T) {
	c := NewCollector()
	ts := time.Date(2015, 3, 3, 12, 0, 0, 0, timeutil.Chicago)
	// Rack (0,D) draws 15% more power; rack (0,A) runs busier.
	c.OnTick(ts, units.MW(2.7), 0.9)
	for _, r := range topology.AllRacks() {
		util := 0.88
		if r == topology.BusyRack {
			util = 0.99
		}
		c.OnRackState(ts, r, util)
		rec := flatRecord(ts, r)
		if r == topology.HotRack {
			rec.Power = units.Watts(55 * 1.15 * 1e3)
		}
		c.OnSample(rec)
	}
	c.Finalize()
	fig := c.Fig6RackPowerUtil()
	if fig.MaxPowerRack != topology.HotRack {
		t.Errorf("max power rack = %v", fig.MaxPowerRack)
	}
	if fig.MaxUtilRack != topology.BusyRack {
		t.Errorf("max util rack = %v", fig.MaxUtilRack)
	}
	if math.Abs(fig.PowerSpreadPct-15) > 0.2 {
		t.Errorf("power spread = %v, want 15", fig.PowerSpreadPct)
	}
}

func TestFig10And14OnSyntheticLog(t *testing.T) {
	log := ras.NewLog()
	rack := topology.RackID{Row: 1, Col: 8}
	// Three CMF incidents: 2014, two in 2016.
	times := []time.Time{
		time.Date(2014, 3, 1, 0, 0, 0, 0, timeutil.Chicago),
		time.Date(2016, 7, 1, 0, 0, 0, 0, timeutil.Chicago),
		time.Date(2016, 9, 1, 0, 0, 0, 0, timeutil.Chicago),
	}
	for _, ts := range times {
		log.Append(ras.Event{Time: ts, Rack: rack, Type: ras.CoolantMonitor, Severity: ras.Fatal})
		// Follow-on failures: two fast, one slow.
		log.Append(ras.Event{Time: ts.Add(time.Hour), Rack: topology.RackID{Row: 0, Col: 1}, Type: ras.ACToDCPower, Severity: ras.Fatal})
		log.Append(ras.Event{Time: ts.Add(2 * time.Hour), Rack: topology.RackID{Row: 2, Col: 9}, Type: ras.BQL, Severity: ras.Fatal})
		log.Append(ras.Event{Time: ts.Add(40 * time.Hour), Rack: topology.RackID{Row: 1, Col: 2}, Type: ras.BQC, Severity: ras.Fatal})
	}
	fig10 := Fig10CMFPerYear(log)
	if fig10.Total != 3 {
		t.Errorf("total = %d", fig10.Total)
	}
	if math.Abs(fig10.Share2016-2.0/3.0) > 1e-9 {
		t.Errorf("2016 share = %v", fig10.Share2016)
	}
	if fig10.QuietGapDays < 800 {
		t.Errorf("quiet gap = %v days", fig10.QuietGapDays)
	}

	fig14 := Fig14PostCMF(log)
	if fig14.Incidents != 3 {
		t.Fatalf("incidents = %d", fig14.Incidents)
	}
	// Rates decay: 2 events in 3h → 0.667/h; 3 in 48h → 0.0625/h.
	if math.Abs(fig14.RatePerHour[0]-2.0/3.0) > 1e-9 {
		t.Errorf("rate(3h) = %v", fig14.RatePerHour[0])
	}
	if math.Abs(fig14.Rate48vs3-(3.0/48.0)/(2.0/3.0)) > 1e-9 {
		t.Errorf("rate48v3 = %v", fig14.Rate48vs3)
	}
	if fig14.TypeFraction[ras.ACToDCPower] != 1.0/3.0 {
		t.Errorf("AC-DC fraction = %v", fig14.TypeFraction[ras.ACToDCPower])
	}
}

func TestFig12OnSyntheticWindows(t *testing.T) {
	rack := topology.RackID{Row: 0, Col: 3}
	end := time.Date(2016, 8, 1, 12, 0, 0, 0, timeutil.Chicago)
	step := 30 * time.Minute
	n := 13 // six hours
	recs := make([]sensors.Record, n)
	for i := range recs {
		recs[i] = flatRecord(end.Add(-time.Duration(n-1-i)*step), rack)
	}
	// Inlet dips 7% mid-window and spikes 8% at the end; flow collapses.
	recs[n/2].InletTemp = 64 * 0.93
	recs[n-1].InletTemp = 64 * 1.08
	recs[n-1].Flow = 26 * 0.55
	windows := []sim.Window{{Rack: rack, End: end, Records: recs}}
	incidents := []sim.Incident{{Time: end, Epicenter: rack, Racks: []topology.RackID{rack}}}
	fig := Fig12LeadUp(windows, incidents, step)
	if fig.Windows != 1 {
		t.Fatalf("windows = %d", fig.Windows)
	}
	if math.Abs(fig.InletMaxDipPct-(-7)) > 0.01 {
		t.Errorf("dip = %v", fig.InletMaxDipPct)
	}
	if math.Abs(fig.InletFinalPct-8) > 0.01 {
		t.Errorf("spike = %v", fig.InletFinalPct)
	}
	if math.Abs(fig.FlowFinalPct-(-45)) > 0.01 {
		t.Errorf("flow final = %v", fig.FlowFinalPct)
	}
	// Cascade-only windows (no matching epicenter) are excluded.
	other := []sim.Incident{{Time: end, Epicenter: topology.RackID{Row: 2, Col: 2}}}
	if fig := Fig12LeadUp(windows, other, step); fig.Windows != 0 {
		t.Errorf("non-epicenter windows should be excluded, got %d", fig.Windows)
	}
}

func TestFig15OnSyntheticLog(t *testing.T) {
	log := ras.NewLog()
	epicenter := topology.RackID{Row: 1, Col: 4}
	ts := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	log.Append(ras.Event{Time: ts, Rack: epicenter, Type: ras.CoolantMonitor, Severity: ras.Fatal})
	far := topology.RackID{Row: 0, Col: 15} // distance 1 + 11 = 12
	log.Append(ras.Event{Time: ts.Add(2 * time.Hour), Rack: far, Type: ras.BQL, Severity: ras.Fatal})
	near := epicenter
	log.Append(ras.Event{Time: ts.Add(4 * time.Hour), Rack: near, Type: ras.BQC, Severity: ras.Fatal})
	incidents := []sim.Incident{{Time: ts, Epicenter: epicenter, Racks: []topology.RackID{epicenter}}}
	fig := Fig15PostCMFSpatial(log, incidents)
	if fig.Pairs != 2 {
		t.Fatalf("pairs = %d", fig.Pairs)
	}
	if math.Abs(fig.MeanDistance-6) > 1e-9 { // (12 + 0) / 2
		t.Errorf("mean distance = %v", fig.MeanDistance)
	}
	if fig.SameRackFraction != 0.5 {
		t.Errorf("same-rack fraction = %v", fig.SameRackFraction)
	}
	if fig.RandomExpectedDistance < 5 || fig.RandomExpectedDistance > 8 {
		t.Errorf("random expectation = %v", fig.RandomExpectedDistance)
	}
}

func TestEfficiencyStudy(t *testing.T) {
	c := NewCollector()
	// Feed a flat 2.8 MW IT profile across the year.
	for m := 1; m <= 12; m++ {
		ts := time.Date(2015, time.Month(m), 15, 12, 0, 0, 0, timeutil.Chicago)
		feedTick(c, ts, 2.8, 0.9, func(r topology.RackID) sensors.Record {
			return flatRecord(ts, r)
		})
	}
	c.Finalize()
	eff := c.EfficiencyStudy(3, 2015)
	if len(eff.Month) != 12 {
		t.Fatalf("months = %d", len(eff.Month))
	}
	// Liquid cooling with an economizer: PUE in the efficient range.
	if eff.MeanPUE < 1.10 || eff.MeanPUE > 1.45 {
		t.Errorf("mean PUE = %v, want ≈1.2-1.35", eff.MeanPUE)
	}
	// Free cooling makes winter cheaper than summer.
	if eff.WinterPUE >= eff.SummerPUE {
		t.Errorf("winter PUE %v should beat summer %v", eff.WinterPUE, eff.SummerPUE)
	}
	if eff.EconomizerSavingsKWh <= 0 {
		t.Errorf("economizer savings = %v", eff.EconomizerSavingsKWh)
	}
	// Savings bounded by the design figure (~2.17 GWh/season).
	if eff.EconomizerSavingsKWh > 3e6 {
		t.Errorf("savings implausibly large: %v", eff.EconomizerSavingsKWh)
	}
	if eff.CoolingEnergyKWh <= 0 {
		t.Error("cooling energy should be positive")
	}
}

func TestCollectFromStoreMatchesLive(t *testing.T) {
	// Feed identical telemetry to a live collector and through an envdb
	// store; the coolant/ambient figures must agree.
	live := NewCollector()
	db := &envdb.Store{}
	start := time.Date(2015, 5, 1, 0, 0, 0, 0, timeutil.Chicago)
	for tick := 0; tick < 200; tick++ {
		ts := start.Add(time.Duration(tick) * 5 * time.Minute)
		live.OnTick(ts, units.MW(2.7), 0.9)
		for _, r := range topology.AllRacks() {
			rec := flatRecord(ts, r)
			rec.Flow = units.GPM(25 + float64(r.Index())*0.06)
			rec.DCHumidity = units.RelativeHumidity(28 + float64(r.Index())*0.2)
			live.OnSample(rec)
			if err := db.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	live.Finalize()
	offline := CollectFromStoreCtx(context.Background(), db, CollectOptions{})

	lf, of := live.Fig7RackCoolant(), offline.Fig7RackCoolant()
	if math.Abs(lf.FlowSpreadPct-of.FlowSpreadPct) > 1e-9 {
		t.Errorf("flow spread live %v vs offline %v", lf.FlowSpreadPct, of.FlowSpreadPct)
	}
	for i := range lf.FlowGPM {
		if math.Abs(lf.FlowGPM[i]-of.FlowGPM[i]) > 1e-9 {
			t.Fatalf("rack %d flow live %v vs offline %v", i, lf.FlowGPM[i], of.FlowGPM[i])
		}
	}
	la, oa := live.Fig9RackAmbient(), offline.Fig9RackAmbient()
	if math.Abs(la.HumSpreadPct-oa.HumSpreadPct) > 1e-9 {
		t.Errorf("humidity spread live %v vs offline %v", la.HumSpreadPct, oa.HumSpreadPct)
	}
	// Offline reconstructs system power as the rack sum.
	off3 := offline.Fig3CoolantTimeline()
	if off3.FlowBeforeTheta <= 0 {
		t.Error("offline flow timeline empty")
	}
}
