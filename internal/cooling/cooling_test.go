package cooling

import (
	"math"
	"testing"
	"time"

	"mira/internal/stats"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
	"mira/internal/weather"
)

func midwinter(year int) time.Time {
	return time.Date(year, 1, 20, 3, 0, 0, 0, timeutil.Chicago)
}

func midsummer(year int) time.Time {
	return time.Date(year, 7, 20, 15, 0, 0, 0, timeutil.Chicago)
}

func TestEconomizerSeasonal(t *testing.T) {
	p := NewPlant(weather.New(1), 2)
	// Averaged over many winter nights, the economizer should mostly run.
	var winter float64
	n := 0
	for d := 1; d <= 28; d++ {
		ts := time.Date(2015, 1, d, 4, 0, 0, 0, timeutil.Chicago)
		winter += p.EconomizerFraction(ts)
		n++
	}
	if winter/float64(n) < 0.5 {
		t.Errorf("January economizer fraction = %v, want > 0.5", winter/float64(n))
	}
	// Never in summer (out of season).
	if f := p.EconomizerFraction(midsummer(2015)); f != 0 {
		t.Errorf("July economizer fraction = %v, want 0", f)
	}
	// Out of season even if cold: April nights can be cold but the plant
	// runs chillers.
	if f := p.EconomizerFraction(time.Date(2015, 4, 2, 4, 0, 0, 0, timeutil.Chicago)); f != 0 {
		t.Errorf("April economizer fraction = %v, want 0", f)
	}
}

func TestSupplyTemperature(t *testing.T) {
	p := NewPlant(weather.New(3), 4)
	// Summer: chillers hold the setpoint tightly.
	var sum float64
	n := 0
	for d := 1; d <= 28; d++ {
		sum += float64(p.SupplyTemperature(time.Date(2015, 7, d, 12, 0, 0, 0, timeutil.Chicago)))
		n++
	}
	summerMean := sum / float64(n)
	if math.Abs(summerMean-64) > 0.3 {
		t.Errorf("summer supply mean = %v, want ≈64°F", summerMean)
	}
	// Winter: slightly warmer on free cooling (paper Fig. 4d).
	sum, n = 0, 0
	for d := 1; d <= 28; d++ {
		sum += float64(p.SupplyTemperature(time.Date(2015, 1, d, 4, 0, 0, 0, timeutil.Chicago)))
		n++
	}
	winterMean := sum / float64(n)
	if winterMean <= summerMean+0.2 {
		t.Errorf("winter supply %v should be warmer than summer %v", winterMean, summerMean)
	}
}

func TestThetaHeatBump(t *testing.T) {
	p := NewPlant(weather.New(5), 6)
	// Same calendar position, 2015 (before) vs 2016 (during Theta testing).
	var before, during float64
	for d := 1; d <= 28; d++ {
		before += float64(p.SupplyTemperature(time.Date(2015, 9, d, 12, 0, 0, 0, timeutil.Chicago)))
		during += float64(p.SupplyTemperature(time.Date(2016, 9, d, 12, 0, 0, 0, timeutil.Chicago)))
	}
	diff := (during - before) / 28
	if diff < 1.0 || diff > 2.2 {
		t.Errorf("Theta-period supply bump = %v°F, want ≈1.6", diff)
	}
	// Over by mid-2017.
	var after float64
	for d := 1; d <= 28; d++ {
		after += float64(p.SupplyTemperature(time.Date(2017, 9, d, 12, 0, 0, 0, timeutil.Chicago)))
	}
	if math.Abs(after-before)/28 > 0.3 {
		t.Errorf("post-Theta supply should return to baseline: %v vs %v", after/28, before/28)
	}
}

func TestPlantFlowStep(t *testing.T) {
	before := PlantFlow(time.Date(2016, 5, 1, 0, 0, 0, 0, timeutil.Chicago))
	after := PlantFlow(time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago))
	if float64(before) < 1248 || float64(before) > 1262 {
		t.Errorf("pre-Theta flow = %v, want ≈1250", before)
	}
	if float64(after) < 1298 || float64(after) > 1315 {
		t.Errorf("post-Theta flow = %v, want ≈1300", after)
	}
	if after-before < 45 {
		t.Errorf("Theta step = %v GPM, want ≈50", after-before)
	}
}

func TestPlantFlowSeasonalTrim(t *testing.T) {
	jan := PlantFlow(time.Date(2015, 1, 15, 0, 0, 0, 0, timeutil.Chicago))
	dec := PlantFlow(time.Date(2015, 12, 15, 0, 0, 0, 0, timeutil.Chicago))
	if dec <= jan {
		t.Error("December flow should exceed January flow")
	}
	if float64(dec-jan)/float64(jan) > 0.02 {
		t.Errorf("seasonal trim = %v, want ≈1%%", float64(dec-jan)/float64(jan))
	}
}

func TestFreeCoolingSavings(t *testing.T) {
	daily := FreeCoolingSavingsPerDay()
	// Paper: 17,820 kWh/day.
	if math.Abs(float64(daily)-17820) > 100 {
		t.Errorf("daily savings = %v, want ≈17,820 kWh", daily)
	}
	season := FreeCoolingSavingsPerSeason()
	// Paper: 2,174,040 kWh per December–March.
	if math.Abs(float64(season)-2174040) > 13000 {
		t.Errorf("season savings = %v, want ≈2,174,040 kWh", season)
	}
}

func TestPlantPower(t *testing.T) {
	p := NewPlant(weather.New(7), 8)
	heat := DesignHeatLoad
	summer := p.Power(heat, midsummer(2015))
	// Averaged winter nights should be cheaper than summer.
	var winter units.Watts
	for d := 1; d <= 28; d++ {
		winter += p.Power(heat, time.Date(2015, 1, d, 4, 0, 0, 0, timeutil.Chicago))
	}
	winterMean := winter / 28
	if winterMean >= summer {
		t.Errorf("winter plant power %v should be below summer %v", winterMean, summer)
	}
	// Full chiller mode: compressor + pumps.
	wantSummer := float64(heat)/ChillerCOP + float64(PumpTowerPower)
	if math.Abs(float64(summer)-wantSummer) > 1 {
		t.Errorf("summer plant power = %v, want %v", summer, wantSummer)
	}
	// Negative heat is clamped.
	if p.Power(-5, midsummer(2015)) < PumpTowerPower {
		t.Error("plant power should include pump power even at zero load")
	}
}

func TestChillerCapacityCoversLoad(t *testing.T) {
	total := units.TonsRefrigeration(float64(ChillerCapacityTons) * ChillerCount).Watts()
	if float64(total) < float64(DesignHeatLoad) {
		t.Errorf("chillers (%v) cannot cover design load (%v)", total, DesignHeatLoad)
	}
	// Oversized for economizer headroom (paper: towers are over-sized).
	if float64(total) < 2*float64(DesignHeatLoad) {
		t.Errorf("towers should be generously oversized: %v vs %v", total, DesignHeatLoad)
	}
}

func TestFlowNetworkSpread(t *testing.T) {
	n := NewFlowNetwork(9)
	ts := time.Date(2015, 5, 1, 0, 0, 0, 0, timeutil.Chicago)
	var flows []float64
	var total float64
	for _, r := range topology.AllRacks() {
		f := float64(n.RackFlow(r, ts))
		flows = append(flows, f)
		total += f
	}
	// Per-rack flow ≈26 GPM.
	mean := stats.Mean(flows)
	if mean < 24 || mean > 28 {
		t.Errorf("mean rack flow = %v, want ≈26 GPM", mean)
	}
	// Rack flows sum to the plant flow.
	if math.Abs(total-float64(PlantFlow(ts))) > 0.02*float64(PlantFlow(ts)) {
		t.Errorf("sum of rack flows = %v, plant flow = %v", total, PlantFlow(ts))
	}
	// Spread ≈11% (paper Fig. 7a).
	spread := stats.SpreadPercent(flows)
	if spread < 7 || spread > 15 {
		t.Errorf("rack flow spread = %v%%, want ≈11%%", spread)
	}
}

func TestFlowNetworkWeights(t *testing.T) {
	n := NewFlowNetwork(10)
	for _, r := range topology.AllRacks() {
		w := n.Weight(r)
		if w < 0.94 || w > 1.06 {
			t.Errorf("weight(%v) = %v out of range", r, w)
		}
	}
}

func TestHeatExchanger(t *testing.T) {
	// ≈51 kW into the loop at 26 GPM: ≈13°F rise, 64 → ≈77-79°F.
	out := HeatExchanger(64, units.KW(51), 26)
	if float64(out) < 75 || float64(out) > 80 {
		t.Errorf("HX outlet = %v, want ≈77-79°F", out)
	}
}

func TestDeterministicNetwork(t *testing.T) {
	a, b := NewFlowNetwork(11), NewFlowNetwork(11)
	for _, r := range topology.AllRacks() {
		if a.Weight(r) != b.Weight(r) {
			t.Fatal("network weights should be deterministic")
		}
	}
}

// TestRackFlowAllocations: a tick's 48 RackFlow calls allocate nothing (nor
// did they at the parent of PR 14, where each built two time.Date values for
// the plant flow; the count guards the per-instant memo that replaced them).
func TestRackFlowAllocations(t *testing.T) {
	n := NewFlowNetwork(1)
	now := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < topology.NumRacks; i++ {
			n.RackFlow(topology.RackByIndex(i), now)
		}
		now = now.Add(timeutil.SampleInterval)
	})
	if avg != 0 {
		t.Errorf("a tick of RackFlow calls allocates %v times, want 0", avg)
	}
}

func TestRackFlowFollowsTheInstant(t *testing.T) {
	// The plant flow is remembered per instant, not per network: a later
	// instant, an earlier one and the same one in another zone each get
	// their own instant's plant flow. The reference for call k is a network
	// of the same seed that has only ever been asked about instant k (the
	// noise draws do not depend on the instant, so k-1 calls line its
	// generator up).
	r := topology.RackID{Row: 1, Col: 8}
	instants := []time.Time{
		time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago),
		time.Date(2016, 8, 1, 5, 0, 0, 0, time.UTC), // the same instant
		time.Date(2016, 12, 1, 0, 0, 0, 0, timeutil.Chicago),
		time.Date(2015, 3, 1, 0, 0, 0, 0, timeutil.Chicago),
	}
	n := NewFlowNetwork(3)
	for k, at := range instants {
		ref := NewFlowNetwork(3)
		for i := 0; i < k; i++ {
			ref.RackFlow(r, at)
		}
		if got, want := n.RackFlow(r, at), ref.RackFlow(r, at); got != want {
			t.Errorf("call %d at %v: flow %v, want %v", k, at, got, want)
		}
	}
}
