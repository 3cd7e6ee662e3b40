// Package analysis reproduces every figure of the paper's evaluation from
// simulated telemetry: the yearly, monthly, and day-of-week profiles
// (Figs. 2, 4, 5), the coolant and ambient timelines (Figs. 3, 8), the
// rack-level spatial maps (Figs. 6, 7, 9), the CMF frequency and location
// statistics (Figs. 10, 11), the pre-failure lead-up curves (Fig. 12), and
// the post-CMF failure-rate and type analyses (Figs. 14, 15). The CMF
// predictor itself (Fig. 13) lives in internal/core.
//
// A single streaming Collector gathers every aggregate in one simulation
// pass with bounded memory.
package analysis

import (
	"context"
	"time"

	"mira/internal/sensors"
	"mira/internal/series"
	"mira/internal/sim"
	"mira/internal/topology"
	"mira/internal/units"
)

// Collector is a sim.Recorder that accumulates every figure's aggregates.
type Collector struct {
	sim.NopRecorder

	// ctx carries the replay trace so per-figure aggregations start as
	// children of the analysis.replay span (nil outside an offline replay,
	// in which case figures trace as roots). See Collector.timed in obs.go.
	ctx context.Context

	// System-level profiles. Fig. 4 plots monthly medians, so only the
	// monthly ones keep a reservoir sample.
	powerByYM  *series.Profile
	utilByYM   *series.Profile
	powerByMon *series.MedianProfile
	utilByMon  *series.MedianProfile
	powerByDow *series.Profile
	utilByDow  *series.Profile

	// Per-tick cross-rack aggregates (Fig. 3 plots one system-level line
	// per metric: the plant flow total and the rack-mean temperatures).
	flowTotByYM  *series.Profile
	flowTotOv    series.VarAcc
	curTick      time.Time
	curFlowSum   float64
	curInletSum  float64
	curOutletSum float64
	curFlowCount int

	// Cross-rack coolant/ambient profiles.
	inletByYM   *series.Profile
	outletByYM  *series.Profile
	flowByMon   *series.Profile
	inletByMon  *series.Profile
	outletByMon *series.Profile
	flowByDow   *series.Profile
	inletByDow  *series.Profile
	outletByDow *series.Profile
	tempByYM    *series.Profile
	humByYM     *series.Profile

	// at holds the cross-rack profiles' groups of the instant atNano. They
	// are resolved once per tick, on its first sample (see resolve), and
	// every sample of the tick adds to them directly.
	at     sampleGroups
	atNano int64

	// Overall standard deviations (paper Figs. 3, 8 captions).
	inletOv  series.VarAcc
	outletOv series.VarAcc
	tempOv   series.VarAcc
	humOv    series.VarAcc

	// Per-rack means.
	rackPower  [topology.NumRacks]series.MeanAcc
	rackUtil   [topology.NumRacks]series.MeanAcc
	rackFlow   [topology.NumRacks]series.MeanAcc
	rackInlet  [topology.NumRacks]series.MeanAcc
	rackOutlet [topology.NumRacks]series.MeanAcc
	rackTemp   [topology.NumRacks]series.MeanAcc
	rackHum    [topology.NumRacks]series.MeanAcc

	// Incidents observed.
	incidents []sim.Incident
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		powerByYM:   series.NewProfile(series.ByYearMonth),
		utilByYM:    series.NewProfile(series.ByYearMonth),
		powerByMon:  series.NewMedianProfile(series.ByMonth),
		utilByMon:   series.NewMedianProfile(series.ByMonth),
		powerByDow:  series.NewProfile(series.ByWeekday),
		utilByDow:   series.NewProfile(series.ByWeekday),
		flowTotByYM: series.NewProfile(series.ByYearMonth),
		inletByYM:   series.NewProfile(series.ByYearMonth),
		outletByYM:  series.NewProfile(series.ByYearMonth),
		flowByMon:   series.NewProfile(series.ByMonth),
		inletByMon:  series.NewProfile(series.ByMonth),
		outletByMon: series.NewProfile(series.ByMonth),
		flowByDow:   series.NewProfile(series.ByWeekday),
		inletByDow:  series.NewProfile(series.ByWeekday),
		outletByDow: series.NewProfile(series.ByWeekday),
		tempByYM:    series.NewProfile(series.ByYearMonth),
		humByYM:     series.NewProfile(series.ByYearMonth),
	}
}

// sampleGroups are one instant's groups of the cross-rack profiles.
type sampleGroups struct {
	inletYM, outletYM, tempYM, humYM *series.RunningMean
	flowMon, inletMon, outletMon     *series.RunningMean
	flowDow, inletDow, outletDow     *series.RunningMean
}

// OnTick records system power and utilization and flushes the previous
// tick's plant-flow total (OnTick always precedes the tick's samples).
func (c *Collector) OnTick(t time.Time, p units.Watts, util float64) {
	c.beginTick(t)
	c.addSystem(t, p, util)
}

// beginTick flushes the previous tick's plant-flow total; the samples of
// the tick at t follow.
func (c *Collector) beginTick(t time.Time) {
	c.flushFlow()
	c.curTick = t
}

// addSystem records the system power and utilization of the tick at t.
func (c *Collector) addSystem(t time.Time, p units.Watts, util float64) {
	mw := p.Megawatts()
	c.powerByYM.Add(t, mw)
	c.powerByMon.Add(t, mw)
	c.powerByDow.Add(t, mw)
	pct := util * 100
	c.utilByYM.Add(t, pct)
	c.utilByMon.Add(t, pct)
	c.utilByDow.Add(t, pct)
}

func (c *Collector) flushFlow() {
	if c.curFlowCount > 0 {
		n := float64(c.curFlowCount)
		c.flowTotByYM.Add(c.curTick, c.curFlowSum)
		c.flowTotOv.Add(c.curFlowSum)
		c.inletOv.Add(c.curInletSum / n)
		c.outletOv.Add(c.curOutletSum / n)
		c.curFlowSum, c.curInletSum, c.curOutletSum, c.curFlowCount = 0, 0, 0, 0
	}
}

// resolve points c.at at the groups of instant t. Grouping is keyed on
// unix nanoseconds, not on time.Time ==, which also compares location:
// the same instant in UTC and in Chicago is one tick.
func (c *Collector) resolve(t time.Time) {
	if n := t.UnixNano(); c.at.inletYM == nil || n != c.atNano {
		c.atNano = n
		c.at = sampleGroups{
			inletYM: c.inletByYM.At(t), outletYM: c.outletByYM.At(t),
			tempYM: c.tempByYM.At(t), humYM: c.humByYM.At(t),
			flowMon: c.flowByMon.At(t), inletMon: c.inletByMon.At(t), outletMon: c.outletByMon.At(t),
			flowDow: c.flowByDow.At(t), inletDow: c.inletByDow.At(t), outletDow: c.outletByDow.At(t),
		}
	}
}

// OnSample accumulates the coolant and ambient aggregates.
func (c *Collector) OnSample(r sensors.Record) {
	c.resolve(r.Time)
	c.sample(r.Rack.Index(), float64(r.Power), float64(r.Flow), float64(r.InletTemp),
		float64(r.OutletTemp), float64(r.DCTemperature), float64(r.DCHumidity))
}

// sample accumulates rack i's sample at the instant last resolved. It is
// the one per-sample body: the live OnSample and the store replay both
// call it.
func (c *Collector) sample(i int, power, flow, inlet, outlet, temp, hum float64) {
	c.curFlowSum += flow
	c.curInletSum += inlet
	c.curOutletSum += outlet
	c.curFlowCount++

	g := &c.at
	g.inletYM.Add(inlet)
	g.outletYM.Add(outlet)
	g.flowMon.Add(flow)
	g.inletMon.Add(inlet)
	g.outletMon.Add(outlet)
	g.flowDow.Add(flow)
	g.inletDow.Add(inlet)
	g.outletDow.Add(outlet)
	g.tempYM.Add(temp)
	g.humYM.Add(hum)

	c.tempOv.Add(temp)
	c.humOv.Add(hum)

	c.rackPower[i].Add(power)
	c.rackFlow[i].Add(flow)
	c.rackInlet[i].Add(inlet)
	c.rackOutlet[i].Add(outlet)
	c.rackTemp[i].Add(temp)
	c.rackHum[i].Add(hum)
}

// OnRackState accumulates per-rack utilization.
func (c *Collector) OnRackState(_ time.Time, rack topology.RackID, util float64) {
	c.rackUtil[rack.Index()].Add(util * 100)
}

// OnIncident remembers the incident list.
func (c *Collector) OnIncident(inc sim.Incident) { c.incidents = append(c.incidents, inc) }

// Finalize flushes trailing per-tick accumulations. Call once after the run.
func (c *Collector) Finalize() { c.flushFlow() }

// Incidents returns the observed CMF incidents.
func (c *Collector) Incidents() []sim.Incident { return c.incidents }

// rackMeans extracts a per-rack mean vector.
func rackMeans(accs *[topology.NumRacks]series.MeanAcc) []float64 {
	out := make([]float64, topology.NumRacks)
	for i := range accs {
		out[i] = accs[i].Mean()
	}
	return out
}
