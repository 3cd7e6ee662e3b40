// Package sim orchestrates the Mira digital twin: it steps the scheduler,
// power, weather, cooling-plant, airflow, sensor, and failure models over
// the 2014–2019 production window at coolant-monitor granularity, streams
// the measured telemetry to pluggable recorders, detects coolant monitor
// failures from the sensed thresholds (not from the failure schedule), and
// expands them into cascades, RAS storms, outages, and post-CMF follow-on
// failures.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"mira/internal/airflow"
	"mira/internal/cooling"
	"mira/internal/failure"
	"mira/internal/obs"
	"mira/internal/power"
	"mira/internal/ras"
	"mira/internal/scheduler"
	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
	"mira/internal/weather"
	"mira/internal/workload"
)

// Simulator throughput metrics. Ticks/sec is the rate of
// mira_sim_ticks_total; mira_sim_day_wallclock_seconds tracks how much wall
// clock one simulated day costs, the twin's headline speed number; the
// recorder fan-out histogram isolates time spent delivering telemetry to
// recorders (tsdb ingest, collectors, watchers) from the physics itself.
var (
	metTicks = obs.NewCounter("mira_sim_ticks_total",
		"simulation ticks stepped across all runs in the process")
	metSamples = obs.NewCounter("mira_sim_samples_total",
		"coolant-monitor samples emitted to recorders")
	metIncidents = obs.NewCounter("mira_sim_incidents_total",
		"counted coolant-monitor-failure incidents")
	metTickDur = obs.NewHistogram("mira_sim_tick_duration_seconds",
		"wall-clock time per simulation tick", nil)
	metDayWall = obs.NewHistogram("mira_sim_day_wallclock_seconds",
		"wall-clock time per completed simulated day", nil)
	metFanout = obs.NewHistogram("mira_sim_recorder_fanout_seconds",
		"per-tick wall-clock time spent in recorder callbacks", nil)
	metSimTime = obs.NewGauge("mira_sim_time_seconds",
		"current simulated instant as unix seconds, for watch-mode progress")
)

// Incident is one counted coolant-monitor failure: an epicenter detected by
// its coolant monitor plus the cascade it dragged down.
type Incident struct {
	Time       time.Time
	Epicenter  topology.RackID
	Racks      []topology.RackID
	JobsKilled int
}

// Recorder consumes the simulation's output streams. Implementations that
// only care about a subset of callbacks can embed NopRecorder.
//
// A tick is delivered once its physics is done, in this order: OnTick; then
// per rack, in index order, OnRackState and — unless the rack is down —
// OnSample; then OnIncident for each incident the tick detected. With
// several recorders attached each callback reaches them in AddRecorder
// order before the next one is made. Callbacks run between two ticks, so
// they must not mutate state the delivering tick still reads; what they set
// takes effect with the next tick (core.AvoidController flags racks on the
// scheduler, which the next Step reads).
type Recorder interface {
	// OnSample receives each rack's measured coolant-monitor record, once
	// per rack per tick (racks that are down do not report).
	OnSample(rec sensors.Record)
	// OnTick receives system-level values once per tick.
	OnTick(t time.Time, systemPower units.Watts, utilization float64)
	// OnIncident receives each counted CMF incident.
	OnIncident(inc Incident)
	// OnRackState receives each rack's utilization once per rack per tick
	// (including down racks, at zero).
	OnRackState(t time.Time, rack topology.RackID, utilization float64)
}

// NopRecorder implements Recorder with no-ops, for embedding.
type NopRecorder struct{}

func (NopRecorder) OnSample(sensors.Record)                         {}
func (NopRecorder) OnTick(time.Time, units.Watts, float64)          {}
func (NopRecorder) OnIncident(Incident)                             {}
func (NopRecorder) OnRackState(time.Time, topology.RackID, float64) {}

// Config assembles a simulation.
type Config struct {
	// Seed derives every model's seed; two runs with the same seed are
	// identical.
	Seed int64
	// Start and End bound the run (defaults: the production window).
	Start, End time.Time
	// Step is the tick length (default timeutil.SampleInterval = 300 s).
	Step time.Duration
	// WeatherSeed overrides the outdoor-weather model's seed (default
	// Seed+5), so a campaign can sweep weather years independently of the
	// workload/failure draw.
	WeatherSeed int64
	// Scheduler, Failure override model parameters when non-zero.
	Scheduler scheduler.Config
	Failure   failure.Config
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = timeutil.ProductionStart
	}
	if c.End.IsZero() {
		c.End = timeutil.ProductionEnd
	}
	if c.Step <= 0 {
		c.Step = timeutil.SampleInterval
	}
	if c.Scheduler.Seed == 0 {
		c.Scheduler.Seed = c.Seed + 1
	}
	if c.Failure.Seed == 0 {
		c.Failure.Seed = c.Seed + 2
	}
	if c.WeatherSeed == 0 {
		c.WeatherSeed = c.Seed + 5
	}
	return c
}

// Simulator wires the substrate models together.
type Simulator struct {
	cfg Config

	gen    *workload.Generator
	sched  *scheduler.Scheduler
	powerM *power.Model
	wx     *weather.Model
	plant  *cooling.Plant
	flows  *cooling.FlowNetwork
	air    *airflow.Field
	engine *failure.Engine
	log    *ras.Log
	thresh sensors.Thresholds

	monitors  [topology.NumRacks]*sensors.Monitor
	inletBias [topology.NumRacks]float64

	lastCMF [topology.NumRacks]time.Time
	pending []ras.Event // future non-CMF events, time-sorted

	// heatEMA smooths each rack's heat load into the coolant: the rack's
	// thermal mass and loop recirculation act as a low-pass filter, so the
	// outlet temperature does not chase every scheduling transient.
	// heatAlpha is the filter's per-tick weight (time constant ≈ 3 h).
	heatEMA     [topology.NumRacks]float64
	heatEMAInit [topology.NumRacks]bool
	heatAlpha   float64

	// tick is what the current tick has measured, rack by rack, waiting to
	// be delivered to the recorders.
	tick [topology.NumRacks]rackTick

	// excursions are the rare room-cooling upsets (power outages, air-
	// handler failures, extreme weather) during which the data-center
	// temperature escapes its regulated band (paper §V).
	excursions []excursion

	recorders []Recorder
	incidents []Incident
}

// New builds a simulator.
func New(cfg Config) *Simulator {
	cfg = cfg.withDefaults()
	s := &Simulator{
		cfg:    cfg,
		gen:    workload.NewGenerator(cfg.Seed + 3),
		sched:  scheduler.New(cfg.Scheduler),
		powerM: power.NewModel(cfg.Seed + 4),
		wx:     weather.New(cfg.WeatherSeed),
		log:    ras.NewLog(),
		thresh: sensors.DefaultThresholds(),

		heatAlpha: math.Min(cfg.Step.Hours()/3.0, 1),
	}
	s.plant = cooling.NewPlant(s.wx, cfg.Seed+6)
	s.flows = cooling.NewFlowNetwork(cfg.Seed + 7)
	s.air = airflow.NewField(cfg.Seed + 8)
	s.engine = failure.NewEngine(cfg.Failure)
	for i := range s.monitors {
		s.monitors[i] = sensors.NewMonitor(topology.RackByIndex(i), cfg.Seed+9)
	}
	// The one replaced sensor of the six years: a slowly drifting outlet
	// sensor on rack (2,B), swapped in mid-2017.
	s.monitors[topology.RackID{Row: 2, Col: 0xB}.Index()].InjectDrift(
		sensors.MetricOutletTemp, 0.002,
		time.Date(2016, 9, 1, 0, 0, 0, 0, timeutil.Chicago),
		time.Date(2017, 7, 1, 0, 0, 0, 0, timeutil.Chicago),
	)
	// Small static inlet offsets from pipe-run length differences.
	net := cooling.NewFlowNetwork(cfg.Seed + 10) // reuse as a cheap seeded field
	for i := range s.inletBias {
		s.inletBias[i] = (net.Weight(topology.RackByIndex(i)) - 1) * 3 // ±0.17°F
	}
	// Background non-CMF failures for the whole run.
	s.pending = s.engine.BackgroundEvents(cfg.Start, cfg.End)
	sort.Slice(s.pending, func(a, b int) bool { return s.pending[a].Time.Before(s.pending[b].Time) })
	s.scheduleExcursions(cfg)
	return s
}

// rackTick is one rack's share of a tick: its utilization, and the measured
// record if the rack reported.
type rackTick struct {
	util     float64
	reported bool
	rec      sensors.Record
}

// excursion is one room-cooling upset window.
type excursion struct {
	start, end time.Time
	peak       float64 // °F above the regulated band
}

// scheduleExcursions samples ≈4 upsets per year, 4–24 h long, +4–10 °F.
func (s *Simulator) scheduleExcursions(cfg Config) {
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	days := cfg.End.Sub(cfg.Start).Hours() / 24
	n := int(days/365.25*4 + 0.5)
	for i := 0; i < n; i++ {
		start := cfg.Start.Add(time.Duration(rng.Int63n(int64(cfg.End.Sub(cfg.Start)))))
		dur := 4*time.Hour + time.Duration(rng.Int63n(int64(20*time.Hour)))
		s.excursions = append(s.excursions, excursion{
			start: start,
			end:   start.Add(dur),
			peak:  4 + 6*rng.Float64(),
		})
	}
	sort.Slice(s.excursions, func(a, b int) bool { return s.excursions[a].start.Before(s.excursions[b].start) })
}

// excursionDelta returns the room-temperature offset at now: a ramp up to
// the upset's peak and back down.
func (s *Simulator) excursionDelta(now time.Time) float64 {
	for _, e := range s.excursions {
		if now.Before(e.start) {
			break
		}
		if now.Before(e.end) {
			// Triangular profile over the window.
			total := e.end.Sub(e.start).Hours()
			into := now.Sub(e.start).Hours()
			frac := into / total
			if frac > 0.5 {
				frac = 1 - frac
			}
			return e.peak * 2 * frac
		}
	}
	return 0
}

// Log returns the RAS log (live; grows as the simulation runs).
func (s *Simulator) Log() *ras.Log { return s.log }

// Incidents returns the counted CMF incidents so far.
func (s *Simulator) Incidents() []Incident { return s.incidents }

// Scheduler exposes the scheduler for inspection.
func (s *Simulator) Scheduler() *scheduler.Scheduler { return s.sched }

// Engine exposes the failure engine for inspection.
func (s *Simulator) Engine() *failure.Engine { return s.engine }

// AddRecorder attaches a recorder before Run.
func (s *Simulator) AddRecorder(r Recorder) { s.recorders = append(s.recorders, r) }

// Run executes the configured window. It returns an error only for
// impossible configurations; model behavior (failures, storms) is data, not
// error.
func (s *Simulator) Run() error {
	if !s.cfg.End.After(s.cfg.Start) {
		return fmt.Errorf("sim: empty window %v .. %v", s.cfg.Start, s.cfg.End)
	}
	// Day accounting: observe the wall clock each completed simulated day
	// costs, keyed on the simulated calendar day rolling over.
	curDay := int64(-1)
	dayWall := time.Now()
	for now := s.cfg.Start; now.Before(s.cfg.End); now = now.Add(s.cfg.Step) {
		tickWall := time.Now()
		s.step(now)
		metTickDur.ObserveSince(tickWall)
		metTicks.Inc()
		metSimTime.Set(float64(now.Unix()))
		if day := now.Unix() / 86400; day != curDay {
			if curDay >= 0 {
				metDayWall.ObserveSince(dayWall)
			}
			curDay = day
			dayWall = time.Now()
		}
	}
	return nil
}

// step advances one tick: the models first, then the tick's output to the
// recorders (see Recorder for the order).
func (s *Simulator) step(now time.Time) {
	// 1. Workload and scheduling.
	s.sched.Submit(s.gen.Arrivals(now, s.cfg.Step))
	s.sched.Step(now)
	snap := s.sched.Snapshot(now)

	// 2. Non-CMF failures that have come due.
	s.applyPending(now)

	// 3. System-level power and utilization.
	sysPower := s.powerM.SystemPower(snap[:], now)
	util := s.sched.SystemUtilization(now)

	// 4. Ambient base conditions from the outdoor weather.
	outdoor := s.wx.At(now)
	baseTemp := units.Fahrenheit(79.5 + 0.09*(float64(outdoor.Temperature)-51) + s.excursionDelta(now))
	baseRH := units.RelativeHumidity(32 + 0.24*(float64(outdoor.Humidity)-68)).Clamp()

	// 5. Plant supply.
	supply := s.plant.SupplyTemperature(now)

	// 6. Per-rack telemetry, sampling, and threshold checks.
	var fatalEpicenters []topology.RackID
	samples := 0
	for i := range s.tick {
		rack := topology.RackByIndex(i)
		rt := &s.tick[i]
		rt.util = s.sched.RackUtilization(rack, now)
		rt.reported = !s.sched.RackDown(rack, now)
		if !rt.reported {
			continue // powered-off racks do not report
		}
		flow := s.flows.RackFlow(rack, now)
		inlet := supply + units.Fahrenheit(s.inletBias[i])
		dcTemp := s.air.RackTemperature(baseTemp, rack)
		dcRH := s.air.RackHumidity(baseRH, rack)

		if ep := s.engine.ActiveEpisode(rack, now); ep != nil {
			inlet *= units.Fahrenheit(1 + ep.InletDeltaFraction(now))
			dcRH = (dcRH + units.RelativeHumidity(ep.HumidityDelta(now))).Clamp()
			if ep.Epicenter == rack {
				flow = units.GPM(float64(flow) * ep.FlowFactor(now))
			}
		}

		rackPower := s.powerM.RackPower(rack, snap[i*topology.MidplanesPerRack:(i+1)*topology.MidplanesPerRack], now)
		heat := float64(power.RackHeatToCoolant(rackPower))
		if !s.heatEMAInit[i] {
			s.heatEMA[i] = heat
			s.heatEMAInit[i] = true
		} else {
			s.heatEMA[i] += s.heatAlpha * (heat - s.heatEMA[i])
		}
		outlet := cooling.HeatExchanger(inlet, units.Watts(s.heatEMA[i]), flow)

		truth := sensors.Record{
			Time: now, Rack: rack,
			DCTemperature: dcTemp, DCHumidity: dcRH,
			Flow: flow, InletTemp: inlet, OutletTemp: outlet,
			Power: rackPower,
		}
		rt.rec = s.monitors[i].Sample(truth)
		samples++

		alarms := s.thresh.Check(rt.rec)
		for _, a := range alarms {
			if a.Severity == sensors.Warn {
				s.log.Append(ras.Event{Time: now, Rack: rack, Type: ras.CoolantMonitor, Severity: ras.Warn, Message: a.Reason})
			}
		}
		if sensors.HasFatal(alarms) && now.Sub(s.lastCMF[i]) > ras.CMFWindow {
			fatalEpicenters = append(fatalEpicenters, rack)
		}
	}
	metSamples.Add(uint64(samples))

	// 7. Expand detected failures into incidents.
	detected := len(s.incidents)
	for _, epicenter := range fatalEpicenters {
		s.triggerCMF(epicenter, now)
	}

	// 8. Deliver the tick. The histogram times the whole block, so what it
	// isolates from the physics is every recorder callback of the tick.
	fanout := time.Now()
	for _, r := range s.recorders {
		r.OnTick(now, sysPower, util)
	}
	for i := range s.tick {
		rt := &s.tick[i]
		rack := topology.RackByIndex(i)
		for _, r := range s.recorders {
			r.OnRackState(now, rack, rt.util)
		}
		if !rt.reported {
			continue
		}
		for _, r := range s.recorders {
			r.OnSample(rt.rec)
		}
	}
	for _, inc := range s.incidents[detected:] {
		for _, r := range s.recorders {
			r.OnIncident(inc)
		}
	}
	metFanout.ObserveSince(fanout)
}

// triggerCMF handles a fatal coolant-monitor detection: cascade, storms,
// outages, job kills, and the post-CMF failure stream.
func (s *Simulator) triggerCMF(epicenter topology.RackID, now time.Time) {
	var racks []topology.RackID
	if ep := s.engine.ActiveEpisode(epicenter, now); ep != nil && ep.Epicenter == epicenter {
		racks = ep.Racks
	} else {
		// A threshold trip without a scheduled episode (e.g. sensor noise
		// during an extreme excursion): the epicenter alone goes down.
		racks = []topology.RackID{epicenter}
	}

	inc := Incident{Time: now, Epicenter: epicenter, Racks: racks}
	killed := 0
	for _, rack := range racks {
		// The Blue Gene/Q control action: close the solenoid valve, cut
		// the power supply; the rack takes hours to come back.
		outage := s.engine.OutageDuration()
		killed += s.sched.FailRacks([]topology.RackID{rack}, now.Add(outage))
		s.lastCMF[rack.Index()] = now
		for _, ev := range s.engine.Storm(rack, now) {
			s.log.Append(ev)
		}
	}
	inc.JobsKilled = killed
	s.incidents = append(s.incidents, inc)
	metIncidents.Inc()

	// Follow-on non-CMF failures over the next 48 hours.
	s.pending = append(s.pending, s.engine.PostCMFEvents(now)...)
	sort.Slice(s.pending, func(a, b int) bool { return s.pending[a].Time.Before(s.pending[b].Time) })
}

// applyPending logs non-CMF failures that have come due and takes their
// racks down for about an hour.
func (s *Simulator) applyPending(now time.Time) {
	for len(s.pending) > 0 && !s.pending[0].Time.After(now) {
		ev := s.pending[0]
		s.pending = s.pending[1:]
		s.log.Append(ev)
		s.sched.FailRacks([]topology.RackID{ev.Rack}, ev.Time.Add(time.Hour))
	}
}
