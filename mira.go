// Package mira is the public API of the Mira liquid-cooling digital twin:
// a mechanistic simulator of the Mira (IBM Blue Gene/Q) supercomputer, its
// Chilled Water Plant, workload, power, ambient environment, and
// coolant-monitor failure behavior, together with the analyses and the
// CMF-prediction pipeline from "Operating Liquid-Cooled Large-Scale
// Systems: Long-Term Monitoring, Reliability Analysis, and Efficiency
// Measures" (HPCA 2021).
//
// The typical workflow is:
//
//	study, err := mira.RunStudy(mira.StudyConfig{Seed: 42})
//	if err != nil { ... }
//	fig2 := study.Fig2YearlyTrend()   // power/utilization trends
//	fig10 := study.Fig10CMFPerYear()  // failure counts
//	points, err := study.Fig13Predictor(mira.PredictorConfig{Seed: 1})
//
// Every figure of the paper's evaluation has a corresponding method, and
// the underlying simulator, telemetry recorders, and predictor pipeline are
// exposed for custom studies.
package mira

import (
	"errors"
	"fmt"
	"time"

	"mira/internal/analysis"
	"mira/internal/cooling"
	"mira/internal/core"
	"mira/internal/envdb"
	"mira/internal/mitigation"
	"mira/internal/ras"
	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/timeutil"
	"mira/internal/tsdb"
)

// NewTSDB creates a compressed, concurrent telemetry database with default
// options (30-day partitions, CSV-schema precision, no downsampling).
func NewTSDB() *TSDB { return tsdb.NewStore() }

// Re-exported core types. The aliases make the full simulator and analysis
// surface usable through this package alone.
type (
	// SimConfig configures a raw simulation run.
	SimConfig = sim.Config
	// Simulator is the digital twin.
	Simulator = sim.Simulator
	// Recorder consumes simulation output streams.
	Recorder = sim.Recorder
	// Incident is one counted coolant-monitor failure with its cascade.
	Incident = sim.Incident
	// Window is a trailing slice of one rack's telemetry.
	Window = sim.Window
	// Record is one coolant-monitor sample.
	Record = sensors.Record
	// RASLog is the reliability/availability/serviceability event log.
	RASLog = ras.Log
	// TelemetryStore is the environmental-database surface: both EnvDB and
	// TSDB satisfy it.
	TelemetryStore = envdb.DB
	// EnvDB is the plain slice-backed environmental telemetry database
	// (single goroutine, uncompressed).
	EnvDB = envdb.Store
	// TSDB is the sharded, compressed, concurrent telemetry engine; a full
	// 2014–2019 run fits in memory without lossy downsampling.
	TSDB = tsdb.Store

	// YearlyTrend is Fig. 2. CoolantTimeline is Fig. 3, and so on: one
	// result struct per figure of the paper.
	YearlyTrend     = analysis.YearlyTrend
	CoolantTimeline = analysis.CoolantTimeline
	MonthlyProfile  = analysis.MonthlyProfile
	WeekdayProfile  = analysis.WeekdayProfile
	RackPowerUtil   = analysis.RackPowerUtil
	RackCoolant     = analysis.RackCoolant
	AmbientTimeline = analysis.AmbientTimeline
	RackAmbient     = analysis.RackAmbient
	CMFPerYear      = analysis.CMFPerYear
	Efficiency      = analysis.Efficiency
	CMFPerRack      = analysis.CMFPerRack
	LeadUp          = analysis.LeadUp
	PostCMF         = analysis.PostCMF
	PostCMFSpatial  = analysis.PostCMFSpatial

	// PredictorConfig configures the CMF predictor (Fig. 13).
	PredictorConfig = core.Config
	// LocationReport scores the system-level location predictor.
	LocationReport = core.LocationReport
	// MitigationConfig configures a proactive-mitigation study.
	MitigationConfig = mitigation.Config
	// AvoidController is the online CMF-aware scheduling controller.
	AvoidController = core.AvoidController
	// MitigationReport quantifies prediction-driven checkpointing.
	MitigationReport = mitigation.Report
	// Predictor is a trained CMF classifier.
	Predictor = core.Predictor
	// LeadPoint is one Fig. 13 evaluation point.
	LeadPoint = core.LeadPoint
	// PredictorDataset is a labeled feature matrix.
	PredictorDataset = core.Dataset
)

// errNoLocationFrames reports a location evaluation without frames.
var errNoLocationFrames = errors.New("mira: set StudyConfig.LocationFrameEvery to capture location frames")

// NewSimulator builds a raw simulator for custom studies.
func NewSimulator(cfg SimConfig) *Simulator { return sim.New(cfg) }

// AttachAvoidController wires a trained predictor to a simulator's scheduler
// as an online CMF-aware scheduling controller and attaches it before Run:
// it steers the scheduler, so it runs between ticks (AddController), never
// on the AddRecorder delivery goroutine.
//
//	s := mira.NewSimulator(mira.SimConfig{Seed: 1})
//	c := mira.AttachAvoidController(s, predictor, step)
func AttachAvoidController(s *Simulator, p *Predictor, step time.Duration) *AvoidController {
	c := core.NewAvoidController(p, s.Scheduler(), step)
	s.AddController(c)
	return c
}

// Production window constants.
var (
	// ProductionStart is 2014-01-01 (local Chicago time).
	ProductionStart = timeutil.ProductionStart
	// ProductionEnd is 2020-01-01 (exclusive).
	ProductionEnd = timeutil.ProductionEnd
)

// SampleInterval is the coolant-monitor cadence (300 s).
const SampleInterval = timeutil.SampleInterval

// StudyConfig configures RunStudy.
type StudyConfig struct {
	// Seed makes the whole study reproducible.
	Seed int64
	// Start and End bound the simulated window (defaults: the full
	// 2014–2019 production window).
	Start, End time.Time
	// Step is the simulation tick (default 300 s; coarser steps run
	// proportionally faster at slightly reduced fidelity).
	Step time.Duration
	// TelemetryDB, when non-nil, receives every coolant-monitor sample.
	// Use &mira.EnvDB{} for the plain slice store or mira.NewTSDB() for
	// the compressed engine that holds full-rate multi-year runs.
	TelemetryDB TelemetryStore
	// LocationFrameEvery, when positive, captures machine-wide feature
	// frames at this cadence for the system-level location predictor.
	// Frames cost ≈48×6 floats each; keep the cadence coarse (≥1 h) or the
	// window short on six-year runs.
	LocationFrameEvery time.Duration
}

// Study is a completed simulation with every analysis attached.
type Study struct {
	cfg       StudyConfig
	simulator *Simulator
	collector *analysis.Collector
	windows   *sim.IncidentWindowRecorder
	location  *core.LocationRecorder
}

// RunStudy simulates the configured window and returns the attached
// analyses. If the TelemetryDB rejects an append, the study fails with the
// first such error rather than returning with telemetry missing.
func RunStudy(cfg StudyConfig) (*Study, error) {
	if cfg.Step <= 0 {
		cfg.Step = SampleInterval
	}
	st := &Study{cfg: cfg, collector: analysis.NewCollector()}
	st.simulator = sim.New(sim.Config{Seed: cfg.Seed, Start: cfg.Start, End: cfg.End, Step: cfg.Step})
	st.simulator.AddRecorder(st.collector)
	windowTicks := int((core.FeatureSpan+6*time.Hour)/cfg.Step) + 1
	st.windows = sim.NewIncidentWindowRecorder(windowTicks, 250, 4000)
	st.simulator.AddRecorder(st.windows)
	if cfg.LocationFrameEvery > 0 {
		every := int(cfg.LocationFrameEvery / cfg.Step)
		if every < 1 {
			every = 1
		}
		st.location = core.NewLocationRecorder(cfg.Step, every)
		st.simulator.AddRecorder(st.location)
	}
	var telemetry *sim.EnvDBRecorder
	if cfg.TelemetryDB != nil {
		telemetry = sim.NewEnvDBRecorder(cfg.TelemetryDB)
		st.simulator.AddRecorder(telemetry)
	}
	if err := st.simulator.Run(); err != nil {
		return nil, err
	}
	if telemetry != nil && telemetry.Err != nil {
		return nil, fmt.Errorf("mira: telemetry store: %w", telemetry.Err)
	}
	st.collector.Finalize()
	return st, nil
}

// Simulator returns the underlying simulator (log, incidents, scheduler).
func (s *Study) Simulator() *Simulator { return s.simulator }

// Log returns the RAS event log of the run.
func (s *Study) Log() *RASLog { return s.simulator.Log() }

// Incidents returns the counted CMF incidents.
func (s *Study) Incidents() []Incident { return s.simulator.Incidents() }

// PositiveWindows returns the captured pre-CMF telemetry windows.
func (s *Study) PositiveWindows() []Window { return s.windows.Positives() }

// NegativeWindows returns quiet telemetry windows with no CMF within six
// hours of their end.
func (s *Study) NegativeWindows() []Window { return s.windows.Negatives(core.FeatureSpan) }

// Step returns the tick length the study ran at.
func (s *Study) Step() time.Duration { return s.cfg.Step }

// Figure analyses; each reproduces the corresponding paper figure.

// Fig2YearlyTrend is the multi-year power/utilization trend with linear fits.
func (s *Study) Fig2YearlyTrend() YearlyTrend { return s.collector.Fig2YearlyTrend() }

// Fig3CoolantTimeline is the plant flow and coolant temperature timeline.
func (s *Study) Fig3CoolantTimeline() CoolantTimeline { return s.collector.Fig3CoolantTimeline() }

// Fig4MonthlyProfile is the month-of-year profile.
func (s *Study) Fig4MonthlyProfile() MonthlyProfile { return s.collector.Fig4MonthlyProfile() }

// Fig5WeekdayProfile is the day-of-week profile.
func (s *Study) Fig5WeekdayProfile() WeekdayProfile { return s.collector.Fig5WeekdayProfile() }

// Fig6RackPowerUtil is the rack-level power/utilization map.
func (s *Study) Fig6RackPowerUtil() RackPowerUtil { return s.collector.Fig6RackPowerUtil() }

// Fig7RackCoolant is the rack-level coolant map.
func (s *Study) Fig7RackCoolant() RackCoolant { return s.collector.Fig7RackCoolant() }

// Fig8AmbientTimeline is the DC temperature/humidity timeline.
func (s *Study) Fig8AmbientTimeline() AmbientTimeline { return s.collector.Fig8AmbientTimeline() }

// Fig9RackAmbient is the rack-level ambient map.
func (s *Study) Fig9RackAmbient() RackAmbient { return s.collector.Fig9RackAmbient() }

// Fig10CMFPerYear is the yearly CMF count (paper: 361 total, 40% in 2016).
func (s *Study) Fig10CMFPerYear() CMFPerYear { return analysis.Fig10CMFPerYear(s.Log()) }

// Fig11CMFPerRack is the per-rack CMF count and its (lack of) correlations.
func (s *Study) Fig11CMFPerRack() CMFPerRack {
	return analysis.Fig11CMFPerRack(s.Log(), s.collector)
}

// Fig12LeadUp is the pre-failure telemetry signature.
func (s *Study) Fig12LeadUp() LeadUp {
	return analysis.Fig12LeadUp(s.PositiveWindows(), s.Incidents(), s.cfg.Step)
}

// Fig13Predictor trains and cross-validates the CMF predictor across lead
// times from six hours to 30 minutes.
func (s *Study) Fig13Predictor(cfg PredictorConfig) ([]LeadPoint, error) {
	return core.LeadTimeSweep(s.PositiveWindows(), s.NegativeWindows(), s.cfg.Step,
		core.DefaultLeads(), cfg, core.DeltaFeatures)
}

// Fig14PostCMF is the post-CMF failure-rate decay and type mix.
func (s *Study) Fig14PostCMF() PostCMF { return analysis.Fig14PostCMF(s.Log()) }

// Fig15PostCMFSpatial is the spatial distribution of follow-on failures.
func (s *Study) Fig15PostCMFSpatial() PostCMFSpatial {
	return analysis.Fig15PostCMFSpatial(s.Log(), s.Incidents())
}

// EfficiencyStudy computes the facility's monthly PUE and economizer
// savings for a reference year (the paper's "Efficiency Measures").
func (s *Study) EfficiencyStudy(year int) Efficiency {
	return s.collector.EfficiencyStudy(s.cfg.Seed+5, year)
}

// TrainPredictor builds a balanced dataset at the given lead time and
// trains a CMF predictor on it.
func (s *Study) TrainPredictor(lead time.Duration, cfg PredictorConfig) (*Predictor, error) {
	ds, err := core.BuildDataset(s.PositiveWindows(), s.NegativeWindows(), s.cfg.Step, lead, core.DeltaFeatures, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return core.Train(ds, cfg)
}

// BuildPredictorDataset exposes the dataset builder for custom evaluation.
func (s *Study) BuildPredictorDataset(lead time.Duration, seed int64) (PredictorDataset, error) {
	return core.BuildDataset(s.PositiveWindows(), s.NegativeWindows(), s.cfg.Step, lead, core.DeltaFeatures, seed)
}

// EvaluateMitigation replays every incident through the predictor and
// prices the compute lost under no / periodic / prediction-triggered
// checkpointing (the paper's §VI-B opportunity). The config's Predictor and
// Step are filled in when zero.
func (s *Study) EvaluateMitigation(p *Predictor, cfg MitigationConfig) (MitigationReport, error) {
	if cfg.Predictor == nil {
		cfg.Predictor = p
	}
	if cfg.Step <= 0 {
		cfg.Step = s.cfg.Step
	}
	return mitigation.Evaluate(s.Incidents(), s.PositiveWindows(), s.NegativeWindows(), cfg)
}

// EvaluateLocation scores the system-level location predictor (requires
// StudyConfig.LocationFrameEvery > 0 on the run).
func (s *Study) EvaluateLocation(p *Predictor, threshold float64) (LocationReport, error) {
	if s.location == nil {
		return LocationReport{}, errNoLocationFrames
	}
	return core.EvaluateLocation(s.location, p, core.FeatureSpan, 30*time.Minute, threshold)
}

// Free-cooling economics (paper §II): the waterside economizer can save
// 17,820 kWh per day at full displacement, ≈2.17 GWh per December–March
// season.

// FreeCoolingSavingsPerDay is the energy saved per day when the economizer
// covers the full plant load.
func FreeCoolingSavingsPerDay() float64 {
	return float64(cooling.FreeCoolingSavingsPerDay())
}

// FreeCoolingSavingsPerSeason is the energy saved across a December–March
// cold season.
func FreeCoolingSavingsPerSeason() float64 {
	return float64(cooling.FreeCoolingSavingsPerSeason())
}
