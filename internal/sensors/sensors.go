// Package sensors models the Blue Gene/Q Coolant Monitor: the per-rack
// sensor module beside the coolant inlet and outlet lines that samples data
// center temperature and humidity, coolant flow rate, inlet and outlet
// coolant temperatures, and rack power every 300 seconds, stores
// calibration data, and raises warn/fatal alarms when readings cross the
// configured thresholds (paper §II).
package sensors

import (
	"fmt"
	"math/rand"
	"time"

	"mira/internal/topology"
	"mira/internal/units"
)

// Record is one coolant-monitor sample for one rack — the telemetry schema
// every analysis in this repository consumes.
type Record struct {
	Time time.Time
	Rack topology.RackID
	// DCTemperature and DCHumidity describe the data-center conditions near
	// the rack (not node level).
	DCTemperature units.Fahrenheit
	DCHumidity    units.RelativeHumidity
	// Flow is the internal-loop coolant flow rate.
	Flow units.GPM
	// InletTemp and OutletTemp are the coolant temperatures at the rack's
	// inlet and outlet ports.
	InletTemp  units.Fahrenheit
	OutletTemp units.Fahrenheit
	// Power is the aggregate draw of the rack's four power enclosures.
	Power units.Watts
}

// Metric identifies one channel of the record for queries and feature
// extraction.
type Metric int

const (
	MetricDCTemperature Metric = iota
	MetricDCHumidity
	MetricFlow
	MetricInletTemp
	MetricOutletTemp
	MetricPower
	// NumMetrics is the channel count.
	NumMetrics
)

func (m Metric) String() string {
	switch m {
	case MetricDCTemperature:
		return "dc_temperature"
	case MetricDCHumidity:
		return "dc_humidity"
	case MetricFlow:
		return "coolant_flow"
	case MetricInletTemp:
		return "inlet_temp"
	case MetricOutletTemp:
		return "outlet_temp"
	case MetricPower:
		return "power"
	default:
		return "unknown"
	}
}

// AllMetrics lists every channel.
func AllMetrics() []Metric {
	return []Metric{MetricDCTemperature, MetricDCHumidity, MetricFlow, MetricInletTemp, MetricOutletTemp, MetricPower}
}

// Value extracts one channel from a record.
func (r Record) Value(m Metric) float64 {
	switch m {
	case MetricDCTemperature:
		return float64(r.DCTemperature)
	case MetricDCHumidity:
		return float64(r.DCHumidity)
	case MetricFlow:
		return float64(r.Flow)
	case MetricInletTemp:
		return float64(r.InletTemp)
	case MetricOutletTemp:
		return float64(r.OutletTemp)
	case MetricPower:
		return float64(r.Power)
	default:
		return 0
	}
}

// Values returns every channel, indexed by Metric. It takes a pointer so a
// hot loop over a record slice reads the six fields without copying the
// record, which Value's value receiver does.
func (r *Record) Values() [NumMetrics]float64 {
	return [NumMetrics]float64{
		MetricDCTemperature: float64(r.DCTemperature),
		MetricDCHumidity:    float64(r.DCHumidity),
		MetricFlow:          float64(r.Flow),
		MetricInletTemp:     float64(r.InletTemp),
		MetricOutletTemp:    float64(r.OutletTemp),
		MetricPower:         float64(r.Power),
	}
}

// dewpoint returns the dewpoint implied by the record's ambient channels.
func (r Record) dewpoint() units.Fahrenheit {
	return units.Dewpoint(r.DCTemperature, r.DCHumidity)
}

// Calibration holds the per-channel additive offsets stored alongside the
// monitor (the coolant monitor "also stores the calibration data used to
// calibrate the sensors").
type Calibration struct {
	Offset [NumMetrics]float64
}

// Monitor is one rack's coolant-monitor module.
type Monitor struct {
	Rack topology.RackID
	Cal  Calibration
	rng  *rand.Rand

	// drift models the single malfunctioning sensor the paper mentions
	// (one sensor on one rack was replaced during the six years): a slow
	// additive drift on one channel until the replacement date.
	driftChannel  Metric
	driftPerDay   float64
	driftStart    time.Time
	driftReplaced time.Time
}

// NewMonitor creates the monitor for a rack with near-zero factory
// calibration offsets.
func NewMonitor(rack topology.RackID, seed int64) *Monitor {
	rng := rand.New(rand.NewSource(seed ^ int64(rack.Index()*0x9E37)))
	m := &Monitor{Rack: rack, rng: rng}
	for i := range m.Cal.Offset {
		m.Cal.Offset[i] = rng.NormFloat64() * 0.02
	}
	return m
}

// InjectDrift configures this monitor's sensor to drift on one channel from
// start until it is replaced (offset returns to calibration afterwards).
func (m *Monitor) InjectDrift(channel Metric, perDay float64, start, replaced time.Time) {
	m.driftChannel = channel
	m.driftPerDay = perDay
	m.driftStart = start
	m.driftReplaced = replaced
}

// noiseScale is the measurement noise per channel.
func noiseScale(m Metric) float64 {
	switch m {
	case MetricDCTemperature:
		return 0.25
	case MetricDCHumidity:
		return 0.35
	case MetricFlow:
		return 0.10
	case MetricInletTemp:
		return 0.08
	case MetricOutletTemp:
		return 0.12
	case MetricPower:
		return 250 // watts
	default:
		return 0
	}
}

// Sample turns ground-truth values into a measured record: calibration
// offsets, sensor noise, and any active drift are applied.
func (m *Monitor) Sample(truth Record) Record {
	out := truth
	out.Rack = m.Rack
	apply := func(metric Metric, v float64) float64 {
		v += m.Cal.Offset[metric]
		v += m.rng.NormFloat64() * noiseScale(metric)
		if m.driftPerDay != 0 && metric == m.driftChannel &&
			!truth.Time.Before(m.driftStart) && truth.Time.Before(m.driftReplaced) {
			days := truth.Time.Sub(m.driftStart).Hours() / 24
			v += m.driftPerDay * days
		}
		return v
	}
	out.DCTemperature = units.Fahrenheit(apply(MetricDCTemperature, float64(truth.DCTemperature)))
	out.DCHumidity = units.RelativeHumidity(apply(MetricDCHumidity, float64(truth.DCHumidity))).Clamp()
	out.Flow = units.GPM(apply(MetricFlow, float64(truth.Flow)))
	out.InletTemp = units.Fahrenheit(apply(MetricInletTemp, float64(truth.InletTemp)))
	out.OutletTemp = units.Fahrenheit(apply(MetricOutletTemp, float64(truth.OutletTemp)))
	out.Power = units.Watts(apply(MetricPower, float64(truth.Power)))
	return out
}

// Severity of an alarm (paper §II: warn designates low-risk situations,
// fatal identifies a severe event that leads to a rack-level failure).
type Severity int

const (
	Warn Severity = iota
	Fatal
)

func (s Severity) String() string {
	if s == Fatal {
		return "FATAL"
	}
	return "WARN"
}

// Alarm is one threshold violation raised by the coolant monitor.
type Alarm struct {
	Time     time.Time
	Rack     topology.RackID
	Severity Severity
	Reason   string
}

func (a Alarm) String() string {
	return fmt.Sprintf("%s %s rack %v: %s", a.Time.Format(time.RFC3339), a.Severity, a.Rack, a.Reason)
}

// Thresholds are the alarm limits the coolant monitor enforces.
type Thresholds struct {
	// FlowFatalFraction: flow below this fraction of nominal rack flow is
	// fatal (solenoid-closing territory).
	FlowFatalFraction float64
	// FlowWarnFraction: flow below this fraction raises a warning.
	FlowWarnFraction float64
	// NominalRackFlow is the reference flow.
	NominalRackFlow units.GPM
	// InletFatalLow/High bound the inlet coolant temperature.
	InletFatalLow  units.Fahrenheit
	InletFatalHigh units.Fahrenheit
	// InletWarnLow/High are the warning bounds.
	InletWarnLow  units.Fahrenheit
	InletWarnHigh units.Fahrenheit
	// CondensationFatalMargin: a dewpoint within this many °F of the
	// data-center temperature is fatal (condensation on hardware). The
	// paper: the failure triggers when the dewpoint "falls below or becomes
	// almost equal to the data center temperature".
	CondensationFatalMargin float64
	// CondensationWarnMargin raises a warning first.
	CondensationWarnMargin float64
}

// DefaultThresholds returns the production alarm configuration.
func DefaultThresholds() Thresholds {
	return Thresholds{
		FlowFatalFraction:       0.62,
		FlowWarnFraction:        0.80,
		NominalRackFlow:         26.5,
		InletFatalLow:           57,
		InletFatalHigh:          71,
		InletWarnLow:            60,
		InletWarnHigh:           68.5,
		CondensationFatalMargin: 2.0,
		CondensationWarnMargin:  5.0,
	}
}

// Check evaluates a record against the thresholds and returns any alarms,
// most severe first.
func (t Thresholds) Check(r Record) []Alarm {
	var alarms []Alarm
	add := func(sev Severity, reason string) {
		alarms = append(alarms, Alarm{Time: r.Time, Rack: r.Rack, Severity: sev, Reason: reason})
	}
	nominal := float64(t.NominalRackFlow)
	switch flow := float64(r.Flow); {
	case flow < nominal*t.FlowFatalFraction:
		add(Fatal, fmt.Sprintf("coolant flow %.1f GPM below fatal threshold %.1f", flow, nominal*t.FlowFatalFraction))
	case flow < nominal*t.FlowWarnFraction:
		add(Warn, fmt.Sprintf("coolant flow %.1f GPM below warn threshold %.1f", flow, nominal*t.FlowWarnFraction))
	}
	switch {
	case r.InletTemp < t.InletFatalLow || r.InletTemp > t.InletFatalHigh:
		add(Fatal, fmt.Sprintf("inlet temperature %v outside fatal range [%v, %v]", r.InletTemp, t.InletFatalLow, t.InletFatalHigh))
	case r.InletTemp < t.InletWarnLow || r.InletTemp > t.InletWarnHigh:
		add(Warn, fmt.Sprintf("inlet temperature %v outside warn range [%v, %v]", r.InletTemp, t.InletWarnLow, t.InletWarnHigh))
	}
	switch margin := units.CondensationMargin(r.DCTemperature, r.DCHumidity); {
	case margin < t.CondensationFatalMargin:
		add(Fatal, fmt.Sprintf("dewpoint within %.1f°F of DC temperature: condensation risk", margin))
	case margin < t.CondensationWarnMargin:
		add(Warn, fmt.Sprintf("dewpoint margin %.1f°F shrinking", margin))
	}
	// Most severe first.
	for i := range alarms {
		if alarms[i].Severity == Fatal {
			alarms[0], alarms[i] = alarms[i], alarms[0]
			break
		}
	}
	return alarms
}

// HasFatal reports whether any alarm in the list is fatal.
func HasFatal(alarms []Alarm) bool {
	for _, a := range alarms {
		if a.Severity == Fatal {
			return true
		}
	}
	return false
}
