// Package weather models the Chicago outdoor climate that drives the Mira
// facility: the seasonal and diurnal temperature cycle, outdoor humidity,
// wet-bulb temperature, and the winter windows in which the Chilled Water
// Plant's waterside economizer can displace the chillers.
//
// The model is a pure, deterministic function of time and seed: a seasonal
// sinusoid plus diurnal cycle plus multi-octave value noise standing in for
// synoptic weather fronts. Determinism keeps six-year simulations and tests
// reproducible without storing any trace data.
package weather

import (
	"math"
	"time"

	"mira/internal/timeutil"
	"mira/internal/units"
)

// Conditions describes the outdoor environment at an instant.
type Conditions struct {
	// Temperature is the outdoor dry-bulb temperature.
	Temperature units.Fahrenheit
	// Humidity is the outdoor relative humidity.
	Humidity units.RelativeHumidity
	// WetBulb is the outdoor wet-bulb temperature, the quantity a waterside
	// economizer ultimately works against.
	WetBulb units.Fahrenheit
}

// Model is a deterministic Chicago climate generator.
type Model struct {
	seed uint64

	// MeanAnnual is the annual mean temperature (default 51°F, Chicago).
	MeanAnnual float64
	// SeasonalAmplitude is the summer/winter swing around the mean
	// (default 24°F).
	SeasonalAmplitude float64
	// DiurnalAmplitude is the day/night swing (default 8°F).
	DiurnalAmplitude float64
	// FrontAmplitude scales synoptic (multi-day) noise (default 9°F).
	FrontAmplitude float64
}

// New creates a climate model with Chicago defaults.
func New(seed int64) *Model {
	return &Model{
		seed:              uint64(seed)*0x9E3779B97F4A7C15 + 1,
		MeanAnnual:        51,
		SeasonalAmplitude: 24,
		DiurnalAmplitude:  8,
		FrontAmplitude:    9,
	}
}

// At returns the outdoor conditions at time t.
func (m *Model) At(t time.Time) Conditions {
	yf := timeutil.YearFraction(t)
	hod := timeutil.HourOfDay(t)

	// Seasonal cycle: coldest near late January (yf ≈ 0.08), hottest in
	// late July.
	seasonal := -m.SeasonalAmplitude * math.Cos(2*math.Pi*(yf-0.08))
	// Diurnal cycle: coolest shortly before sunrise (≈ 5 AM), warmest
	// mid-afternoon (≈ 3 PM).
	diurnal := m.DiurnalAmplitude * math.Sin(2*math.Pi*(hod-9)/24)
	// Synoptic fronts: two octaves of smooth value noise (≈3-day and ≈18-h
	// periods).
	hours := t.Sub(timeutil.ProductionStart).Hours()
	front := m.FrontAmplitude * (0.8*m.valueNoise(hours/72, 0x51) + 0.35*m.valueNoise(hours/18, 0x52))

	temp := m.MeanAnnual + seasonal + diurnal + front

	// Outdoor relative humidity: Chicago is more humid in summer; fronts
	// modulate it. Winter air is drier in absolute terms.
	rh := 68 + 9*math.Cos(2*math.Pi*(yf-0.55)) + 14*m.valueNoise(hours/36, 0x53) - 0.25*diurnal
	rhv := units.RelativeHumidity(rh).Clamp()

	tf := units.Fahrenheit(temp)
	return Conditions{
		Temperature: tf,
		Humidity:    rhv,
		WetBulb:     WetBulb(tf, rhv),
	}
}

// WetBulb estimates the wet-bulb temperature from dry-bulb temperature and
// relative humidity using Stull's (2011) regression, valid for the ordinary
// meteorological range.
func WetBulb(t units.Fahrenheit, rh units.RelativeHumidity) units.Fahrenheit {
	tc := float64(t.Celsius())
	r := float64(rh.Clamp())
	tw := tc*math.Atan(0.151977*math.Sqrt(r+8.313659)) +
		math.Atan(tc+r) - math.Atan(r-1.676331) +
		0.00391838*math.Pow(r, 1.5)*math.Atan(0.023101*r) -
		4.686035
	return units.Celsius(tw).Fahrenheit()
}

// EconomizerThreshold is the outdoor wet-bulb temperature below which the
// waterside economizer can carry the full plant load. Chilled-water plants
// need the wet-bulb comfortably below the chilled-water setpoint (64°F
// supply) to make free cooling; ~42°F wet-bulb covers tower approach and
// heat-exchanger approach.
const EconomizerThreshold units.Fahrenheit = 42

// valueNoise returns smooth noise in [-1, 1] as a function of a continuous
// coordinate: pseudo-random values at integer lattice points, interpolated
// with a smoothstep. Different channels decorrelate temperature from
// humidity noise.
func (m *Model) valueNoise(x float64, channel uint64) float64 {
	i := math.Floor(x)
	f := x - i
	a := m.lattice(int64(i), channel)
	b := m.lattice(int64(i)+1, channel)
	// Smoothstep interpolation.
	u := f * f * (3 - 2*f)
	return a*(1-u) + b*u
}

// lattice returns a deterministic pseudo-random value in [-1, 1] for an
// integer lattice point, via splitmix64 on (seed, point, channel).
func (m *Model) lattice(i int64, channel uint64) float64 {
	z := m.seed + uint64(i)*0xBF58476D1CE4E5B9 + channel*0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11)/float64(1<<53)*2 - 1
}
