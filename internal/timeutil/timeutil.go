// Package timeutil provides the simulation calendar for the Mira digital
// twin: the 2014–2019 production window, the 300-second coolant-monitor
// sampling cadence, INCITE and ALCC allocation years, Monday maintenance
// windows, and season helpers.
//
// All times are handled in the data center's local zone, modeled as a fixed
// UTC-6 offset (Central Standard Time, Argonne, Illinois). Using a fixed
// offset keeps the six-year simulation deterministic and independent of the
// host's timezone database.
package timeutil

import "time"

// Chicago is the fixed-offset location used for all calendar computations.
var Chicago = time.FixedZone("CST", -6*60*60)

// SampleInterval is the coolant-monitor sampling granularity: one sample per
// rack every 300 seconds.
const SampleInterval = 300 * time.Second

// Production window of the Mira system.
var (
	ProductionStart = time.Date(2014, 1, 1, 0, 0, 0, 0, Chicago)
	ProductionEnd   = time.Date(2020, 1, 1, 0, 0, 0, 0, Chicago)
)

// ProductionYears lists the calendar years Mira was in production.
var ProductionYears = []int{2014, 2015, 2016, 2017, 2018, 2019}

// ThetaCutover is the point at which the Theta system was connected to
// Mira's cooling loop and the plant flow rate was raised from ~1250 to
// ~1300 GPM (July 2016).
var ThetaCutover = time.Date(2016, 7, 1, 0, 0, 0, 0, Chicago)

// ThetaTestingStart and ThetaTestingEnd bound the period during which Theta
// was in early testing and dumped extra heat into the shared loop, raising
// both inlet and outlet coolant temperatures (June 2016 – early 2017).
var (
	ThetaTestingStart = time.Date(2016, 6, 1, 0, 0, 0, 0, Chicago)
	ThetaTestingEnd   = time.Date(2017, 2, 1, 0, 0, 0, 0, Chicago)
)

// Program identifies an allocation program at the ALCF.
type Program int

const (
	// INCITE projects run on a January 1 – December 31 allocation year and
	// are the higher-priority, larger program.
	INCITE Program = iota
	// ALCC projects run on a July 1 – June 30 allocation year.
	ALCC
	// Discretionary projects have no allocation-year deadline.
	Discretionary
)

func (p Program) String() string {
	switch p {
	case INCITE:
		return "INCITE"
	case ALCC:
		return "ALCC"
	case Discretionary:
		return "Discretionary"
	default:
		return "Unknown"
	}
}

// AllocationYearFraction returns how far through its allocation year the
// given program is at time t, in [0, 1). Users concentrate job submissions
// near the end of the allocation year (fraction → 1) to burn remaining core
// hours, which drives the paper's monthly utilization profile (Fig. 4).
func AllocationYearFraction(p Program, t time.Time) float64 {
	t = t.In(Chicago)
	var start time.Time
	switch p {
	case ALCC:
		// July 1 – June 30.
		start = time.Date(t.Year(), 7, 1, 0, 0, 0, 0, Chicago)
		if t.Before(start) {
			start = time.Date(t.Year()-1, 7, 1, 0, 0, 0, 0, Chicago)
		}
	default:
		// INCITE and discretionary use the calendar year.
		start = time.Date(t.Year(), 1, 1, 0, 0, 0, 0, Chicago)
	}
	end := start.AddDate(1, 0, 0)
	frac := float64(t.Sub(start)) / float64(end.Sub(start))
	if frac < 0 {
		frac = 0
	}
	if frac >= 1 {
		frac = 1 - 1e-12
	}
	return frac
}

// MaintenanceWindow describes one scheduled maintenance period.
type MaintenanceWindow struct {
	Start time.Time
	End   time.Time
}

// Contains reports whether t falls inside the window [Start, End).
func (w MaintenanceWindow) Contains(t time.Time) bool {
	return !t.Before(w.Start) && t.Before(w.End)
}

// MaintenanceCalendar generates Mira's scheduled maintenance windows:
// Mondays starting at 9 AM local, lasting 6–10 hours. The paper notes the
// maintenance is not literally every week; Every controls the cadence
// (1 = every Monday, 2 = every other Monday, ...).
type MaintenanceCalendar struct {
	// Every is the Monday cadence; a value <= 0 is treated as 1.
	Every int
	// DurationFor selects the window length for a given Monday. If nil, a
	// deterministic 6–10 h pattern keyed on the ISO week is used.
	DurationFor func(monday time.Time) time.Duration
}

// windowFor returns the maintenance window for the Monday containing t, or a
// zero window if that Monday is skipped by the cadence.
func (c MaintenanceCalendar) windowFor(t time.Time) (MaintenanceWindow, bool) {
	t = t.In(Chicago)
	if t.Weekday() != time.Monday {
		return MaintenanceWindow{}, false
	}
	every := c.Every
	if every <= 0 {
		every = 1
	}
	_, week := t.ISOWeek()
	if week%every != 0 && every > 1 {
		return MaintenanceWindow{}, false
	}
	monday := time.Date(t.Year(), t.Month(), t.Day(), 9, 0, 0, 0, Chicago)
	dur := 6*time.Hour + time.Duration(week%5)*time.Hour // 6..10h pattern
	if c.DurationFor != nil {
		dur = c.DurationFor(monday)
	}
	return MaintenanceWindow{Start: monday, End: monday.Add(dur)}, true
}

// InMaintenance reports whether t falls inside a scheduled maintenance
// window.
func (c MaintenanceCalendar) InMaintenance(t time.Time) bool {
	w, ok := c.windowFor(t)
	return ok && w.Contains(t)
}

// FreeCoolingSeason reports whether t falls in the December–March window in
// which the Chilled Water Plant's waterside economizer can displace the
// chillers (the paper's "colder months").
func FreeCoolingSeason(t time.Time) bool {
	switch t.In(Chicago).Month() {
	case time.December, time.January, time.February, time.March:
		return true
	default:
		return false
	}
}

// YearFraction returns the position of t inside its calendar year in [0, 1),
// used by the seasonal weather model.
func YearFraction(t time.Time) float64 {
	t = t.In(Chicago)
	start := time.Date(t.Year(), 1, 1, 0, 0, 0, 0, Chicago)
	end := start.AddDate(1, 0, 0)
	return float64(t.Sub(start)) / float64(end.Sub(start))
}

// HourOfDay returns the local hour of day including the fractional part.
func HourOfDay(t time.Time) float64 {
	t = t.In(Chicago)
	return float64(t.Hour()) + float64(t.Minute())/60 + float64(t.Second())/3600
}
