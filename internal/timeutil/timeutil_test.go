package timeutil

import (
	"testing"
	"time"
)

func TestProductionWindow(t *testing.T) {
	if want := time.Date(2014, 1, 1, 0, 0, 0, 0, Chicago); !ProductionStart.Equal(want) {
		t.Errorf("ProductionStart = %v, want %v", ProductionStart, want)
	}
	if want := time.Date(2020, 1, 1, 0, 0, 0, 0, Chicago); !ProductionEnd.Equal(want) {
		t.Errorf("ProductionEnd = %v, want %v (exclusive)", ProductionEnd, want)
	}
	if len(ProductionYears) != 6 {
		t.Errorf("ProductionYears = %v, want 6 entries", ProductionYears)
	}
}

func TestTicksSixYears(t *testing.T) {
	got := int(ProductionEnd.Sub(ProductionStart) / SampleInterval)
	// 6 years incl. leap day 2016 = 2191 days = 631,008 five-minute ticks.
	if want := 2191 * 288; got != want {
		t.Errorf("production window holds %d samples per rack, want %d", got, want)
	}
}

func TestAllocationYearFractionINCITE(t *testing.T) {
	jan1 := time.Date(2015, 1, 1, 0, 0, 0, 0, Chicago)
	if f := AllocationYearFraction(INCITE, jan1); f != 0 {
		t.Errorf("INCITE Jan 1 fraction = %v, want 0", f)
	}
	dec31 := time.Date(2015, 12, 31, 23, 0, 0, 0, Chicago)
	if f := AllocationYearFraction(INCITE, dec31); f < 0.99 {
		t.Errorf("INCITE Dec 31 fraction = %v, want ≈1", f)
	}
	jul := time.Date(2015, 7, 2, 0, 0, 0, 0, Chicago)
	if f := AllocationYearFraction(INCITE, jul); f < 0.49 || f > 0.51 {
		t.Errorf("INCITE Jul fraction = %v, want ≈0.5", f)
	}
}

func TestAllocationYearFractionALCC(t *testing.T) {
	jul1 := time.Date(2015, 7, 1, 0, 0, 0, 0, Chicago)
	if f := AllocationYearFraction(ALCC, jul1); f != 0 {
		t.Errorf("ALCC Jul 1 fraction = %v, want 0", f)
	}
	jun30 := time.Date(2015, 6, 30, 23, 0, 0, 0, Chicago)
	if f := AllocationYearFraction(ALCC, jun30); f < 0.99 {
		t.Errorf("ALCC Jun 30 fraction = %v, want ≈1", f)
	}
	// January is mid-year for ALCC.
	jan := time.Date(2016, 1, 1, 0, 0, 0, 0, Chicago)
	if f := AllocationYearFraction(ALCC, jan); f < 0.49 || f > 0.52 {
		t.Errorf("ALCC Jan fraction = %v, want ≈0.5", f)
	}
}

func TestAllocationYearFractionBounds(t *testing.T) {
	for ts := ProductionStart; ts.Before(ProductionEnd); ts = ts.Add(31 * 24 * time.Hour) {
		for _, p := range []Program{INCITE, ALCC, Discretionary} {
			f := AllocationYearFraction(p, ts)
			if f < 0 || f >= 1 {
				t.Fatalf("fraction out of range: %v at %v = %v", p, ts, f)
			}
		}
	}
}

func TestMaintenanceCalendar(t *testing.T) {
	cal := MaintenanceCalendar{}
	// Monday, 2016-07-04 at 10 AM should be in maintenance.
	mon := time.Date(2016, 7, 4, 10, 0, 0, 0, Chicago)
	if mon.Weekday() != time.Monday {
		t.Fatal("test date is not a Monday")
	}
	if !cal.InMaintenance(mon) {
		t.Error("Monday 10AM should be in maintenance")
	}
	// Before 9 AM is not.
	if cal.InMaintenance(time.Date(2016, 7, 4, 8, 0, 0, 0, Chicago)) {
		t.Error("Monday 8AM should not be in maintenance")
	}
	// Tuesday is never in maintenance.
	if cal.InMaintenance(time.Date(2016, 7, 5, 10, 0, 0, 0, Chicago)) {
		t.Error("Tuesday should not be in maintenance")
	}
	// Late Monday night: the longest window is 10h → ends by 19:00.
	if cal.InMaintenance(time.Date(2016, 7, 4, 20, 0, 0, 0, Chicago)) {
		t.Error("Monday 8PM should be past the maintenance window")
	}
}

func TestMaintenanceDurationRange(t *testing.T) {
	cal := MaintenanceCalendar{}
	// Scan a year of Mondays; windows must last 6-10h.
	d := time.Date(2015, 1, 5, 9, 30, 0, 0, Chicago) // a Monday
	for i := 0; i < 52; i++ {
		w, ok := cal.windowFor(d)
		if !ok {
			t.Fatalf("every-Monday calendar skipped %v", d)
		}
		dur := w.End.Sub(w.Start)
		if dur < 6*time.Hour || dur > 10*time.Hour {
			t.Errorf("window duration %v out of 6-10h range", dur)
		}
		d = d.AddDate(0, 0, 7)
	}
}

func TestMaintenanceCustomDuration(t *testing.T) {
	cal := MaintenanceCalendar{DurationFor: func(time.Time) time.Duration { return 7 * time.Hour }}
	mon := time.Date(2016, 7, 4, 15, 30, 0, 0, Chicago)
	if !cal.InMaintenance(mon) {
		t.Error("3:30PM should be inside a 7h window from 9AM")
	}
	if cal.InMaintenance(time.Date(2016, 7, 4, 16, 30, 0, 0, Chicago)) {
		t.Error("4:30PM should be outside a 7h window from 9AM")
	}
}

func TestFreeCoolingSeason(t *testing.T) {
	for _, m := range []time.Month{time.December, time.January, time.February, time.March} {
		if !FreeCoolingSeason(time.Date(2015, m, 10, 0, 0, 0, 0, Chicago)) {
			t.Errorf("%v should be free-cooling season", m)
		}
	}
	for _, m := range []time.Month{time.April, time.July, time.October} {
		if FreeCoolingSeason(time.Date(2015, m, 10, 0, 0, 0, 0, Chicago)) {
			t.Errorf("%v should not be free-cooling season", m)
		}
	}
}

func TestYearFraction(t *testing.T) {
	jan1 := time.Date(2015, 1, 1, 0, 0, 0, 0, Chicago)
	if f := YearFraction(jan1); f != 0 {
		t.Errorf("YearFraction(Jan 1) = %v", f)
	}
	jul := time.Date(2015, 7, 2, 12, 0, 0, 0, Chicago)
	if f := YearFraction(jul); f < 0.49 || f > 0.51 {
		t.Errorf("YearFraction(Jul 2) = %v, want ≈0.5", f)
	}
}

func TestHourOfDay(t *testing.T) {
	ts := time.Date(2015, 6, 1, 13, 30, 0, 0, Chicago)
	if h := HourOfDay(ts); h != 13.5 {
		t.Errorf("HourOfDay = %v, want 13.5", h)
	}
}

func TestThetaEventOrdering(t *testing.T) {
	if !ThetaTestingStart.Before(ThetaCutover) {
		t.Error("Theta testing begins before the flow cutover")
	}
	if !ThetaCutover.Before(ThetaTestingEnd) {
		t.Error("flow cutover happens during the testing period")
	}
	if ThetaCutover.Year() != 2016 || ThetaCutover.Month() != time.July {
		t.Errorf("ThetaCutover = %v, want July 2016", ThetaCutover)
	}
}

func TestProgramString(t *testing.T) {
	if INCITE.String() != "INCITE" || ALCC.String() != "ALCC" || Discretionary.String() != "Discretionary" {
		t.Error("Program.String mismatch")
	}
}
