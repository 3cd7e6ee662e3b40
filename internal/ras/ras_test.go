package ras

import (
	"strings"
	"testing"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
)

var t0 = time.Date(2016, 7, 4, 0, 0, 0, 0, timeutil.Chicago)

func cmf(rack topology.RackID, ts time.Time) Event {
	return Event{Time: ts, Rack: rack, Type: CoolantMonitor, Severity: Fatal, Message: "cmf"}
}

func TestEventStringsAndIsCMF(t *testing.T) {
	e := cmf(topology.RackID{Row: 1, Col: 8}, t0)
	if !e.IsCMF() {
		t.Error("fatal coolant-monitor event should be a CMF")
	}
	warn := Event{Time: t0, Rack: e.Rack, Type: CoolantMonitor, Severity: Warn}
	if warn.IsCMF() {
		t.Error("warn events are not CMFs")
	}
	other := Event{Time: t0, Rack: e.Rack, Type: ACToDCPower, Severity: Fatal}
	if other.IsCMF() {
		t.Error("non-coolant events are not CMFs")
	}
	s := e.String()
	if !strings.Contains(s, "coolant-monitor") || !strings.Contains(s, "(1,8)") {
		t.Errorf("Event.String = %q", s)
	}
	for et := EventType(0); et < NumEventTypes; et++ {
		if et.String() == "unknown" {
			t.Errorf("EventType %d has no name", int(et))
		}
	}
}

func TestLogOrdering(t *testing.T) {
	l := NewLog()
	r := topology.RackID{Row: 0, Col: 0}
	l.Append(cmf(r, t0.Add(2*time.Hour)))
	l.Append(cmf(r, t0)) // out of order
	l.Append(cmf(r, t0.Add(time.Hour)))
	ev := l.Events()
	if len(ev) != 3 || !ev[0].Time.Equal(t0) || !ev[2].Time.Equal(t0.Add(2*time.Hour)) {
		t.Errorf("Events not sorted: %v", ev)
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestDedupCMFStorm(t *testing.T) {
	// A RAS storm: 1000 messages across 8 racks within minutes → 8 failures.
	l := NewLog()
	for i := 0; i < 1000; i++ {
		rack := topology.RackByIndex(i % 8)
		l.Append(cmf(rack, t0.Add(time.Duration(i)*time.Second)))
	}
	got := l.DedupCMF()
	if len(got) != 8 {
		t.Errorf("storm dedup = %d failures, want 8", len(got))
	}
}

func TestDedupCMFWindowBoundary(t *testing.T) {
	l := NewLog()
	r := topology.RackID{Row: 1, Col: 1}
	l.Append(cmf(r, t0))
	l.Append(cmf(r, t0.Add(5*time.Hour))) // inside window: suppressed
	l.Append(cmf(r, t0.Add(7*time.Hour))) // outside window: counted
	got := l.DedupCMF()
	if len(got) != 2 {
		t.Errorf("dedup = %d, want 2", len(got))
	}
}

func TestDedupIsPerRack(t *testing.T) {
	l := NewLog()
	a := topology.RackID{Row: 0, Col: 1}
	b := topology.RackID{Row: 0, Col: 2}
	l.Append(cmf(a, t0))
	l.Append(cmf(b, t0.Add(time.Minute))) // different rack: counted
	if got := l.DedupCMF(); len(got) != 2 {
		t.Errorf("per-rack dedup = %d, want 2", len(got))
	}
}

func TestDedupIgnoresWarnsAndNonCMF(t *testing.T) {
	l := NewLog()
	r := topology.RackID{Row: 2, Col: 3}
	l.Append(Event{Time: t0, Rack: r, Type: CoolantMonitor, Severity: Warn})
	l.Append(Event{Time: t0.Add(time.Minute), Rack: r, Type: BQL, Severity: Fatal})
	if got := l.DedupCMF(); len(got) != 0 {
		t.Errorf("warns/non-CMF should not count as CMFs: %v", got)
	}
	if got := l.DedupNonCMF(); len(got) != 1 {
		t.Errorf("DedupNonCMF = %d, want 1", len(got))
	}
}

func TestDedupNonCMFWindow(t *testing.T) {
	l := NewLog()
	r := topology.RackID{Row: 1, Col: 5}
	l.Append(Event{Time: t0, Rack: r, Type: ACToDCPower, Severity: Fatal})
	l.Append(Event{Time: t0.Add(30 * time.Minute), Rack: r, Type: ACToDCPower, Severity: Fatal})
	l.Append(Event{Time: t0.Add(90 * time.Minute), Rack: r, Type: BQC, Severity: Fatal})
	if got := l.DedupNonCMF(); len(got) != 2 {
		t.Errorf("non-CMF dedup = %d, want 2", len(got))
	}
}

func TestCounters(t *testing.T) {
	events := []Event{
		cmf(topology.RackID{Row: 1, Col: 8}, time.Date(2016, 3, 1, 0, 0, 0, 0, timeutil.Chicago)),
		cmf(topology.RackID{Row: 1, Col: 8}, time.Date(2016, 9, 1, 0, 0, 0, 0, timeutil.Chicago)),
		cmf(topology.RackID{Row: 2, Col: 7}, time.Date(2019, 1, 1, 0, 0, 0, 0, timeutil.Chicago)),
	}
	byYear := CountByYear(events)
	if byYear[2016] != 2 || byYear[2019] != 1 {
		t.Errorf("CountByYear = %v", byYear)
	}
	byRack := CountByRack(events)
	if byRack[topology.HumidityHotspot.Index()] != 2 {
		t.Errorf("CountByRack[(1,8)] = %d", byRack[topology.HumidityHotspot.Index()])
	}
}
