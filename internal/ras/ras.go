// Package ras models Mira's RAS (reliability, availability, serviceability)
// event log and the paper's failure-counting methodology: coolant monitor
// failures (CMFs) are deduplicated per rack over a six-hour window (a rack
// takes up to six hours to come back), non-CMF failures over a one-hour
// window, and cascaded storm messages are collapsed so that "1000 CMFs on
// eight racks within six hours" count as eight failures.
package ras

import (
	"fmt"
	"sort"
	"time"

	"mira/internal/topology"
)

// EventType categorizes a RAS event (paper Fig. 14b).
type EventType int

const (
	// CoolantMonitor is a coolant-monitor failure (CMF).
	CoolantMonitor EventType = iota
	// ACToDCPower is a Bulk Power Module conversion failure — half of all
	// post-CMF failures.
	ACToDCPower
	// BQC is a Blue Gene/Q compute-module failure.
	BQC
	// BQL is a Blue Gene/Q link-module failure.
	BQL
	// Card is a clock-card failure.
	Card
	// Software covers buggy updates and network-decision malfunctions.
	Software
	// Ethernet is an ethernet adapter card failure.
	Ethernet
	// Process covers background software daemons (< 2% of failures).
	Process
	// NumEventTypes is the category count.
	NumEventTypes
)

func (e EventType) String() string {
	switch e {
	case CoolantMonitor:
		return "coolant-monitor"
	case ACToDCPower:
		return "ac-to-dc-power"
	case BQC:
		return "bqc"
	case BQL:
		return "bql"
	case Card:
		return "card"
	case Software:
		return "software"
	case Ethernet:
		return "ethernet"
	case Process:
		return "process"
	default:
		return "unknown"
	}
}

// Severity mirrors the coolant-monitor severities at the log level.
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

// Event is one RAS log entry.
type Event struct {
	Time     time.Time
	Rack     topology.RackID
	Type     EventType
	Severity Severity
	Message  string
}

func (e Event) String() string {
	return fmt.Sprintf("%s %s %s rack %v: %s",
		e.Time.Format(time.RFC3339), e.Severity, e.Type, e.Rack, e.Message)
}

// IsCMF reports whether the event is a fatal coolant-monitor failure.
func (e Event) IsCMF() bool { return e.Type == CoolantMonitor && e.Severity == Fatal }

// Log is an append-mostly RAS event log.
type Log struct {
	events []Event
	sorted bool
}

// NewLog creates an empty log.
func NewLog() *Log { return &Log{sorted: true} }

// Append adds an event.
func (l *Log) Append(e Event) {
	if n := len(l.events); n > 0 && e.Time.Before(l.events[n-1].Time) {
		l.sorted = false
	}
	l.events = append(l.events, e)
}

// Len returns the event count.
func (l *Log) Len() int { return len(l.events) }

// Events returns the events in time order.
func (l *Log) Events() []Event {
	l.ensureSorted()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

func (l *Log) ensureSorted() {
	if !l.sorted {
		sort.SliceStable(l.events, func(i, j int) bool { return l.events[i].Time.Before(l.events[j].Time) })
		l.sorted = true
	}
}

// Deduplication windows from the paper's methodology.
const (
	// CMFWindow: a rack can take up to six hours to come back after a CMF,
	// so further CMFs on the same rack within six hours are the same
	// failure.
	CMFWindow = 6 * time.Hour
	// NonCMFWindow: a rack takes about one hour to come back after a
	// non-CMF failure.
	NonCMFWindow = time.Hour
)

// DedupCMF applies the paper's methodology to the log: it returns the fatal
// coolant-monitor failures with per-rack six-hour deduplication. Dedup is
// per rack, not system-wide, so a storm that fells eight racks counts as
// eight failures.
func (l *Log) DedupCMF() []Event {
	return dedup(l.Events(), CMFWindow, func(e Event) bool { return e.IsCMF() })
}

// DedupNonCMF returns the fatal non-coolant-monitor failures with per-rack
// one-hour deduplication.
func (l *Log) DedupNonCMF() []Event {
	return dedup(l.Events(), NonCMFWindow, func(e Event) bool {
		return e.Severity == Fatal && e.Type != CoolantMonitor
	})
}

func dedup(events []Event, window time.Duration, keep func(Event) bool) []Event {
	last := make(map[topology.RackID]time.Time)
	var out []Event
	for _, e := range events {
		if !keep(e) {
			continue
		}
		if prev, ok := last[e.Rack]; ok && e.Time.Sub(prev) < window {
			continue
		}
		last[e.Rack] = e.Time
		out = append(out, e)
	}
	return out
}

// CountByYear groups deduplicated events by calendar year.
func CountByYear(events []Event) map[int]int {
	out := make(map[int]int)
	for _, e := range events {
		out[e.Time.Year()]++
	}
	return out
}

// CountByRack groups deduplicated events by rack, indexed densely.
func CountByRack(events []Event) [topology.NumRacks]int {
	var out [topology.NumRacks]int
	for _, e := range events {
		out[e.Rack.Index()]++
	}
	return out
}
