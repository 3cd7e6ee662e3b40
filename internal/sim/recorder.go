package sim

import (
	"fmt"
	"time"

	"mira/internal/envdb"
	"mira/internal/sensors"
	"mira/internal/topology"
)

// Window is a fixed-length trailing slice of one rack's telemetry, ending
// at End. Positive windows end at a CMF; negative windows end at quiet
// moments. They feed both the Fig. 12 lead-up analysis and the predictor's
// training set.
type Window struct {
	Rack    topology.RackID
	End     time.Time
	Records []sensors.Record // oldest first, ending at End
}

// IncidentWindowRecorder captures the six hours of telemetry leading up to
// every CMF (per affected rack) plus a reservoir of candidate negative
// windows sampled evenly across the run.
type IncidentWindowRecorder struct {
	NopRecorder

	windowTicks int
	negEvery    int
	maxNeg      int

	rings    [topology.NumRacks][]sensors.Record // circular
	ringPos  [topology.NumRacks]int
	ringFull [topology.NumRacks]bool
	tickNo   [topology.NumRacks]int

	positives []Window
	negatives []Window
	negSeen   int64
	rngState  uint64

	// cmfTimes per rack, for negative filtering.
	cmfTimes [topology.NumRacks][]time.Time
}

// NewIncidentWindowRecorder creates a recorder whose windows span
// windowTicks samples. A candidate negative window is offered every
// negEvery ticks per rack into a reservoir of maxNeg.
func NewIncidentWindowRecorder(windowTicks, negEvery, maxNeg int) *IncidentWindowRecorder {
	r := &IncidentWindowRecorder{
		windowTicks: windowTicks,
		negEvery:    negEvery,
		maxNeg:      maxNeg,
		rngState:    0x9E3779B97F4A7C15,
	}
	for i := range r.rings {
		r.rings[i] = make([]sensors.Record, windowTicks)
	}
	return r
}

func (r *IncidentWindowRecorder) rand() uint64 {
	x := r.rngState
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.rngState = x
	return x
}

// OnSample pushes into the rack's ring and occasionally offers a negative
// candidate.
func (r *IncidentWindowRecorder) OnSample(rec sensors.Record) {
	i := rec.Rack.Index()
	r.rings[i][r.ringPos[i]] = rec
	r.ringPos[i] = (r.ringPos[i] + 1) % r.windowTicks
	if r.ringPos[i] == 0 {
		r.ringFull[i] = true
	}
	r.tickNo[i]++
	if r.ringFull[i] && r.negEvery > 0 && r.tickNo[i]%r.negEvery == 0 {
		r.offerNegative(rec.Rack, rec.Time)
	}
}

// snapshot copies the rack's ring in time order.
func (r *IncidentWindowRecorder) snapshot(rack topology.RackID) []sensors.Record {
	i := rack.Index()
	if !r.ringFull[i] {
		out := make([]sensors.Record, r.ringPos[i])
		copy(out, r.rings[i][:r.ringPos[i]])
		return out
	}
	out := make([]sensors.Record, 0, r.windowTicks)
	out = append(out, r.rings[i][r.ringPos[i]:]...)
	out = append(out, r.rings[i][:r.ringPos[i]]...)
	return out
}

func (r *IncidentWindowRecorder) offerNegative(rack topology.RackID, t time.Time) {
	r.negSeen++
	w := Window{Rack: rack, End: t, Records: r.snapshot(rack)}
	if len(r.negatives) < r.maxNeg {
		r.negatives = append(r.negatives, w)
		return
	}
	j := int64(r.rand() % uint64(r.negSeen))
	if j < int64(r.maxNeg) {
		r.negatives[j] = w
	}
}

// OnIncident snapshots the lead-up window of every affected rack.
func (r *IncidentWindowRecorder) OnIncident(inc Incident) {
	for _, rack := range inc.Racks {
		i := rack.Index()
		if !r.ringFull[i] {
			continue // not enough history yet
		}
		r.positives = append(r.positives, Window{Rack: rack, End: inc.Time, Records: r.snapshot(rack)})
		r.cmfTimes[i] = append(r.cmfTimes[i], inc.Time)
	}
}

// Positives returns the captured pre-CMF windows.
func (r *IncidentWindowRecorder) Positives() []Window { return r.positives }

// Negatives returns the sampled quiet windows whose rack saw no CMF within
// the given horizon after the window's end (the paper labels a window
// negative when "no CMF occurred within the next six hours").
func (r *IncidentWindowRecorder) Negatives(horizon time.Duration) []Window {
	var out []Window
	for _, w := range r.negatives {
		if !r.cmfWithin(w.Rack, w.End, horizon) {
			out = append(out, w)
		}
	}
	return out
}

func (r *IncidentWindowRecorder) cmfWithin(rack topology.RackID, t time.Time, horizon time.Duration) bool {
	for _, ct := range r.cmfTimes[rack.Index()] {
		d := ct.Sub(t)
		// Also exclude windows overlapping a recent CMF's aftermath.
		if d > -horizon && d < horizon {
			return true
		}
	}
	return false
}

// EnvDBRecorder streams samples into an environmental database — the
// slice-backed envdb.Store or the compressed, concurrent tsdb.Store.
type EnvDBRecorder struct {
	NopRecorder
	DB envdb.DB
	// Err records the first append failure (out-of-order data would be a
	// simulator bug, a remote store may refuse a batch). Read it after Run
	// returns: delivery has drained by then.
	Err error
}

// NewEnvDBRecorder wraps a store.
func NewEnvDBRecorder(db envdb.DB) *EnvDBRecorder { return &EnvDBRecorder{DB: db} }

// OnSample appends to the store.
func (r *EnvDBRecorder) OnSample(rec sensors.Record) {
	if err := r.DB.Append(rec); err != nil && r.Err == nil {
		r.Err = err
	}
}

// RunFleet runs one simulator per hall of fleet, configured by config(h)
// and recording into sink under its own hall's racks, and returns hall 0's
// simulator, whose RAS log, incidents and scheduler the summaries report.
// The hall0 recorders ride along on hall 0 only.
func RunFleet(fleet topology.Fleet, sink envdb.DB, config func(hall int) (Config, error), hall0 ...Recorder) (*Simulator, error) {
	var first *Simulator
	for h := 0; h < fleet.Halls; h++ {
		cfg, err := config(h)
		if err != nil {
			return nil, err
		}
		s, rec := New(cfg), NewEnvDBRecorder(sink)
		if h == 0 && fleet.Racks == topology.NumRacks {
			s.AddRecorder(rec) // hall 0, every rack: nothing to re-tag
		} else {
			s.AddRecorder(&hallRecorder{Recorder: rec, hall: h, racks: fleet.Racks})
		}
		if h == 0 {
			first = s
			s.recorders = append(s.recorders, hall0...)
		}
		if err := s.Run(); err != nil {
			return nil, fmt.Errorf("hall %d: %w", h, err)
		}
		if rec.Err != nil {
			return nil, fmt.Errorf("hall %d telemetry recording: %w", h, rec.Err)
		}
	}
	return first, nil
}

// hallRecorder re-tags every sample's rack into one hall of a fleet and
// drops racks past the fleet's per-hall width (-racks).
type hallRecorder struct {
	Recorder
	hall, racks int
}

func (h *hallRecorder) OnSample(rec sensors.Record) {
	if rec.Rack.Index() < h.racks {
		rec.Rack.Hall = h.hall
		h.Recorder.OnSample(rec)
	}
}
