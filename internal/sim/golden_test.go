package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"mira/internal/sensors"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

// streamHash is a recorder that folds everything it is handed, in the order
// it is handed it, into one FNV-64a: a tag byte per callback, then the
// callback's payload (instants as UnixNano, floats as Float64bits). Two runs
// hash equal only if this recorder saw the same callbacks with the same
// values in the same sequence.
type streamHash struct {
	h       hash.Hash64
	samples int
}

func newStreamHash() *streamHash { return &streamHash{h: fnv.New64a()} }

func (s *streamHash) put(tag byte, words ...uint64) {
	var buf [8]byte
	s.h.Write([]byte{tag})
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		s.h.Write(buf[:])
	}
}

func (s *streamHash) OnTick(t time.Time, p units.Watts, util float64) {
	s.put('T', uint64(t.UnixNano()), math.Float64bits(float64(p)), math.Float64bits(util))
}

func (s *streamHash) OnRackState(t time.Time, rack topology.RackID, util float64) {
	s.put('R', uint64(t.UnixNano()), uint64(rack.Index()), math.Float64bits(util))
}

func (s *streamHash) OnSample(r sensors.Record) {
	s.samples++
	s.put('S', uint64(r.Time.UnixNano()), uint64(r.Rack.Index()),
		math.Float64bits(float64(r.DCTemperature)), math.Float64bits(float64(r.DCHumidity)),
		math.Float64bits(float64(r.Flow)), math.Float64bits(float64(r.InletTemp)),
		math.Float64bits(float64(r.OutletTemp)), math.Float64bits(float64(r.Power)))
}

func (s *streamHash) OnIncident(inc Incident) {
	s.put('I', uint64(inc.Time.UnixNano()), uint64(inc.Epicenter.Index()), uint64(inc.JobsKilled), uint64(len(inc.Racks)))
	for _, r := range inc.Racks {
		s.put('r', uint64(r.Index()))
	}
}

// TestGoldenRuns pins two runs to constants recorded on the commit before
// the tick was restructured (PR 14's parent), so a change to the simulator,
// the scheduler or any model under them that shifts one RNG draw, one
// float operation or one recorder callback fails here. TestDeterminism
// compares two runs of one binary; this compares commits. A deliberate
// change to what a tick computes re-records the constants in the same
// commit and says so.
func TestGoldenRuns(t *testing.T) {
	cases := []struct {
		name      string
		seed      int64
		start     time.Time
		days      int
		rasLen    int
		incidents int
		samples   int
		sum       uint64
	}{
		{"seed6-14d", 6, time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago), 14, 6146, 6, 192357, 0x8c5a385e5f5c678a},
		// 2016-08-08 and 2016-08-22 are maintenance Mondays (even ISO weeks).
		{"seed42-30d-maintenance", 42, time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago), 30, 4255, 9, 412990, 0xcab288ef7f9d312c},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Two recorders: each must see the whole per-recorder sequence,
			// whatever the simulator does about the order between them.
			a, b := newStreamHash(), newStreamHash()
			s := runWindow(t, tc.seed, tc.start, tc.days, timeutil.SampleInterval, a, b)
			if got := s.Log().Len(); got != tc.rasLen {
				t.Errorf("RAS log length = %d, golden %d", got, tc.rasLen)
			}
			if got := len(s.Incidents()); got != tc.incidents {
				t.Errorf("incidents = %d, golden %d", got, tc.incidents)
			}
			if a.samples != tc.samples {
				t.Errorf("samples delivered = %d, golden %d", a.samples, tc.samples)
			}
			if got := a.h.Sum64(); got != tc.sum {
				t.Errorf("callback stream hash = %#x, golden %#x", got, tc.sum)
			}
			if a.h.Sum64() != b.h.Sum64() {
				t.Errorf("second recorder saw a different stream: %#x vs %#x", b.h.Sum64(), a.h.Sum64())
			}
		})
	}
}
