package scheduler

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/workload"
)

// TestGoldenSchedule pins 3000 ticks of a warmed scheduler — the maintenance
// Monday of 2016-08-08, rack failures and a CMF-aware avoid injected between steps — to
// constants recorded on the commit before Step was restructured (PR 14's
// parent). Every placement decision hangs off one RNG stream and off which
// tied slots shadow's sort puts first, so any reordered draw or different
// tie order lands in a different machine state long before the last tick.
// The per-tick utilization is hashed too, so a divergence that happens to
// heal is still caught.
func TestGoldenSchedule(t *testing.T) {
	const (
		goldenStarted, goldenKilled, goldenRejected, goldenCompleted = 1210, 32, 0, 1152
		goldenDepth                                                  = 22
		goldenSlots                                                  = uint64(0x1ada94877d5478e3)
		goldenUtil                                                   = uint64(0x7935fa55204152d4)
	)
	gen := workload.NewGenerator(14)
	s := New(Config{Seed: 14})
	now := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	tick := func() {
		s.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		s.Step(now)
		now = now.Add(timeutil.SampleInterval)
	}
	for i := 0; i < 600; i++ { // warm to a full machine and a standing queue
		tick()
	}
	var buf [8]byte
	put := func(h interface{ Write([]byte) (int, error) }, w uint64) {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	util := fnv.New64a()
	for i := 0; i < 3000; i++ {
		switch i {
		case 700, 2100:
			// What a CMF cascade does between two steps.
			s.FailRacks([]topology.RackID{{Row: 1, Col: 4}, {Row: 1, Col: 5}}, now.Add(5*time.Hour))
		case 1300:
			s.FailRacks([]topology.RackID{topology.BusyRack}, now.Add(time.Hour))
		case 900, 2500:
			s.Avoid(topology.RackID{Row: 2, Col: 9}, now.Add(6*time.Hour))
		}
		tick()
		put(util, math.Float64bits(s.SystemUtilization(now)))
	}

	slots := fnv.New64a()
	for i := range s.slots {
		sl := &s.slots[i]
		burner := uint64(0)
		if sl.burner {
			burner = 1
		}
		for _, at := range []time.Time{sl.busyUntil, sl.reservedUntil, sl.downUntil} {
			if at.IsZero() {
				put(slots, 0)
			} else {
				put(slots, uint64(at.UnixNano()))
			}
		}
		put(slots, uint64(sl.jobID))
		put(slots, burner)
	}

	st := s.Stats()
	want := Stats{Started: goldenStarted, Killed: goldenKilled, Rejected: goldenRejected, Completed: goldenCompleted}
	if st != want {
		t.Errorf("Stats() = %+v, golden %+v", st, want)
	}
	if got := s.QueueDepth(); got != goldenDepth {
		t.Errorf("QueueDepth() = %d, golden %d", got, goldenDepth)
	}
	if got := slots.Sum64(); got != goldenSlots {
		t.Errorf("slot state hash = %#x, golden %#x", got, goldenSlots)
	}
	if got := util.Sum64(); got != goldenUtil {
		t.Errorf("per-tick utilization hash = %#x, golden %#x", got, goldenUtil)
	}
}

// TestStepAllocations holds a warmed Step to an allocation ceiling. The
// parent of PR 14 averaged 44.2 allocations per Step in this state (the
// visit order's two buffers, a candidate list and its clear/flagged split
// per placement attempt, the shadow's sort buffer and banned map, the
// backfill pass's kept queue, complete's done map); Step now works in
// buffers it owns and on the stack and averages none. The ceiling is a tenth
// of the parent's figure. Arrivals are submitted outside the measured call:
// Submit may grow the queue's array.
func TestStepAllocations(t *testing.T) {
	gen := workload.NewGenerator(14)
	s := New(Config{Seed: 14})
	now := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	for i := 0; i < 2000; i++ { // to a full machine with some forty jobs queued
		s.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		s.Step(now)
		now = now.Add(timeutil.SampleInterval)
	}
	const rounds = 400
	var total float64
	for i := 0; i < rounds; i++ {
		// AllocsPerRun(1, f) calls f twice and counts the second call.
		s.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		s.Submit(gen.Arrivals(now.Add(timeutil.SampleInterval), timeutil.SampleInterval))
		total += testing.AllocsPerRun(1, func() {
			s.Step(now)
			now = now.Add(timeutil.SampleInterval)
		})
	}
	if avg := total / rounds; avg > 4.4 {
		t.Errorf("Step allocates %.1f times per tick, ceiling 4.4 (parent of PR 14: 44.2)", avg)
	}
}

// TestAvailabilityTracksSlots checks, after every dispatching Step of a
// loaded run, that the availability set tryPlace kept current is exactly
// slotAvailable over the slots — including after jobs whose walltime is zero
// or negative, which end by now and so leave their slots available.
func TestAvailabilityTracksSlots(t *testing.T) {
	gen := workload.NewGenerator(15)
	s := New(Config{Seed: 15})
	now := time.Date(2016, 8, 2, 0, 0, 0, 0, timeutil.Chicago)
	instant := 0
	for tick := 0; tick < 3000; tick++ {
		jobs := gen.Arrivals(now, timeutil.SampleInterval)
		for i := range jobs {
			if jobs[i].ID%5 == 0 {
				jobs[i].Walltime = time.Duration(jobs[i].ID%3-1) * time.Minute // -1, 0 or 1 minute
				if jobs[i].Walltime <= 0 {
					instant++
				}
			}
		}
		s.Submit(jobs)
		if tick == 1500 {
			s.FailRacks([]topology.RackID{{Row: 2, Col: 3}}, now.Add(3*time.Hour))
		}
		s.Step(now)
		if !s.inMaintenance {
			for i := range s.slots {
				if got, want := s.avail.has(i), s.slotAvailable(&s.slots[i], now); got != want {
					t.Fatalf("tick %d slot %d: availability set says %v, slotAvailable %v", tick, i, got, want)
				}
			}
		}
		now = now.Add(timeutil.SampleInterval)
	}
	if instant == 0 || s.Stats().Started == 0 {
		t.Fatalf("run placed %d jobs, %d of them ending at once: nothing was exercised", s.Stats().Started, instant)
	}
}
