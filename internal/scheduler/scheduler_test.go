package scheduler

import (
	"testing"
	"time"

	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/workload"
)

// mkJob builds a simple test job.
func mkJob(id int64, q workload.Queue, midplanes int, walltime time.Duration) workload.Job {
	return workload.Job{
		ID: id, Queue: q, Midplanes: midplanes, Walltime: walltime,
		Intensity: 1.0, AffinityCol: -1,
	}
}

// aTuesday returns a quiet (non-maintenance) start time.
func aTuesday() time.Time {
	return time.Date(2015, 6, 2, 0, 0, 0, 0, timeutil.Chicago)
}

func TestPlaceAndComplete(t *testing.T) {
	s := New(Config{Seed: 1})
	now := aTuesday()
	s.Submit([]workload.Job{mkJob(1, workload.ProdShort, 4, 2*time.Hour)})
	s.Step(now)
	if got := s.SystemUtilization(now); got != 4.0/96.0 {
		t.Errorf("utilization = %v, want %v", got, 4.0/96.0)
	}
	if s.Stats().Started != 1 {
		t.Errorf("started = %d", s.Stats().Started)
	}
	// After walltime the job completes.
	later := now.Add(3 * time.Hour)
	s.Step(later)
	if got := s.SystemUtilization(later); got != 0 {
		t.Errorf("post-completion utilization = %v", got)
	}
	if s.Stats().Completed != 1 {
		t.Errorf("completed = %d", s.Stats().Completed)
	}
}

func TestProdLongPrefersRow0(t *testing.T) {
	s := New(Config{Seed: 2})
	now := aTuesday()
	// 20 prod-long jobs of 2 midplanes = 40 midplanes demanded; row 0 holds
	// 32, the remaining 8 spill onto the other rows.
	var jobs []workload.Job
	for i := int64(1); i <= 20; i++ {
		jobs = append(jobs, mkJob(i, workload.ProdLong, 2, 4*time.Hour))
	}
	s.Submit(jobs)
	s.Step(now)
	// Row 0 saturated first.
	for _, r := range topology.RowRacks(0) {
		if u := s.RackUtilization(r, now); u != 1 {
			t.Errorf("row-0 rack %v utilization = %v, want 1", r, u)
		}
	}
	spilled := 0.0
	for row := 1; row < 3; row++ {
		for _, r := range topology.RowRacks(row) {
			spilled += s.RackUtilization(r, now) * topology.MidplanesPerRack
		}
	}
	if spilled != 8 {
		t.Errorf("spilled midplanes = %v, want 8", spilled)
	}
	if len(s.queue) != 0 {
		t.Errorf("queue depth = %d, want 0", len(s.queue))
	}
}

func TestOrdinaryJobsFillWholeMachine(t *testing.T) {
	s := New(Config{Seed: 3})
	now := aTuesday()
	// 96 midplanes of ordinary work fills the machine.
	var jobs []workload.Job
	for i := int64(1); i <= 24; i++ {
		jobs = append(jobs, mkJob(i, workload.ProdShort, 4, 4*time.Hour))
	}
	s.Submit(jobs)
	s.Step(now)
	if u := s.SystemUtilization(now); u != 1 {
		t.Errorf("utilization = %v, want 1", u)
	}
}

func TestAffinityPlacement(t *testing.T) {
	s := New(Config{Seed: 4})
	now := aTuesday()
	j := mkJob(1, workload.ProdShort, 6, 4*time.Hour)
	j.AffinityCol = 0xB
	s.Submit([]workload.Job{j})
	s.Step(now)
	// All six midplanes should land on column B racks (3 racks × 2), with
	// the habitual target (0,B) covered first.
	for row := 0; row < 3; row++ {
		r := topology.RackID{Row: row, Col: 0xB}
		if u := s.RackUtilization(r, now); u != 1 {
			t.Errorf("affinity rack %v utilization = %v, want 1", r, u)
		}
	}
}

func TestCapabilityHeadBlocksQueue(t *testing.T) {
	// A negative base disables backfilling outright (0 would mean "use the
	// default").
	s := New(Config{Seed: 5, BackfillBase: -10, BackfillGrowthPerYear: 0.0001})
	now := aTuesday()
	// Fill half the machine with long jobs.
	var fill []workload.Job
	for i := int64(1); i <= 12; i++ {
		fill = append(fill, mkJob(i, workload.ProdShort, 4, 10*time.Hour))
	}
	s.Submit(fill)
	s.Step(now)
	// Now a full-machine capability job heads the queue, followed by small jobs.
	s.Submit([]workload.Job{mkJob(100, workload.ProdCapability, 96, 2*time.Hour)})
	s.Submit([]workload.Job{mkJob(101, workload.ProdShort, 1, time.Hour)})
	now = now.Add(timeutil.SampleInterval)
	s.Step(now)
	// With backfill ≈ 0, the small job must wait behind the capability job.
	if s.Stats().Started != 12 {
		t.Errorf("started = %d, want 12 (capability drains, small blocked)", s.Stats().Started)
	}
}

func TestBackfillFillsHoles(t *testing.T) {
	s := New(Config{Seed: 6, BackfillBase: 0.98})
	now := aTuesday()
	// Fill part of the machine so the capability job cannot start.
	s.Submit([]workload.Job{mkJob(1, workload.ProdShort, 4, 8*time.Hour)})
	s.Step(now)
	// A full-machine job heads the queue (drain begins), followed by a
	// short job that ends before the drain completes.
	now = now.Add(timeutil.SampleInterval)
	s.Submit([]workload.Job{
		mkJob(100, workload.ProdCapability, 96, 2*time.Hour),
		mkJob(101, workload.ProdShort, 2, time.Hour),    // ends before shadow
		mkJob(102, workload.ProdShort, 2, 48*time.Hour), // would delay the head
	})
	s.Step(now)
	// Job 101 should backfill; job 102 must not (it would delay the head,
	// and the head needs every slot).
	if got := s.SystemUtilization(now); got != 6.0/96.0 {
		t.Errorf("utilization = %v, want %v (jobs 1+101 only)", got, 6.0/96.0)
	}
	if s.Stats().Started != 2 {
		t.Errorf("started = %d, want 2", s.Stats().Started)
	}
}

func TestMaintenanceMonday(t *testing.T) {
	s := New(Config{Seed: 7, MaintenanceEvery: 1, ServiceFraction: 0.25})
	// Saturate the machine on Sunday.
	now := time.Date(2015, 6, 7, 0, 0, 0, 0, timeutil.Chicago) // Sunday
	var jobs []workload.Job
	for i := int64(1); i <= 24; i++ {
		jobs = append(jobs, mkJob(i, workload.ProdShort, 4, 48*time.Hour))
	}
	s.Submit(jobs)
	s.Step(now)
	if u := s.SystemUtilization(now); u != 1 {
		t.Fatalf("pre-maintenance utilization = %v, want 1", u)
	}
	// Monday 10 AM: in maintenance.
	mon := time.Date(2015, 6, 8, 10, 0, 0, 0, timeutil.Chicago)
	s.Step(mon)
	util := s.SystemUtilization(mon)
	// Burners keep most midplanes busy; the service fraction is down.
	if util < 0.55 || util > 0.9 {
		t.Errorf("maintenance utilization = %v, want ≈0.75", util)
	}
	if s.Stats().Killed == 0 {
		t.Error("maintenance should kill running user jobs")
	}
	// All busy midplanes should be burners at low intensity.
	snap := s.Snapshot(mon)
	for i, mp := range snap {
		if mp.State == Busy {
			t.Errorf("midplane %d running user job during maintenance", i)
		}
		if mp.State == Burning && mp.Intensity != workload.BurnerIntensity {
			t.Errorf("burner intensity = %v", mp.Intensity)
		}
	}
	// Tuesday: window over, machine accepts jobs again.
	tue := time.Date(2015, 6, 9, 12, 0, 0, 0, timeutil.Chicago)
	s.Step(tue)
	s.Submit([]workload.Job{mkJob(100, workload.ProdShort, 4, time.Hour)})
	s.Step(tue.Add(timeutil.SampleInterval))
	if s.Stats().Started != 25 {
		t.Errorf("started = %d, want 25", s.Stats().Started)
	}
}

func TestFailRacksKillsJobsAndTakesRacksDown(t *testing.T) {
	s := New(Config{Seed: 8})
	now := aTuesday()
	var jobs []workload.Job
	for i := int64(1); i <= 24; i++ {
		jobs = append(jobs, mkJob(i, workload.ProdShort, 4, 10*time.Hour))
	}
	s.Submit(jobs)
	s.Step(now)
	victim := topology.RackID{Row: 1, Col: 3}
	until := now.Add(6 * time.Hour)
	killed := s.FailRacks([]topology.RackID{victim}, until)
	if killed == 0 {
		t.Error("failing a busy rack should kill jobs")
	}
	if !s.RackDown(victim, now.Add(time.Hour)) {
		t.Error("rack should be down after failure")
	}
	if s.RackDown(victim, until.Add(time.Hour)) {
		t.Error("rack should recover after the outage window")
	}
	if u := s.RackUtilization(victim, now.Add(time.Hour)); u != 0 {
		t.Errorf("failed rack utilization = %v", u)
	}
	// Down midplanes are reported Down in the snapshot.
	snap := s.Snapshot(now.Add(time.Hour))
	base := victim.Index() * topology.MidplanesPerRack
	if snap[base].State != Down || snap[base+1].State != Down {
		t.Error("snapshot should show rack Down")
	}
}

func TestMultiRackJobKilledOnce(t *testing.T) {
	s := New(Config{Seed: 9})
	now := aTuesday()
	// One 8-midplane job spans racks; failing one rack kills the whole job.
	s.Submit([]workload.Job{mkJob(1, workload.ProdShort, 8, 10*time.Hour)})
	s.Step(now)
	// Find a rack the job landed on.
	var rack topology.RackID
	found := false
	for _, r := range topology.AllRacks() {
		if s.RackUtilization(r, now) > 0 {
			rack = r
			found = true
			break
		}
	}
	if !found {
		t.Fatal("job not placed")
	}
	killed := s.FailRacks([]topology.RackID{rack}, now.Add(6*time.Hour))
	if killed != 1 {
		t.Errorf("killed = %d, want 1", killed)
	}
	// The job is gone everywhere, not just on the failed rack.
	if u := s.SystemUtilization(now); u != 0 {
		t.Errorf("utilization after kill = %v", u)
	}
}

func TestQueueLimitRejects(t *testing.T) {
	s := New(Config{Seed: 10, QueueLimit: 5})
	var jobs []workload.Job
	for i := int64(1); i <= 10; i++ {
		jobs = append(jobs, mkJob(i, workload.ProdCapability, 96, time.Hour))
	}
	s.Submit(jobs)
	if len(s.queue) != 5 {
		t.Errorf("queue depth = %d, want 5", len(s.queue))
	}
	if s.Stats().Rejected != 5 {
		t.Errorf("rejected = %d, want 5", s.Stats().Rejected)
	}
}

func TestUtilizationCalibration(t *testing.T) {
	// Drive the scheduler with the real workload generator for two months in
	// 2014 and two in 2019; mean utilization should bracket the paper's
	// 80% → 93% growth. This is the load-bearing calibration behind Fig. 2.
	if testing.Short() {
		t.Skip("calibration run skipped in -short mode")
	}
	run := func(start time.Time, seed int64) float64 {
		gen := workload.NewGenerator(seed)
		s := New(Config{Seed: seed})
		var util, n float64
		step := 2 * timeutil.SampleInterval
		for now, end := start, start.Add(60*24*time.Hour); now.Before(end); now = now.Add(step) {
			s.Submit(gen.Arrivals(now, step))
			s.Step(now)
			util += s.SystemUtilization(now)
			n++
		}
		return util / n
	}
	early := run(time.Date(2014, 3, 1, 0, 0, 0, 0, timeutil.Chicago), 11)
	late := run(time.Date(2019, 3, 1, 0, 0, 0, 0, timeutil.Chicago), 12)
	if early < 0.72 || early > 0.88 {
		t.Errorf("2014 utilization = %v, want ≈0.80", early)
	}
	if late < 0.86 || late > 0.97 {
		t.Errorf("2019 utilization = %v, want ≈0.93", late)
	}
	if late <= early {
		t.Errorf("utilization should grow: %v -> %v", early, late)
	}
}

func TestQueueStatsAccounting(t *testing.T) {
	gen := workload.NewGenerator(20)
	s := New(Config{Seed: 20})
	now := aTuesday()
	for i := 0; i < 2000; i++ { // ~one week
		s.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		s.Step(now)
		now = now.Add(timeutil.SampleInterval)
	}
	short := s.QueueStatsFor(workload.ProdShort)
	long := s.QueueStatsFor(workload.ProdLong)
	if short.Started == 0 || long.Started == 0 {
		t.Fatalf("queues should have started jobs: short=%d long=%d", short.Started, long.Started)
	}
	if short.MeanWaitHours() < 0 || long.MeanWaitHours() < 0 {
		t.Error("negative wait times")
	}
	// Requested walltimes respect the generator's distributions.
	if long.MeanRunHours() <= short.MeanRunHours() {
		t.Errorf("prod-long mean walltime (%v) should exceed prod-short (%v)",
			long.MeanRunHours(), short.MeanRunHours())
	}
	if short.MidplaneHours <= 0 || long.MidplaneHours <= 0 {
		t.Error("midplane-hours should accumulate")
	}
	// Totals agree with the Started counter.
	cap := s.QueueStatsFor(workload.ProdCapability)
	if short.Started+long.Started+cap.Started != s.Stats().Started {
		t.Errorf("per-queue starts %d+%d+%d != total %d",
			short.Started, long.Started, cap.Started, s.Stats().Started)
	}
}

func TestSchedulerInvariants(t *testing.T) {
	// Drive the scheduler with a random mixed workload and check structural
	// invariants every tick: busy midplanes never exceed capacity, a
	// running job occupies exactly its requested midplanes, and utilization
	// stays in [0, 1].
	gen := workload.NewGenerator(30)
	s := New(Config{Seed: 30})
	now := aTuesday()
	for tick := 0; tick < 3000; tick++ {
		s.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		s.Step(now)

		if u := s.SystemUtilization(now); u < 0 || u > 1 {
			t.Fatalf("tick %d: utilization %v out of [0,1]", tick, u)
		}
		snap := s.Snapshot(now)
		if len(snap) != topology.NumMidplanes {
			t.Fatalf("snapshot size %d", len(snap))
		}
		perJob := make(map[int64]int)
		busy := 0
		for i, mp := range snap {
			switch mp.State {
			case Busy:
				busy++
				if mp.Intensity < 0.5 || mp.Intensity > 1.5 {
					t.Fatalf("tick %d midplane %d: intensity %v", tick, i, mp.Intensity)
				}
				perJob[s.slots[i].jobID]++
			case Burning:
				busy++
			}
		}
		if busy > topology.NumMidplanes {
			t.Fatalf("tick %d: %d busy midplanes", tick, busy)
		}
		// Occasionally fail a random rack and confirm cleanup.
		if tick%977 == 500 {
			victim := topology.RackByIndex(tick % topology.NumRacks)
			s.FailRacks([]topology.RackID{victim}, now.Add(2*time.Hour))
			if u := s.RackUtilization(victim, now); u != 0 {
				t.Fatalf("failed rack %v still busy: %v", victim, u)
			}
		}
		now = now.Add(timeutil.SampleInterval)
	}
	// Conservation: started jobs are either completed, killed, or running.
	st := s.Stats()
	running := make(map[int64]bool)
	for i := range s.slots {
		if s.slots[i].jobID > 0 && s.slots[i].busyUntil > now.UnixNano() {
			running[s.slots[i].jobID] = true
		}
	}
	if st.Completed+st.Killed+int64(len(running)) < st.Started {
		t.Errorf("job conservation violated: started=%d completed=%d killed=%d running=%d",
			st.Started, st.Completed, st.Killed, len(running))
	}
}

func TestAvoidSteersPlacement(t *testing.T) {
	s := New(Config{Seed: 40})
	now := aTuesday()
	victim := topology.RackID{Row: 1, Col: 6}
	s.Avoid(victim, now.Add(6*time.Hour))
	// Offer less work than the machine holds: the flagged rack must stay
	// empty while alternatives exist.
	var jobs []workload.Job
	for i := int64(1); i <= 20; i++ {
		jobs = append(jobs, mkJob(i, workload.ProdShort, 4, 4*time.Hour))
	}
	s.Submit(jobs)
	s.Step(now)
	if u := s.RackUtilization(victim, now); u != 0 {
		t.Errorf("avoided rack utilization = %v, want 0", u)
	}
	if s.SystemUtilization(now) < 0.8 {
		t.Error("other racks should absorb the work")
	}
	// When the machine is otherwise full, the flagged rack is still usable
	// (soft avoid, not a hard drain).
	s2 := New(Config{Seed: 41})
	s2.Avoid(victim, now.Add(6*time.Hour))
	var fill []workload.Job
	for i := int64(1); i <= 24; i++ {
		fill = append(fill, mkJob(i, workload.ProdShort, 4, 4*time.Hour))
	}
	s2.Submit(fill)
	s2.Step(now)
	if u := s2.SystemUtilization(now); u != 1 {
		t.Errorf("soft avoid must not strand capacity: utilization %v", u)
	}
	// After the deadline the rack is ordinary again.
	later := now.Add(7 * time.Hour)
	s.Step(later)
	s.Submit([]workload.Job{func() workload.Job {
		j := mkJob(100, workload.ProdShort, 6, time.Hour)
		j.AffinityCol = victim.Col
		return j
	}()})
	s.Step(later.Add(timeutil.SampleInterval))
	if u := s.RackUtilization(victim, later.Add(timeutil.SampleInterval)); u == 0 {
		t.Error("expired avoid flag should allow placement again")
	}
}
