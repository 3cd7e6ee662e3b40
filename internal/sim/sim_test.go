package sim

import (
	"testing"
	"time"

	"mira/internal/envdb"
	"mira/internal/ras"
	"mira/internal/sensors"
	"mira/internal/stats"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

// runWindow runs a simulator over [start, start+days) with the given step
// and recorders.
func runWindow(t *testing.T, seed int64, start time.Time, days int, step time.Duration, recs ...Recorder) *Simulator {
	t.Helper()
	s := New(Config{Seed: seed, Start: start, End: start.AddDate(0, 0, days), Step: step})
	for _, r := range recs {
		s.AddRecorder(r)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunEmptyWindow(t *testing.T) {
	s := New(Config{Seed: 1, Start: timeutil.ProductionStart, End: timeutil.ProductionStart})
	if err := s.Run(); err == nil {
		t.Error("empty window should error")
	}
}

func TestSmokeWeekTelemetry(t *testing.T) {
	db := envdb.NewStore()
	rec := NewEnvDBRecorder(db)
	sys := &SystemSeries{}
	start := time.Date(2015, 4, 7, 0, 0, 0, 0, timeutil.Chicago)
	runWindow(t, 2, start, 7, timeutil.SampleInterval, rec, sys)
	if rec.Err != nil {
		t.Fatalf("envdb recorder error: %v", rec.Err)
	}
	// 7 days × 288 ticks × ≤48 racks.
	if db.Len() < 7*288*40 || db.Len() > 7*288*48 {
		t.Errorf("stored records = %d", db.Len())
	}
	// Telemetry plausibility: inlet ≈64, outlet ≈70-80, flow ≈26.
	var inlet, outlet, flow, power []float64
	db.EachRecord(func(r sensors.Record) {
		inlet = append(inlet, float64(r.InletTemp))
		outlet = append(outlet, float64(r.OutletTemp))
		flow = append(flow, float64(r.Flow))
		power = append(power, float64(r.Power))
	})
	if m := stats.Mean(inlet); m < 63 || m > 66 {
		t.Errorf("mean inlet = %v, want ≈64", m)
	}
	if m := stats.Mean(outlet); m < 72 || m > 82 {
		t.Errorf("mean outlet = %v, want ≈77-79", m)
	}
	if m := stats.Mean(flow); m < 24 || m > 29 {
		t.Errorf("mean rack flow = %v, want ≈26-27", m)
	}
	if m := stats.Mean(power); m < 40000 || m > 65000 {
		t.Errorf("mean rack power = %v, want ≈55 kW", m)
	}
	if stats.Mean(outlet) <= stats.Mean(inlet)+8 {
		t.Error("outlet should run well above inlet")
	}
	// System series sane.
	if len(sys.PowerMW) != 7*288 {
		t.Errorf("system ticks = %d", len(sys.PowerMW))
	}
	if m := stats.Mean(sys.PowerMW); m < 2.1 || m > 3.1 {
		t.Errorf("system power = %v MW", m)
	}
	if m := stats.Mean(sys.Utilization); m < 0.6 || m > 1.0 {
		t.Errorf("utilization = %v", m)
	}
}

func TestIncidentsDetectedDuringThetaSurge(t *testing.T) {
	// August–September 2016 is the failure-dense period; a two-month run
	// should detect several incidents purely from sensor thresholds.
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	win := NewIncidentWindowRecorder(72, 288, 500)
	s := runWindow(t, 3, start, 60, timeutil.SampleInterval, win)
	incs := s.Incidents()
	if len(incs) < 3 {
		t.Fatalf("incidents in Theta surge = %d, want several", len(incs))
	}
	for _, inc := range incs {
		if len(inc.Racks) < 1 || inc.Racks[0] != inc.Epicenter {
			t.Errorf("incident cascade malformed: %+v", inc)
		}
	}
	// The RAS log should hold storm messages (way more than incidents).
	if s.Log().Len() < len(incs)*100 {
		t.Errorf("RAS log = %d events for %d incidents, expected storms", s.Log().Len(), len(incs))
	}
	// Deduped CMF count equals the total racks affected (within window).
	dedup := s.Log().DedupCMF()
	wantCounts := 0
	for _, inc := range incs {
		wantCounts += len(inc.Racks)
	}
	if len(dedup) < wantCounts*8/10 || len(dedup) > wantCounts {
		t.Errorf("deduped CMFs = %d, incidents cover %d racks", len(dedup), wantCounts)
	}
	// Positive windows captured for affected racks.
	if len(win.Positives()) == 0 {
		t.Error("no positive windows captured")
	}
	// Negatives exist and exclude CMF neighborhoods.
	negs := win.Negatives(6 * time.Hour)
	if len(negs) == 0 {
		t.Error("no negative windows")
	}
	for _, w := range negs {
		if len(w.Records) != 72 {
			t.Fatalf("negative window has %d records, want 72", len(w.Records))
		}
	}
}

func TestIncidentKillsJobsAndDownsRacks(t *testing.T) {
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	s := runWindow(t, 4, start, 45, timeutil.SampleInterval)
	incs := s.Incidents()
	if len(incs) == 0 {
		t.Skip("no incidents this seed/window")
	}
	killed := 0
	for _, inc := range incs {
		killed += inc.JobsKilled
	}
	if killed == 0 {
		t.Error("incidents on a ~90% utilized machine should kill jobs")
	}
}

func TestPreCMFSignatureInWindows(t *testing.T) {
	// The captured positive windows must show the paper's Fig. 12 shape:
	// inlet dips midway then spikes at the end; flow collapses at the end.
	start := time.Date(2016, 6, 1, 0, 0, 0, 0, timeutil.Chicago)
	win := NewIncidentWindowRecorder(72, 0, 0)
	s := runWindow(t, 5, start, 90, timeutil.SampleInterval, win)
	pos := win.Positives()
	if len(pos) == 0 {
		t.Skip("no incidents captured")
	}
	// Average across epicenter windows only (cascade racks lack the local
	// flow collapse).
	epicenters := make(map[topology.RackID]map[time.Time]bool)
	for _, inc := range s.Incidents() {
		if epicenters[inc.Epicenter] == nil {
			epicenters[inc.Epicenter] = make(map[time.Time]bool)
		}
		epicenters[inc.Epicenter][inc.Time] = true
	}
	var dipSum, endSum, flowEndSum float64
	n := 0
	for _, w := range pos {
		if epicenters[w.Rack] == nil || !epicenters[w.Rack][w.End] {
			continue
		}
		recs := w.Records
		base := float64(recs[0].InletTemp)
		mid := float64(recs[len(recs)/2].InletTemp) // ≈3h before
		end := float64(recs[len(recs)-1].InletTemp) // at failure
		flowBase := float64(recs[0].Flow)
		flowEnd := float64(recs[len(recs)-1].Flow)
		dipSum += (mid - base) / base
		endSum += (end - base) / base
		flowEndSum += flowEnd / flowBase
		n++
	}
	if n == 0 {
		t.Skip("no epicenter windows")
	}
	dip := dipSum / float64(n)
	end := endSum / float64(n)
	flowEnd := flowEndSum / float64(n)
	if dip > -0.02 {
		t.Errorf("mean inlet mid-window dip = %v, want ≈-5%%", dip)
	}
	if end < 0.04 {
		t.Errorf("mean inlet end spike = %v, want ≈+8%%", end)
	}
	if flowEnd > 0.75 {
		t.Errorf("mean final flow fraction = %v, want ≈0.55", flowEnd)
	}
}

func TestDeterminism(t *testing.T) {
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	run := func() (int, int, float64) {
		db := envdb.NewDownsampledStore(12)
		rec := NewEnvDBRecorder(db)
		s := runWindow(t, 6, start, 14, timeutil.SampleInterval, rec)
		var sum float64
		db.EachRecord(func(r sensors.Record) { sum += float64(r.Power) })
		return s.Log().Len(), len(s.Incidents()), sum
	}
	l1, i1, s1 := run()
	l2, i2, s2 := run()
	if l1 != l2 || i1 != i2 || s1 != s2 {
		t.Errorf("non-deterministic run: (%d,%d,%v) vs (%d,%d,%v)", l1, i1, s1, l2, i2, s2)
	}
}

func TestDownRacksStopReporting(t *testing.T) {
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	db := envdb.NewStore()
	rec := NewEnvDBRecorder(db)
	s := runWindow(t, 7, start, 45, timeutil.SampleInterval, rec)
	incs := s.Incidents()
	if len(incs) == 0 {
		t.Skip("no incidents this window")
	}
	inc := incs[0]
	// In the hour after the failure, the epicenter should have no samples.
	recs := db.Query(inc.Epicenter, inc.Time.Add(timeutil.SampleInterval), inc.Time.Add(time.Hour))
	if len(recs) != 0 {
		t.Errorf("down rack reported %d samples after failure", len(recs))
	}
}

func TestPostCMFEventsAppearInLog(t *testing.T) {
	start := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	s := runWindow(t, 8, start, 60, timeutil.SampleInterval)
	if len(s.Incidents()) == 0 {
		t.Skip("no incidents")
	}
	nonCMF := s.Log().DedupNonCMF()
	if len(nonCMF) == 0 {
		t.Error("post-CMF/background non-CMF failures should appear in the log")
	}
	types := ras.CountByType(nonCMF)
	if types[ras.CoolantMonitor] != 0 {
		t.Error("non-CMF dedup should exclude coolant monitor events")
	}
}

func TestMondayPowerDip(t *testing.T) {
	// Across 8 weeks, mean Monday power should sit below non-Monday power
	// (maintenance burners), and utilization should dip only slightly.
	sys := &SystemSeries{}
	start := time.Date(2015, 3, 1, 0, 0, 0, 0, timeutil.Chicago)
	runWindow(t, 9, start, 56, 2*timeutil.SampleInterval, sys)
	var monP, otherP, monU, otherU series2
	for i, ts := range sys.Times {
		if ts.Weekday() == time.Monday {
			monP.add(sys.PowerMW[i])
			monU.add(sys.Utilization[i])
		} else {
			otherP.add(sys.PowerMW[i])
			otherU.add(sys.Utilization[i])
		}
	}
	if monP.mean() >= otherP.mean() {
		t.Errorf("Monday power %v should be below other days %v", monP.mean(), otherP.mean())
	}
	powerDip := (otherP.mean() - monP.mean()) / monP.mean()
	utilDip := (otherU.mean() - monU.mean()) / monU.mean()
	if powerDip < 0.01 || powerDip > 0.15 {
		t.Errorf("non-Monday power increase = %v, want ≈6%%", powerDip)
	}
	if utilDip > powerDip {
		t.Errorf("utilization dip (%v) should be smaller than power dip (%v)", utilDip, powerDip)
	}
}

type series2 struct {
	sum float64
	n   int
}

func (s *series2) add(v float64) { s.sum += v; s.n++ }
func (s *series2) mean() float64 { return s.sum / float64(s.n) }

func TestSupplyAffectsInletSeasonally(t *testing.T) {
	// Winter inlet (economizer) should read slightly warmer than late
	// spring inlet (chillers).
	inletMean := func(start time.Time) float64 {
		db := envdb.NewDownsampledStore(6)
		rec := NewEnvDBRecorder(db)
		runWindow(t, 10, start, 28, 2*timeutil.SampleInterval, rec)
		var vals []float64
		db.EachRecord(func(r sensors.Record) { vals = append(vals, float64(r.InletTemp)) })
		return stats.Mean(vals)
	}
	jan := inletMean(time.Date(2015, 1, 5, 0, 0, 0, 0, timeutil.Chicago))
	may := inletMean(time.Date(2015, 4, 20, 0, 0, 0, 0, timeutil.Chicago))
	if jan <= may {
		t.Errorf("January inlet %v should exceed May inlet %v (economizer penalty)", jan, may)
	}
}

func TestNopRecorder(t *testing.T) {
	var r NopRecorder
	r.OnSample(sensors.Record{})
	r.OnTick(time.Time{}, units.MW(1), 0.5)
	r.OnIncident(Incident{})
}

func TestExcursionsRaiseAmbientPeaks(t *testing.T) {
	// A year-long run should contain a handful of room-cooling upsets that
	// push the ambient temperature beyond the regulated band (paper §V:
	// excursions during power outages and extreme weather).
	db := envdb.NewDownsampledStore(6)
	rec := NewEnvDBRecorder(db)
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, timeutil.Chicago)
	runWindow(t, 12, start, 365, 2*timeutil.SampleInterval, rec)
	var maxTemp float64
	db.EachRecord(func(r sensors.Record) {
		if v := float64(r.DCTemperature); v > maxTemp {
			maxTemp = v
		}
	})
	// The paper's Fig. 8 tops out near 90 °F; our per-rack sample maximum
	// additionally carries the row-end airflow offset tail.
	if maxTemp < 86 || maxTemp > 98 {
		t.Errorf("peak ambient temperature = %v, want ≈88-97 °F during excursions", maxTemp)
	}
}

func TestExcursionDeltaShape(t *testing.T) {
	s := New(Config{Seed: 13, Start: timeutil.ProductionStart, End: timeutil.ProductionStart.AddDate(1, 0, 0)})
	if len(s.excursions) < 2 || len(s.excursions) > 7 {
		t.Fatalf("excursions per year = %d, want ≈4", len(s.excursions))
	}
	e := s.excursions[0]
	mid := e.start.Add(e.end.Sub(e.start) / 2)
	if d := s.excursionDelta(mid); d < e.peak*0.9 {
		t.Errorf("mid-excursion delta = %v, want ≈peak %v", d, e.peak)
	}
	if d := s.excursionDelta(e.start.Add(-time.Hour)); d != 0 {
		t.Errorf("pre-excursion delta = %v, want 0", d)
	}
	if d := s.excursionDelta(e.end.Add(time.Hour)); d != 0 {
		t.Errorf("post-excursion delta = %v, want 0", d)
	}
	if e.peak < 4 || e.peak > 10 {
		t.Errorf("peak = %v out of range", e.peak)
	}
}

func TestDriftingSensorDoesNotTriggerFalseCMFs(t *testing.T) {
	// The monitor on rack (2,B) drifts on its outlet channel from September
	// 2016 until its mid-2017 replacement (the paper's one replaced
	// sensor). The outlet has no alarm thresholds, so the drift must show
	// in telemetry without producing failures in quiet months.
	db := envdb.NewDownsampledStore(6)
	rec := NewEnvDBRecorder(db)
	// 2017 is the quiet year: the failure schedule has zero episodes.
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, timeutil.Chicago)
	s := runWindow(t, 14, start, 120, 2*timeutil.SampleInterval, rec)
	if n := len(s.Incidents()); n != 0 {
		t.Errorf("quiet-year incidents = %d, want 0 (drift must not alarm)", n)
	}
	// The drifting rack's outlet reads high relative to its neighbors.
	drifting := topology.RackID{Row: 2, Col: 0xB}
	neighbor := topology.RackID{Row: 2, Col: 0xA}
	var driftSum, neighSum float64
	var driftN, neighN int
	db.EachRecord(func(r sensors.Record) {
		switch r.Rack {
		case drifting:
			driftSum += float64(r.OutletTemp)
			driftN++
		case neighbor:
			neighSum += float64(r.OutletTemp)
			neighN++
		}
	})
	if driftN == 0 || neighN == 0 {
		t.Fatal("missing telemetry")
	}
	if driftSum/float64(driftN)-neighSum/float64(neighN) < 0.15 {
		t.Errorf("drifting sensor should read visibly high: %v vs %v",
			driftSum/float64(driftN), neighSum/float64(neighN))
	}
}

// rackStateSleeper spends its time in OnRackState only.
type rackStateSleeper struct {
	NopRecorder
	nap time.Duration
}

func (r rackStateSleeper) OnRackState(time.Time, topology.RackID, float64) { time.Sleep(r.nap) }

func TestFanoutHistogramCoversEveryCallback(t *testing.T) {
	// mira_sim_recorder_fanout_seconds is the per-tick wall clock spent in
	// recorder callbacks — all four of them, not only OnTick and OnSample.
	const nap = 200 * time.Microsecond
	ticks := 4
	start := time.Date(2015, 4, 7, 0, 0, 0, 0, timeutil.Chicago)
	s := New(Config{Seed: 2, Start: start, End: start.Add(time.Duration(ticks) * timeutil.SampleInterval)})
	s.AddRecorder(rackStateSleeper{nap: nap})
	count, sum := metFanout.Count(), metFanout.Sum()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := metFanout.Count() - count; got != uint64(ticks) {
		t.Errorf("fan-out observations = %d, want one per tick (%d)", got, ticks)
	}
	slept := (time.Duration(ticks*topology.NumRacks) * nap).Seconds()
	if got := metFanout.Sum() - sum; got < slept {
		t.Errorf("fan-out histogram grew by %.4fs over a run that slept %.4fs in OnRackState", got, slept)
	}
}
