package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mira"
	"mira/internal/analysis"
	"mira/internal/core"
	"mira/internal/mitigation"
	"mira/internal/scheduler"
	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/tsdb"
	"mira/internal/units"
	"mira/internal/workload"
)

// Oracle tolerances. The tsdb store quantizes samples to the CSV export
// precision on ingest, so figures replayed from it track the live
// collector's (which saw the unquantized samples) to about 1e-7, not bit
// for bit; the pushdown figures sum in the integer domain and agree with a
// float-order replay to summation rounding (the repo's own tests pin 1e-9).
const (
	liveVsOfflineTol    = 1e-4
	pushdownVsReplayTol = 1e-9
)

// offlineFigs are the figures a telemetry store alone can regenerate.
type offlineFigs struct {
	Fig3 analysis.CoolantTimeline
	Fig7 analysis.RackCoolant
	Fig8 analysis.AmbientTimeline
	Fig9 analysis.RackAmbient
}

func offlineFrom(c *analysis.Collector) offlineFigs {
	return offlineFigs{c.Fig3CoolantTimeline(), c.Fig7RackCoolant(), c.Fig8AmbientTimeline(), c.Fig9RackAmbient()}
}

// liveFigs are the figures that need the run itself (utilization, RAS log,
// incident windows) besides the four a store can regenerate.
type liveFigs struct {
	Offline offlineFigs
	Fig2    analysis.YearlyTrend
	Fig4    analysis.MonthlyProfile
	Fig5    analysis.WeekdayProfile
	Fig6    analysis.RackPowerUtil
	Fig10   analysis.CMFPerYear
	Fig11   analysis.CMFPerRack
	Fig12   analysis.LeadUp
	Fig14   analysis.PostCMF
	Fig15   analysis.PostCMFSpatial
}

// studyRun is a finished simulation seen through what the later stages
// need, whether mira.RunStudy or the traced assembly produced it.
type studyRun struct {
	live      func() liveFigs
	positives []sim.Window
	negatives []sim.Window
	incidents []sim.Incident
	cmfs      int
	ticks     int
}

func runFromStudy(st *mira.Study) studyRun {
	return studyRun{
		live: func() liveFigs {
			return liveFigs{
				Offline: offlineFigs{st.Fig3CoolantTimeline(), st.Fig7RackCoolant(), st.Fig8AmbientTimeline(), st.Fig9RackAmbient()},
				Fig2:    st.Fig2YearlyTrend(), Fig4: st.Fig4MonthlyProfile(), Fig5: st.Fig5WeekdayProfile(),
				Fig6: st.Fig6RackPowerUtil(), Fig10: st.Fig10CMFPerYear(), Fig11: st.Fig11CMFPerRack(),
				Fig12: st.Fig12LeadUp(), Fig14: st.Fig14PostCMF(), Fig15: st.Fig15PostCMFSpatial(),
			}
		},
		positives: st.PositiveWindows(), negatives: st.NegativeWindows(), incidents: st.Incidents(),
		cmfs: st.Fig10CMFPerYear().Total,
	}
}

// timedFanout stands in for the simulator's recorder list: it calls the
// wrapped recorders in order on every callback, like the simulator would,
// and accumulates the wall each one takes. The two per-rack callbacks fire
// millions of times, so only every sampleStride-th is timed and counted
// sampleStride times over; the stride is coprime with the 48 racks of a
// tick, so every rack position (the first one flushes the tick) is sampled
// equally often.
type timedFanout struct {
	recs  []sim.Recorder
	busy  []time.Duration
	ticks int
	calls int
}

const sampleStride = 7

func (f *timedFanout) each(weight time.Duration, call func(sim.Recorder)) {
	t := time.Now()
	for i, r := range f.recs {
		call(r)
		n := time.Now()
		f.busy[i] += weight * n.Sub(t)
		t = n
	}
}

// perRack times one call in sampleStride.
func (f *timedFanout) perRack(call func(sim.Recorder)) {
	f.calls++
	if f.calls%sampleStride == 0 {
		f.each(sampleStride, call)
		return
	}
	for _, r := range f.recs {
		call(r)
	}
}

func (f *timedFanout) OnSample(rec sensors.Record) {
	f.perRack(func(r sim.Recorder) { r.OnSample(rec) })
}

func (f *timedFanout) OnRackState(t time.Time, rack topology.RackID, util float64) {
	f.perRack(func(r sim.Recorder) { r.OnRackState(t, rack, util) })
}

func (f *timedFanout) OnTick(t time.Time, p units.Watts, util float64) {
	f.ticks++
	f.each(1, func(r sim.Recorder) { r.OnTick(t, p, util) })
}

func (f *timedFanout) OnIncident(inc sim.Incident) {
	f.each(1, func(r sim.Recorder) { r.OnIncident(inc) })
}

// tracedStudy assembles what mira.RunStudy assembles — simulator, live
// collector, incident-window recorder, store recorder, in that order — with
// the recorders behind a timedFanout, and records the split under sp.
func tracedStudy(seed int64, start, end time.Time, step time.Duration, db *tsdb.Store, sp *span) (studyRun, error) {
	col := analysis.NewCollector()
	s := sim.New(sim.Config{Seed: seed, Start: start, End: end, Step: step})
	win := sim.NewIncidentWindowRecorder(int((core.FeatureSpan+6*time.Hour)/step)+1, 250, 4000)
	rec := sim.NewEnvDBRecorder(db)
	fan := &timedFanout{recs: []sim.Recorder{col, win, rec}, busy: make([]time.Duration, 3)}
	s.AddRecorder(fan)
	run := sp.child("sim.run")
	err := s.Run()
	col.Finalize()
	run.end()
	if err == nil {
		err = rec.Err
	}
	if err != nil {
		return studyRun{}, err
	}
	run.aggregate("analysis.collect_live", fan.busy[0])
	run.aggregate("sim.window_recorder", fan.busy[1])
	run.aggregate("tsdb.append", fan.busy[2])
	positives, negatives := win.Positives(), win.Negatives(core.FeatureSpan)
	return studyRun{
		live: func() liveFigs {
			return liveFigs{
				Offline: offlineFrom(col),
				Fig2:    col.Fig2YearlyTrend(), Fig4: col.Fig4MonthlyProfile(), Fig5: col.Fig5WeekdayProfile(),
				Fig6: col.Fig6RackPowerUtil(), Fig10: analysis.Fig10CMFPerYear(s.Log()),
				Fig11: analysis.Fig11CMFPerRack(s.Log(), col), Fig12: analysis.Fig12LeadUp(positives, s.Incidents(), step),
				Fig14: analysis.Fig14PostCMF(s.Log()), Fig15: analysis.Fig15PostCMFSpatial(s.Log(), s.Incidents()),
			}
		},
		positives: positives, negatives: negatives, incidents: s.Incidents(),
		cmfs: analysis.Fig10CMFPerYear(s.Log()).Total, ticks: fan.ticks,
	}, nil
}

// studyPass is one cold `miraanalyze -data`-shaped pass: simulate into a
// store, persist, reopen, regenerate every figure, run the predictor stage.
// Untraced (tr nil) the simulation is mira.RunStudy itself.
type studyPass struct {
	wall, runWall, figuresWall, predictorWall time.Duration
	records                                   int
	diskBytes                                 int64
	crc                                       uint32
	cvAccuracy1h                              float64
	run                                       studyRun
	warm                                      *tsdb.Store // the reopened store
}

func runStudyPass(sz sizes, seed int64, dir string, tr *tracer, root *span, o *outcome) (studyPass, error) {
	var p studyPass
	step := sz.Step
	ctx := context.Background()
	db := tsdb.NewStoreWith(tsdb.Options{})
	t0 := time.Now()

	if tr == nil {
		st, err := mira.RunStudy(mira.StudyConfig{Seed: seed, Start: sz.StudyStart, End: sz.StudyEnd, Step: step, TelemetryDB: db})
		if err != nil {
			return p, fmt.Errorf("RunStudy: %w", err)
		}
		p.run = runFromStudy(st)
	} else {
		var err error
		if p.run, err = tracedStudy(seed, sz.StudyStart, sz.StudyEnd, step, db, root); err != nil {
			return p, fmt.Errorf("traced study: %w", err)
		}
	}
	p.runWall = time.Since(t0)
	p.records = db.Len()

	// Figures: persist, reopen warm, offline figures, live figures.
	tFig := time.Now()
	sp := root.child("tsdb.seal_flush")
	db.SealAll()
	err := db.Flush(dir)
	sp.end()
	if err != nil {
		return p, fmt.Errorf("flush: %w", err)
	}
	sp = root.child("tsdb.open")
	warm, err := tsdb.Open(dir, tsdb.Options{})
	sp.end()
	if err != nil {
		return p, fmt.Errorf("open: %w", err)
	}
	p.warm, p.diskBytes = warm, warm.Stats().DiskBytes
	figs, err := analyzeStore(ctx, warm, root, "analysis.pushdown", "analysis.replay")
	o.op(err)
	if err != nil {
		return p, fmt.Errorf("offline figures: %w", err)
	}
	sp = root.child("analysis.figures")
	live := p.run.live()
	sp.end()
	p.figuresWall = time.Since(tFig)

	// Predictor: tune, Fig 13 sweep, train, mitigation.
	tPred := time.Now()
	sp = root.child("core.dataset")
	ds, err := core.BuildDataset(p.run.positives, p.run.negatives, step, time.Hour, core.DeltaFeatures, seed)
	sp.end()
	if err != nil {
		return p, fmt.Errorf("dataset: %w", err)
	}
	sp = root.child("bayesopt.tune")
	hidden, err := core.TuneArchitecture(ds, core.Config{Seed: seed, Epochs: 25}, sz.TuneBudget)
	sp.end()
	if err != nil {
		return p, fmt.Errorf("tune: %w", err)
	}
	sp = root.child("core.sweep")
	points, err := core.LeadTimeSweep(p.run.positives, p.run.negatives, step, core.DefaultLeads(),
		core.Config{Seed: seed, Hidden: hidden}, core.DeltaFeatures)
	sp.end()
	if err != nil {
		return p, fmt.Errorf("lead-time sweep: %w", err)
	}
	sp = root.child("nn.train")
	trainSet, err := core.BuildDataset(p.run.positives, p.run.negatives, step, time.Hour, core.DeltaFeatures, seed+10)
	var predictor *core.Predictor
	if err == nil {
		predictor, err = core.Train(trainSet, core.Config{Seed: seed + 10})
	}
	sp.end()
	if err != nil {
		return p, fmt.Errorf("train: %w", err)
	}
	sp = root.child("mitigation.evaluate")
	report, err := mitigation.Evaluate(p.run.incidents, p.run.positives, p.run.negatives,
		mitigation.Config{Predictor: predictor, Step: step})
	sp.end()
	if err != nil {
		return p, fmt.Errorf("mitigation: %w", err)
	}
	p.predictorWall = time.Since(tPred)
	p.wall = time.Since(t0)

	// Oracles, outside every timed interval.
	o.check(warm.Len() == p.records && p.records > 0, "reopened store holds %d records, simulated %d", warm.Len(), p.records)
	o.check(figuresClose(figs.Offline, live.Offline, liveVsOfflineTol), "offline Figs 3/7/8/9 from the reopened store differ from the live collector's")
	o.check(figuresClose(figs.Push7, figs.Offline.Fig7, pushdownVsReplayTol), "Fig 7 pushdown differs from the replay")
	o.check(figuresClose(figs.Push9, figs.Offline.Fig9, pushdownVsReplayTol), "Fig 9 pushdown differs from the replay")
	for _, pt := range points {
		if pt.Lead == time.Hour {
			p.cvAccuracy1h = pt.Confusion.Accuracy()
		}
	}
	o.check(p.cvAccuracy1h >= sz.MinCVAccuracy, "1 h cross-validated accuracy %.3f below %.2f", p.cvAccuracy1h, sz.MinCVAccuracy)
	p.crc = figureCRC(figs, live, points, len(report.Incidents), p.records, len(p.run.incidents))
	return p, nil
}

// studyWarmup is study_local's set-up: a short run of the same pipeline so
// the heap, the time-zone tables and the page cache are warm before timing.
func studyWarmup(sz sizes, seed int64, dir string) error {
	db := tsdb.NewStoreWith(tsdb.Options{})
	end := sz.StudyStart.AddDate(0, 0, sz.StudyWarmupDays)
	if _, err := mira.RunStudy(mira.StudyConfig{Seed: seed, Start: sz.StudyStart, End: end, Step: sz.Step, TelemetryDB: db}); err != nil {
		return err
	}
	db.SealAll()
	if err := db.Flush(dir); err != nil {
		return err
	}
	_, err := tsdb.Open(dir, tsdb.Options{})
	return err
}

// schedulerProbe times Submit+Step on a scheduler warmed to steady state.
func schedulerProbe(seed int64, now time.Time) float64 {
	gen := workload.NewGenerator(seed)
	sched := scheduler.New(scheduler.Config{Seed: seed})
	tick := func() {
		sched.Submit(gen.Arrivals(now, timeutil.SampleInterval))
		sched.Step(now)
		now = now.Add(timeutil.SampleInterval)
	}
	for i := 0; i < 2000; i++ {
		tick()
	}
	const n = 4000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tick()
	}
	return float64(time.Since(t0).Microseconds()) / n
}

// studyReadWindows is how many windows of reads follow a pass: a pass takes
// seconds and a window of direct store calls a tenth of one.
const studyReadWindows = 4

// runStudyLocal is the study_local workload: warm up (set-up), then as many
// cold study passes as the budget holds, each followed by reads of the
// dashboard mix straight against its reopened store. Every pass simulates
// the same window, so the best pass is reported. Traced, the last pass runs
// untraced instead: it must simulate exactly what the traced assembly did,
// and the pair prices the tracing.
func runStudyLocal(sz sizes, seed int64, budget time.Duration, scratch string, tr *tracer) (*outcome, error) {
	o := newOutcome()
	warmDir := filepath.Join(scratch, "warmup")
	_, setup, err := medianOf(sz.SetupRepeats, func() (struct{}, error) {
		return struct{}{}, studyWarmup(sz, seed, warmDir)
	}, func(struct{}) { os.RemoveAll(warmDir) })
	os.RemoveAll(warmDir)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	o.e2e["setup_s"] = setup

	root := tr.begin(nil, "bench.study_local")
	dir := filepath.Join(scratch, "study")
	defer os.RemoveAll(dir)
	var passes []studyPass
	var lat []time.Duration
	err = repeatFor(budget, 1, func(i int) error {
		os.RemoveAll(dir)
		if n := len(passes); n > 0 { // only the last pass's store and windows are used again
			passes[n-1].warm, passes[n-1].run = nil, studyRun{}
		}
		runtime.GC() // each pass starts from a collected heap, whatever the last one left
		sp := root.child("bench.pass")
		p, err := runStudyPass(sz, seed, dir, tr, sp, o)
		sp.end()
		o.op(err)
		passes = append(passes, p)
		if err != nil {
			return err
		}
		// The reads follow every pass, so they sample the whole run.
		first, newest, _ := p.warm.Bounds()
		probe := root.child("bench.read_probe")
		reads := closedLoop(p.warm, dashboardSchedule(subSeed(seed, i), studyReadWindows*sz.ReadWindow, first, newest), 1, probe, "tsdb.read")
		probe.end()
		o.count(reads, nil)
		lat = append(lat, reads.latency...)
		return nil
	})
	root.end()
	if err != nil {
		return o, err
	}
	last := passes[len(passes)-1]

	var walls, runWalls, figures, predictor []float64
	for _, p := range passes {
		o.check(p.crc == last.crc && p.records == last.records, "two passes of one seed simulated different studies")
		walls = append(walls, p.wall.Seconds())
		runWalls = append(runWalls, p.runWall.Seconds())
		figures = append(figures, p.figuresWall.Seconds())
		predictor = append(predictor, p.predictorWall.Seconds())
	}
	o.e2e["wall_s"] = best(walls, "lower")
	o.e2e["records_per_s"] = float64(last.records) / best(runWalls, "lower")
	o.e2e["disk_bytes_per_sample"] = float64(last.diskBytes) / float64(last.records*int(sensors.NumMetrics))
	o.reads(lat)
	if tr == nil {
		return o, nil
	}

	n := float64(len(passes))
	self := selfTimes(tr.spans)
	sec := tr.medianSec // one span of each name per pass
	days := sz.StudyEnd.Sub(sz.StudyStart).Hours() / 24
	l := o.layer
	l["study_wall_s"] = best(walls, "lower")
	l["sim_days_per_s"] = days / best(runWalls, "lower")
	l["figures_s"] = best(figures, "lower")
	l["predictor_s"] = best(predictor, "lower")
	l["sim.run_s"] = sec("sim.run")
	l["sim.self_s"] = self["sim.run"].Seconds() / n
	l["sim.tick_us"] = l["sim.self_s"] * 1e6 / float64(last.run.ticks)
	l["scheduler.step_us"] = schedulerProbe(seed, sz.StudyStart)
	l["sim.window_recorder_s"] = sec("sim.window_recorder")
	l["analysis.collect_live_s"] = sec("analysis.collect_live")
	l["tsdb.append_s"] = sec("tsdb.append")
	l["tsdb.append_ns_per_record"] = sec("tsdb.append") * 1e9 / float64(last.records)
	l["sim.ticks"] = float64(last.run.ticks)
	l["sim.records"] = float64(last.records)
	l["sim.incidents"] = float64(len(last.run.incidents))
	l["sim.cmfs"] = float64(last.run.cmfs)
	l["tsdb.seal_flush_s"] = sec("tsdb.seal_flush")
	l["tsdb.open_s"] = sec("tsdb.open")
	l["tsdb.disk_bytes"] = float64(last.diskBytes)
	l["analysis.replay_s"] = sec("analysis.replay")
	l["analysis.pushdown_s"] = sec("analysis.pushdown")
	l["analysis.figures_ms"] = sec("analysis.figures") * 1e3
	l["analysis.figure_crc32"] = float64(last.crc)
	l["core.dataset_ms"] = sec("core.dataset") * 1e3
	l["bayesopt.tune_s"] = sec("bayesopt.tune")
	l["core.sweep_s"] = sec("core.sweep")
	l["nn.train_ms"] = sec("nn.train") * 1e3
	l["mitigation.evaluate_ms"] = sec("mitigation.evaluate") * 1e3
	l["core.cv_accuracy_1h"] = last.cvAccuracy1h
	l["bench.selftime_coverage"] = layerCoverage(tr.spans)

	os.RemoveAll(dir)
	plain, err := runStudyPass(sz, seed, dir, nil, nil, o)
	o.op(err)
	if err != nil {
		return o, err
	}
	o.check(plain.crc == last.crc && plain.records == last.records && plain.run.cmfs == last.run.cmfs,
		"the traced assembly simulated something else than mira.RunStudy")
	l["bench.trace_overhead_pct"] = (median(walls)/plain.wall.Seconds() - 1) * 100
	return o, nil
}
