package failure

import (
	"math"
	"testing"
	"time"

	"mira/internal/ras"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

func TestEpisodeSignatureShape(t *testing.T) {
	trigger := time.Date(2016, 8, 1, 12, 0, 0, 0, timeutil.Chicago)
	ep := Episode{Epicenter: topology.RackID{Row: 1, Col: 8}, Trigger: trigger, DriftScale: 1}

	at := func(lead time.Duration) time.Time { return trigger.Add(-lead) }

	// Outside the window: no perturbation.
	if d := ep.InletDeltaFraction(at(15 * time.Hour)); d != 0 {
		t.Errorf("inlet delta 15h out = %v, want 0", d)
	}
	// Early drift: small but nonzero five hours out.
	if d := ep.InletDeltaFraction(at(5 * time.Hour)); d >= 0 || d < -0.025 {
		t.Errorf("inlet early drift 5h out = %v, want small negative", d)
	}
	// Zero drift scale: flat until the pronounced signature.
	flat := Episode{Epicenter: ep.Epicenter, Trigger: trigger}
	if d := flat.InletDeltaFraction(at(5 * time.Hour)); d != 0 {
		t.Errorf("zero-drift episode should be flat early, got %v", d)
	}
	if f := ep.FlowFactor(at(2 * time.Hour)); f != 1 {
		t.Errorf("flow factor 2h out = %v, want 1 (stable until 30 min)", f)
	}
	// Dip phase: ≈ -7% by 2.5h out, held at 1h.
	if d := ep.InletDeltaFraction(at(150 * time.Minute)); math.Abs(d-(-0.07)) > 0.005 {
		t.Errorf("inlet delta 2.5h out = %v, want ≈-0.07", d)
	}
	if d := ep.InletDeltaFraction(at(time.Hour)); math.Abs(d-(-0.07)) > 0.005 {
		t.Errorf("inlet delta 1h out = %v, want ≈-0.07", d)
	}
	// Partial dip at 3h: below zero but above the full dip.
	d3 := ep.InletDeltaFraction(at(3 * time.Hour))
	if d3 >= 0 || d3 <= -0.07 {
		t.Errorf("inlet delta 3h out = %v, want in (-0.07, 0)", d3)
	}
	// Reversal: +8% at trigger.
	if d := ep.InletDeltaFraction(trigger); math.Abs(d-0.08) > 0.005 {
		t.Errorf("inlet delta at trigger = %v, want ≈+0.08", d)
	}
	// Flow collapse only in the last half hour, to ≈0.55.
	if f := ep.FlowFactor(at(29 * time.Minute)); f >= 1 {
		t.Errorf("flow factor 29min out = %v, want < 1", f)
	}
	if f := ep.FlowFactor(trigger); math.Abs(f-0.55) > 0.01 {
		t.Errorf("flow factor at trigger = %v, want ≈0.55", f)
	}
	// Humidity bump near the end.
	if h := ep.HumidityDelta(at(2 * time.Hour)); h != 0 {
		t.Errorf("humidity delta 2h out = %v, want 0", h)
	}
	if h := ep.HumidityDelta(trigger); h < 4 {
		t.Errorf("humidity delta at trigger = %v, want ≈6", h)
	}
	// Active window spans the full precursor lead.
	if !ep.Active(at(3*time.Hour)) || !ep.Active(at(13*time.Hour)) || ep.Active(at(15*time.Hour)) {
		t.Error("Active window wrong")
	}
	if ep.Start() != trigger.Add(-Lead) {
		t.Error("Start wrong")
	}
}

func TestFlowCollapseCrossesFatalThreshold(t *testing.T) {
	// The end-state flow must breach the coolant monitor's fatal threshold
	// (0.62 of nominal), or no CMF would ever fire.
	ep := Episode{Trigger: time.Date(2016, 8, 1, 12, 0, 0, 0, timeutil.Chicago)}
	if f := ep.FlowFactor(ep.Trigger); f >= 0.62 {
		t.Errorf("final flow factor %v does not breach the 0.62 fatal threshold", f)
	}
}

func TestEngineTotalsCalibration(t *testing.T) {
	// Expected counted failures (epicenters + cascades) should land near
	// the paper's 361. Average over seeds to damp the (1,4) full-system
	// events.
	var totals []float64
	for seed := int64(1); seed <= 5; seed++ {
		e := NewEngine(Config{Seed: seed})
		count := 0
		for _, ep := range e.episodes {
			count += len(ep.Racks)
		}
		totals = append(totals, float64(count))
	}
	var mean float64
	for _, v := range totals {
		mean += v
	}
	mean /= float64(len(totals))
	if mean < 290 || mean > 440 {
		t.Errorf("mean counted failures = %v (per-seed %v), want ≈361", mean, totals)
	}
}

func TestEpisodesIncludeEpicenterFirst(t *testing.T) {
	e := NewEngine(Config{Seed: 21})
	for _, ep := range e.episodes {
		if len(ep.Racks) == 0 || ep.Racks[0] != ep.Epicenter {
			t.Fatalf("episode cascade must lead with the epicenter: %+v", ep)
		}
	}
}

func TestEngineYearDistribution(t *testing.T) {
	e := NewEngine(Config{Seed: 2})
	byYear := make(map[int]int)
	total := 0
	for _, ep := range e.episodes {
		byYear[ep.Trigger.Year()]++
		total++
	}
	if total == 0 {
		t.Fatal("no episodes scheduled")
	}
	share2016 := float64(byYear[2016]) / float64(total)
	if share2016 < 0.30 || share2016 > 0.50 {
		t.Errorf("2016 share = %v, want ≈0.40", share2016)
	}
	if byYear[2017] != 0 {
		t.Errorf("2017 episodes = %d, want 0 (two-year quiet period)", byYear[2017])
	}
	// 2018 episodes only at the very end of the year.
	for _, ep := range e.episodes {
		if ep.Trigger.Year() == 2018 && ep.Trigger.Month() < time.November {
			t.Errorf("2018 episode before November: %v", ep.Trigger)
		}
	}
	if byYear[2019] == 0 || byYear[2014] == 0 {
		t.Error("2014/2019 should have episodes")
	}
}

func TestEngineRackDistribution(t *testing.T) {
	// Averaged over seeds, (1,8) should lead and (2,7) should trail.
	var hot, quiet, maxOther float64
	const seeds = 6
	for seed := int64(10); seed < 10+seeds; seed++ {
		e := NewEngine(Config{Seed: seed})
		var counts [topology.NumRacks]int
		for _, ep := range e.episodes {
			for _, r := range ep.Racks {
				counts[r.Index()]++
			}
		}
		hot += float64(counts[topology.HumidityHotspot.Index()])
		quiet += float64(counts[topology.QuietRack.Index()])
		for i, c := range counts {
			r := topology.RackByIndex(i)
			if r != topology.HumidityHotspot && float64(c) > maxOther {
				maxOther = float64(c)
			}
		}
	}
	hot /= seeds
	quiet /= seeds
	if hot < 10 || hot > 18 {
		t.Errorf("(1,8) mean count = %v, want ≈14", hot)
	}
	if quiet < 3 || quiet > 8 {
		t.Errorf("(2,7) mean count = %v, want ≈5", quiet)
	}
	if quiet >= hot {
		t.Error("(2,7) should trail (1,8)")
	}
}

func TestSusceptibilityAnchors(t *testing.T) {
	e := NewEngine(Config{Seed: 3})
	if e.susceptibility[topology.HumidityHotspot.Index()] <= e.susceptibility[topology.QuietRack.Index()] {
		t.Error("(1,8) susceptibility should exceed (2,7)")
	}
	for _, r := range topology.AllRacks() {
		s := e.susceptibility[r.Index()]
		if s <= 0 || s > 3.5 {
			t.Errorf("susceptibility(%v) = %v out of range", r, s)
		}
	}
}

func TestEpisodeSpacing(t *testing.T) {
	// Episodes with the same epicenter must be spaced: a rack that is down
	// cannot start a new precursor.
	e := NewEngine(Config{Seed: 4})
	last := make(map[topology.RackID]time.Time)
	for _, ep := range e.episodes {
		if prev, ok := last[ep.Epicenter]; ok && !prev.IsZero() {
			if d := ep.Trigger.Sub(prev); d > 0 && d <= 30*time.Hour {
				t.Fatalf("epicenter %v episodes too close: %v then %v", ep.Epicenter, prev, ep.Trigger)
			}
		}
		last[ep.Epicenter] = ep.Trigger
	}
}

func TestActiveEpisodeCursor(t *testing.T) {
	e := NewEngine(Config{Seed: 5})
	eps := e.episodes
	if len(eps) == 0 {
		t.Fatal("no episodes")
	}
	target := eps[0]
	rack := target.Epicenter
	// Before the window: nil.
	if got := e.ActiveEpisode(rack, target.Start().Add(-time.Hour)); got != nil {
		t.Error("episode should not be active before its window")
	}
	// Inside the window: the episode.
	got := e.ActiveEpisode(rack, target.Trigger.Add(-time.Hour))
	if got == nil || !got.Trigger.Equal(target.Trigger) {
		t.Fatalf("ActiveEpisode = %v, want trigger %v", got, target.Trigger)
	}
	// Long after: nil (cursor advances).
	if got := e.ActiveEpisode(rack, target.Trigger.Add(time.Hour)); got != nil && got.Trigger.Equal(target.Trigger) {
		t.Error("episode should expire after its window")
	}
}

func TestCascadeClockRoot(t *testing.T) {
	e := NewEngine(Config{Seed: 6})
	dom := e.cascade(topology.ClockRoot)
	if len(dom) != topology.NumRacks {
		t.Errorf("clock-root cascade = %d racks, want all %d", len(dom), topology.NumRacks)
	}
}

func TestCascadeRelay(t *testing.T) {
	e := NewEngine(Config{Seed: 7})
	found09 := false
	for i := 0; i < 50; i++ {
		dom := e.cascade(topology.ClockRelay0A)
		if len(dom) < 2 {
			t.Fatalf("(0,A) cascade = %v, should always include (0,9)", dom)
		}
		for _, r := range dom {
			if r == topology.ClockLeaf09 {
				found09 = true
			}
		}
	}
	if !found09 {
		t.Error("(0,9) never cascaded with (0,A)")
	}
}

func TestCascadeNoDuplicates(t *testing.T) {
	e := NewEngine(Config{Seed: 8})
	for i := 0; i < 200; i++ {
		dom := e.cascade(topology.RackID{Row: 2, Col: 3})
		seen := make(map[topology.RackID]bool)
		for _, r := range dom {
			if seen[r] {
				t.Fatalf("duplicate rack %v in cascade %v", r, dom)
			}
			seen[r] = true
		}
		if !seen[topology.RackID{Row: 2, Col: 3}] {
			t.Fatal("cascade must include the epicenter")
		}
	}
}

func TestOutageDuration(t *testing.T) {
	e := NewEngine(Config{Seed: 9})
	for i := 0; i < 100; i++ {
		d := e.OutageDuration()
		if d < 2*time.Hour || d > 6*time.Hour {
			t.Fatalf("outage duration %v out of [2h, 6h]", d)
		}
	}
}

func TestStorm(t *testing.T) {
	e := NewEngine(Config{Seed: 10, StormMessages: 100})
	ts := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	storm := e.Storm(topology.RackID{Row: 0, Col: 5}, ts)
	if len(storm) < 50 || len(storm) > 200 {
		t.Errorf("storm size = %d, want ≈50-150", len(storm))
	}
	for _, ev := range storm {
		if !ev.IsCMF() {
			t.Fatal("storm messages must be fatal coolant-monitor events")
		}
	}
}

func TestPostCMFHazardShape(t *testing.T) {
	e := NewEngine(Config{Seed: 11})
	t0 := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	// Sample many post-CMF event sets and measure the windowed rates.
	var within3, within6, within48, total float64
	for i := 0; i < 3000; i++ {
		for _, ev := range e.PostCMFEvents(t0) {
			tau := ev.Time.Sub(t0).Hours()
			total++
			if tau <= 3 {
				within3++
			}
			if tau <= 6 {
				within6++
			}
			if tau <= 48 {
				within48++
			}
		}
	}
	if total < 3000 {
		t.Fatalf("too few post-CMF events sampled: %v", total)
	}
	rate3 := within3 / 3
	rate6 := within6 / 6
	rate48 := within48 / 48
	// Paper Fig. 14a: rate within 6h < 75% of rate within 3h; rate at 48h
	// ≈ 10% of the 3h rate.
	if ratio := rate6 / rate3; ratio >= 0.75 {
		t.Errorf("rate(6h)/rate(3h) = %v, want < 0.75", ratio)
	}
	if ratio := rate48 / rate3; ratio < 0.05 || ratio > 0.18 {
		t.Errorf("rate(48h)/rate(3h) = %v, want ≈0.10", ratio)
	}
}

func TestPostCMFTypeMix(t *testing.T) {
	e := NewEngine(Config{Seed: 12})
	t0 := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	counts := make(map[ras.EventType]int)
	total := 0
	for i := 0; i < 4000; i++ {
		for _, ev := range e.PostCMFEvents(t0) {
			counts[ev.Type]++
			total++
		}
	}
	frac := func(t ras.EventType) float64 { return float64(counts[t]) / float64(total) }
	if f := frac(ras.ACToDCPower); f < 0.45 || f > 0.55 {
		t.Errorf("AC-to-DC fraction = %v, want ≈0.50", f)
	}
	if f := frac(ras.Process); f >= 0.02 {
		t.Errorf("process fraction = %v, want < 0.02", f)
	}
	if counts[ras.BQL] <= counts[ras.BQC] {
		t.Error("BQL should outnumber BQC")
	}
	if counts[ras.CoolantMonitor] != 0 {
		t.Error("post-CMF events must be non-CMF")
	}
}

func TestPostCMFLocationsUniform(t *testing.T) {
	e := NewEngine(Config{Seed: 13})
	t0 := time.Date(2016, 8, 1, 0, 0, 0, 0, timeutil.Chicago)
	var counts [topology.NumRacks]int
	total := 0
	for i := 0; i < 5000; i++ {
		for _, ev := range e.PostCMFEvents(t0) {
			counts[ev.Rack.Index()]++
			total++
		}
	}
	expected := float64(total) / topology.NumRacks
	for i, c := range counts {
		if math.Abs(float64(c)-expected) > expected*0.5 {
			t.Errorf("rack %v post-CMF count %d far from uniform %v", topology.RackByIndex(i), c, expected)
		}
	}
}

func TestBackgroundEvents(t *testing.T) {
	e := NewEngine(Config{Seed: 14})
	from := time.Date(2015, 1, 1, 0, 0, 0, 0, timeutil.Chicago)
	to := from.AddDate(0, 0, 100)
	evs := e.BackgroundEvents(from, to)
	// Expected 35 over 100 days.
	if len(evs) < 15 || len(evs) > 60 {
		t.Errorf("background events = %d over 100 days, want ≈35", len(evs))
	}
	for _, ev := range evs {
		if ev.Time.Before(from) || !ev.Time.Before(to) {
			t.Fatalf("event time %v outside range", ev.Time)
		}
		if ev.Type == ras.CoolantMonitor {
			t.Fatal("background events must be non-CMF")
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	a := NewEngine(Config{Seed: 15})
	b := NewEngine(Config{Seed: 15})
	ea, eb := a.episodes, b.episodes
	if len(ea) != len(eb) {
		t.Fatal("non-deterministic episode count")
	}
	for i := range ea {
		if ea[i].Epicenter != eb[i].Epicenter || !ea[i].Trigger.Equal(eb[i].Trigger) || len(ea[i].Racks) != len(eb[i].Racks) {
			t.Fatal("non-deterministic episodes")
		}
	}
}
