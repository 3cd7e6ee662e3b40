// Package failure is the failure engine of the digital twin: it schedules
// the coolant-monitor-failure precursor episodes whose telemetry signatures
// the paper characterizes (inlet temperature dipping ≈7% over four hours
// then spiking ≈8% in the last half hour; outlet following; coolant flow
// stable until a rapid collapse ≈30 minutes out), modulates their hazard
// over the years (≈40% of all failures during the 2016 Theta integration, a
// two-year quiet period afterwards), shapes the per-rack susceptibility
// field (rack (1,8) worst at 14, rack (2,7) best at 5, uncorrelated with
// utilization, outlet temperature, or humidity), expands epicenters into
// clock-graph cascades and RAS storms, and generates the elevated post-CMF
// non-CMF failure stream with the paper's type mix.
package failure

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"mira/internal/ras"
	"mira/internal/timeutil"
	"mira/internal/topology"
)

// Episode is one CMF precursor incident. Between Trigger-Lead and Trigger
// the cooling inputs of every affected rack are perturbed by the loop-wide
// chiller-control disturbance; the epicenter additionally suffers the local
// flow collapse that trips its coolant monitor at Trigger, after which the
// whole cascade set goes down (clock-signal loss and loop transients).
type Episode struct {
	// Epicenter is the rack whose coolant monitor trips.
	Epicenter topology.RackID
	// Racks is the full cascade set (epicenter first): the racks that fail
	// when the episode triggers, all of which see the loop disturbance in
	// their inlet telemetry beforehand.
	Racks   []topology.RackID
	Trigger time.Time
	// DriftScale in [0, 1] scales the subtle early drift: not every failure
	// announces itself early, which is what keeps the paper's predictor at
	// ≈87% (rather than ≈100%) six hours out.
	DriftScale float64
}

// Lead is how long before the trigger the precursor perturbation begins.
// The pronounced signature (the Fig. 12 dip/spike/collapse) occupies the
// last four hours; before that, a subtle coolant drift — invisible at
// Fig. 12's percent scale but above sensor noise — builds from Lead onward,
// which is what lets the paper's predictor see failures a full six hours
// out.
const Lead = 14 * time.Hour

// SignatureLead is when the pronounced Fig. 12 signature begins.
const SignatureLead = 4 * time.Hour

// Start returns the beginning of the precursor window.
func (e Episode) Start() time.Time { return e.Trigger.Add(-Lead) }

// PostTriggerTail is how long the collapsed end-state persists after the
// trigger before the rack powers off: the rack's controller takes the
// solenoid/power action within minutes, and the tail guarantees coarse
// simulation steps cannot miss the collapsed-flow sample.
const PostTriggerTail = 30 * time.Minute

// Active reports whether t falls inside the episode's perturbation window.
func (e Episode) Active(t time.Time) bool {
	return !t.Before(e.Start()) && t.Before(e.Trigger.Add(PostTriggerTail))
}

// hoursToFailure returns the (positive) lead time in hours; negative values
// mean the trigger has passed.
func (e Episode) hoursToFailure(t time.Time) float64 {
	return e.Trigger.Sub(t).Hours()
}

// smoothstep is the standard cubic ease in [0, 1].
func smoothstep(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return x * x * (3 - 2*x)
}

// InletDeltaFraction returns the fractional perturbation of the inlet
// coolant temperature at time t: the chiller-control oscillation drives the
// inlet down to −7% (reached ≈2.5 h out, visible from ≈4 h), holds, and then
// reverses to +8% in the final half hour (paper Fig. 12b).
func (e Episode) InletDeltaFraction(t time.Time) float64 {
	ttf := e.hoursToFailure(t)
	leadH := Lead.Hours()
	driftFloor := -0.02 * e.DriftScale
	switch {
	case ttf > leadH || ttf < -0.5:
		return 0
	case ttf > 4:
		// Early drift: the failing chiller control lets the inlet sag by
		// about a percent over the ten hours before the visible signature —
		// flat at Fig. 12's scale, detectable by the NN when present.
		return driftFloor * (leadH - ttf) / (leadH - 4)
	case ttf > 0.5:
		// Dip phase: ramp from the drift floor at 4 h to −7% by 2.5 h,
		// hold.
		return driftFloor + (-0.07-driftFloor)*smoothstep((4-ttf)/1.5)
	default:
		// Reversal: −7% at 30 min → +8% at the trigger.
		frac := (0.5 - math.Max(ttf, 0)) / 0.5
		return -0.07 + 0.15*frac
	}
}

// FlowFactor returns the multiplicative flow perturbation at time t: stable
// at 1.0 until ≈30 minutes before the failure, then a rapid collapse to
// ≈55% of nominal — below the coolant monitor's fatal threshold, which is
// what ultimately trips the failure (paper Fig. 12a: the flow's "rapid and
// significant decline becomes the cause of the failure").
func (e Episode) FlowFactor(t time.Time) float64 {
	ttf := e.hoursToFailure(t)
	switch {
	case ttf > 0.5 || ttf < -0.5:
		return 1
	default:
		frac := (0.5 - math.Max(ttf, 0)) / 0.5
		return 1 - 0.45*frac
	}
}

// HumidityDelta returns the additive %RH perturbation near the rack: the
// failing cooling hardware condenses and evaporates moisture locally in the
// final hour.
func (e Episode) HumidityDelta(t time.Time) float64 {
	ttf := e.hoursToFailure(t)
	if ttf > 1 || ttf < -0.5 {
		return 0
	}
	return 6 * smoothstep((1-ttf)/1)
}

// Config tunes the failure engine.
type Config struct {
	// Seed drives all sampling.
	Seed int64
	// MeanEpisodesPerRack is the expected per-rack episode count over the
	// full six years at susceptibility 1.0 (default 2.5; combined with
	// cascades this lands near the paper's 361 total counted failures).
	MeanEpisodesPerRack float64
	// PostCMFEventScale scales the expected number of follow-on non-CMF
	// failures per CMF incident (default 1.0 ⇒ ≈2.4 events).
	PostCMFEventScale float64
	// CascadeExtraProb is the probability that an epicenter drags down
	// additional random racks through the shared cooling loop (default
	// 0.55; RAS storms regularly engulf multiple racks).
	CascadeExtraProb float64
	// StormMessages is the number of raw RAS messages logged per affected
	// rack during a storm (default 400; the paper reports upwards of
	// 10,000 messages per storm).
	StormMessages int
}

func (c Config) withDefaults() Config {
	if c.MeanEpisodesPerRack == 0 {
		c.MeanEpisodesPerRack = 2.5
	}
	if c.PostCMFEventScale == 0 {
		c.PostCMFEventScale = 1.0
	}
	if c.CascadeExtraProb == 0 {
		c.CascadeExtraProb = 0.55
	}
	if c.StormMessages == 0 {
		c.StormMessages = 400
	}
	return c
}

// Engine schedules and expands failures. Create one per simulation.
type Engine struct {
	cfg   Config
	rng   *rand.Rand
	clock *topology.ClockGraph

	susceptibility [topology.NumRacks]float64
	episodes       []Episode // sorted by trigger
	perRack        [topology.NumRacks][]Episode
	cursor         [topology.NumRacks]int
}

// yearShare is the fraction of six-year hazard falling in each production
// year: failures cluster in 2016 (Theta integration, ≈40%), vanish for two
// years, and return near the end of 2018 into 2019 (paper Fig. 10).
var yearShare = map[int]float64{
	2014: 0.18,
	2015: 0.15,
	2016: 0.40,
	2017: 0.00,
	2018: 0.06,
	2019: 0.21,
}

// NewEngine creates the engine and pre-schedules every episode for the
// production window.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		clock: topology.NewClockGraph(),
	}
	e.buildSusceptibility()
	e.schedule()
	return e
}

// buildSusceptibility draws the per-rack hazard multipliers. The field is
// independent of the utilization/power/humidity fields by construction —
// matching the paper's finding that CMF counts correlate with none of them.
func (e *Engine) buildSusceptibility() {
	for i := range e.susceptibility {
		v := math.Exp(e.rng.NormFloat64() * 0.22)
		if v < 0.55 {
			v = 0.55
		}
		if v > 1.3 {
			v = 1.3
		}
		e.susceptibility[i] = v
	}
	// Paper-anchored racks.
	e.susceptibility[topology.HumidityHotspot.Index()] = 3.2 // (1,8): 14 failures
	e.susceptibility[topology.QuietRack.Index()] = 0.42      // (2,7): 5 failures
	// The clock root drags the whole system down; its own hardware was not
	// notably failure-prone.
	e.susceptibility[topology.ClockRoot.Index()] = 0.3
}

// monthWeight concentrates 2016's hazard in the Theta integration months
// (June–December) and 2018's at year end.
func monthWeight(t time.Time) float64 {
	switch t.Year() {
	case 2016:
		if t.Month() >= time.June {
			return 1.6
		}
		return 0.3
	case 2018:
		if t.Month() >= time.November {
			return 6.0
		}
		return 0.0
	default:
		return 1.0
	}
}

// schedule samples every rack's episodes via a thinned Poisson process and
// expands each into its cascade set.
func (e *Engine) schedule() {
	for i := range e.susceptibility {
		rack := topology.RackByIndex(i)
		mean := e.cfg.MeanEpisodesPerRack * e.susceptibility[i]
		// Thinning: draw candidate times uniformly, accept by the yearly
		// and monthly hazard profile. The acceptance normalizer is the
		// maximum combined weight (2016 late-year: 0.40·6·1.6 ≈ 3.84 vs
		// uniform 1/6 per year).
		const maxW = 0.40 * 6 * 1.6
		candidates := e.poisson(mean * maxW)
		span := timeutil.ProductionEnd.Sub(timeutil.ProductionStart)
		var own []Episode
		for c := 0; c < candidates; c++ {
			t := timeutil.ProductionStart.Add(time.Duration(e.rng.Int63n(int64(span))))
			w := yearShare[t.Year()] * 6 * monthWeight(t)
			if e.rng.Float64() < w/maxW {
				// A fifth of failures give no early warning at all; the
				// rest drift with varying, but detectable, strength.
				drift := 0.0
				if e.rng.Float64() >= 0.20 {
					drift = 0.5 + 0.5*e.rng.Float64()
				}
				own = append(own, Episode{
					Epicenter:  rack,
					Trigger:    t,
					DriftScale: drift,
				})
			}
		}
		sort.Slice(own, func(a, b int) bool { return own[a].Trigger.Before(own[b].Trigger) })
		// Enforce spacing: a rack that is down cannot start a new
		// precursor, and overlapping precursor windows would be
		// unphysical.
		var spaced []Episode
		for _, ep := range own {
			if len(spaced) == 0 || ep.Trigger.Sub(spaced[len(spaced)-1].Trigger) > 30*time.Hour {
				spaced = append(spaced, ep)
			}
		}
		e.episodes = append(e.episodes, spaced...)
	}
	sort.Slice(e.episodes, func(a, b int) bool { return e.episodes[a].Trigger.Before(e.episodes[b].Trigger) })
	// Expand cascades and index every affected rack.
	for i := range e.episodes {
		e.episodes[i].Racks = e.cascade(e.episodes[i].Epicenter)
		for _, r := range e.episodes[i].Racks {
			e.perRack[r.Index()] = append(e.perRack[r.Index()], e.episodes[i])
		}
	}
	for i := range e.perRack {
		sort.Slice(e.perRack[i], func(a, b int) bool {
			return e.perRack[i][a].Trigger.Before(e.perRack[i][b].Trigger)
		})
	}
}

func (e *Engine) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(mean + math.Sqrt(mean)*e.rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= e.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// ActiveEpisode returns the episode perturbing the given rack at time t, or
// nil. Calls must be made with non-decreasing t per rack (the simulator's
// access pattern); the per-rack cursor makes the scan amortized O(1). The
// episode is the engine's own, not a copy: callers read it and must not
// modify it.
func (e *Engine) ActiveEpisode(rack topology.RackID, t time.Time) *Episode {
	i := rack.Index()
	eps := e.perRack[i]
	for e.cursor[i] < len(eps) && !t.Before(eps[e.cursor[i]].Trigger.Add(PostTriggerTail)) {
		e.cursor[i]++
	}
	if e.cursor[i] < len(eps) && eps[e.cursor[i]].Active(t) {
		return &eps[e.cursor[i]]
	}
	return nil
}

// cascade draws the racks taken down by a CMF at the given epicenter: the
// epicenter, its clock-graph dependents (rack (1,4) fells the whole system;
// rack (0,A) takes (0,9) with it), and occasionally extra random racks hit
// through the shared cooling loop.
func (e *Engine) cascade(epicenter topology.RackID) []topology.RackID {
	domain := e.clock.FailureDomain(epicenter)
	if len(domain) >= topology.NumRacks {
		return domain
	}
	in := make(map[topology.RackID]bool, len(domain))
	for _, r := range domain {
		in[r] = true
	}
	if e.rng.Float64() < e.cfg.CascadeExtraProb {
		extra := 1 + e.rng.Intn(5)
		for _, idx := range e.rng.Perm(topology.NumRacks) {
			if extra == 0 {
				break
			}
			r := topology.RackByIndex(idx)
			if !in[r] {
				domain = append(domain, r)
				in[r] = true
				extra--
			}
		}
	}
	return domain
}

// OutageDuration draws how long a failed rack stays down after a CMF (up to
// six hours, paper §VI).
func (e *Engine) OutageDuration() time.Duration {
	return 2*time.Hour + time.Duration(e.rng.Int63n(int64(4*time.Hour)))
}

// Storm generates the raw RAS message flood for an affected rack: a burst
// of fatal coolant-monitor messages that the dedup methodology later
// collapses into a single counted failure.
func (e *Engine) Storm(rack topology.RackID, t time.Time) []ras.Event {
	n := e.cfg.StormMessages/2 + e.rng.Intn(e.cfg.StormMessages)
	out := make([]ras.Event, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ras.Event{
			Time:     t.Add(time.Duration(i) * 200 * time.Millisecond),
			Rack:     rack,
			Type:     ras.CoolantMonitor,
			Severity: ras.Fatal,
			Message:  "coolant monitor threshold exceeded",
		})
	}
	return out
}

// Post-CMF hazard: h(τ) = c·(e^{−τ/1.5h} + 0.0764·e^{−τ/12h}), calibrated so
// the mean failure rate within 6 h is <75% of the rate within 3 h and the
// rate within 48 h is ≈10% of it (paper Fig. 14a).
const (
	hazardFast   = 1.5  // hours
	hazardSlow   = 12.0 // hours
	hazardMix    = 0.0764
	hazardScale  = 1.0 // multiplied by PostCMFEventScale
	hazardWindow = 48.0
)

// postCMFTypeWeights is the paper's Fig. 14b distribution.
var postCMFTypeWeights = []struct {
	t ras.EventType
	w float64
}{
	{ras.ACToDCPower, 0.50},
	{ras.BQL, 0.20},
	{ras.BQC, 0.15},
	{ras.Card, 0.05},
	{ras.Software, 0.045},
	{ras.Ethernet, 0.04},
	{ras.Process, 0.015},
}

// sampleType draws a non-CMF failure type from the Fig. 14b mix.
func (e *Engine) sampleType() ras.EventType {
	u := e.rng.Float64()
	acc := 0.0
	for _, tw := range postCMFTypeWeights {
		acc += tw.w
		if u < acc {
			return tw.t
		}
	}
	return ras.Process
}

// PostCMFEvents samples the follow-on non-CMF failures in the 48 hours
// after a CMF. Locations are uniform over the machine — the racks are
// inter-linked in ways that are not spatially correlated, so follow-on
// failures land anywhere (paper Fig. 15).
func (e *Engine) PostCMFEvents(t time.Time) []ras.Event {
	// Expected counts per window from the integrated hazard.
	c := 1.05 * e.cfg.PostCMFEventScale
	expected := c * (hazardFast*(1-math.Exp(-hazardWindow/hazardFast)) +
		hazardMix*hazardSlow*(1-math.Exp(-hazardWindow/hazardSlow)))
	n := e.poisson(expected)
	out := make([]ras.Event, 0, n)
	for i := 0; i < n; i++ {
		tau := e.sampleHazardTime()
		out = append(out, ras.Event{
			Time:     t.Add(time.Duration(tau * float64(time.Hour))),
			Rack:     topology.RackByIndex(e.rng.Intn(topology.NumRacks)),
			Type:     e.sampleType(),
			Severity: ras.Fatal,
			Message:  "post-CMF follow-on failure",
		})
	}
	return out
}

// sampleHazardTime draws τ (hours) from the two-exponential post-CMF hazard
// via mixture sampling, truncated to the 48-hour window.
func (e *Engine) sampleHazardTime() float64 {
	fastMass := hazardFast * (1 - math.Exp(-hazardWindow/hazardFast))
	slowMass := hazardMix * hazardSlow * (1 - math.Exp(-hazardWindow/hazardSlow))
	for {
		var tau float64
		if e.rng.Float64() < fastMass/(fastMass+slowMass) {
			tau = e.rng.ExpFloat64() * hazardFast
		} else {
			tau = e.rng.ExpFloat64() * hazardSlow
		}
		if tau <= hazardWindow {
			return tau
		}
	}
}

// BackgroundEventRatePerDay is the machine-wide rate of non-CMF fatal
// failures outside post-CMF windows (memory errors, link failures, etc.).
const BackgroundEventRatePerDay = 0.35

// BackgroundEvents samples the baseline non-CMF failures in [from, to).
func (e *Engine) BackgroundEvents(from, to time.Time) []ras.Event {
	days := to.Sub(from).Hours() / 24
	n := e.poisson(BackgroundEventRatePerDay * days)
	out := make([]ras.Event, 0, n)
	for i := 0; i < n; i++ {
		offset := time.Duration(e.rng.Int63n(int64(to.Sub(from))))
		out = append(out, ras.Event{
			Time:     from.Add(offset),
			Rack:     topology.RackByIndex(e.rng.Intn(topology.NumRacks)),
			Type:     e.sampleType(),
			Severity: ras.Fatal,
			Message:  "background failure",
		})
	}
	return out
}
