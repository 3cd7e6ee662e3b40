package power

import (
	"math"
	"testing"
	"time"

	"mira/internal/scheduler"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
	"mira/internal/workload"
)

func snapAll(state scheduler.MidplaneState, intensity float64) []scheduler.MidplaneSnapshot {
	out := make([]scheduler.MidplaneSnapshot, topology.NumMidplanes)
	for i := range out {
		out[i] = scheduler.MidplaneSnapshot{State: state, Intensity: intensity}
	}
	return out
}

var t2014 = timeutil.ProductionStart

func TestRackPowerStates(t *testing.T) {
	m := NewModel(1)
	r := topology.RackID{Row: 1, Col: 1}

	idle := m.rackPower(r, []scheduler.MidplaneSnapshot{{State: scheduler.Idle}, {State: scheduler.Idle}}, t2014)
	busy := m.rackPower(r, []scheduler.MidplaneSnapshot{
		{State: scheduler.Busy, Intensity: 1}, {State: scheduler.Busy, Intensity: 1},
	}, t2014)
	down := m.rackPower(r, []scheduler.MidplaneSnapshot{{State: scheduler.Down}, {State: scheduler.Down}}, t2014)

	if down != 0 {
		t.Errorf("down rack power = %v, want 0", down)
	}
	if idle <= 0 || busy <= idle {
		t.Errorf("power ordering wrong: idle=%v busy=%v", idle, busy)
	}
	// A fully busy rack draws ~55-65 kW AC.
	if busy.Kilowatts() < 50 || busy.Kilowatts() > 70 {
		t.Errorf("busy rack power = %v, want ≈60 kW", busy)
	}
	// Idle rack still draws the idle floor through the BPM.
	wantIdle := float64(RackIdle+FanPerRack) / BPMEfficiency
	if math.Abs(float64(idle)-wantIdle) > 1 {
		t.Errorf("idle rack power = %v, want %v", idle, units.Watts(wantIdle))
	}
}

func TestBurnerDrawsLessThanProduction(t *testing.T) {
	m := NewModel(1)
	r := topology.RackID{Row: 1, Col: 1}
	prod := m.rackPower(r, []scheduler.MidplaneSnapshot{
		{State: scheduler.Busy, Intensity: 1}, {State: scheduler.Busy, Intensity: 1},
	}, t2014)
	burn := m.rackPower(r, []scheduler.MidplaneSnapshot{
		{State: scheduler.Burning, Intensity: workload.BurnerIntensity},
		{State: scheduler.Burning, Intensity: workload.BurnerIntensity},
	}, t2014)
	if burn >= prod {
		t.Errorf("burner power %v should be below production %v", burn, prod)
	}
	// The gap drives the paper's 6% Monday power dip.
	if ratio := float64(burn) / float64(prod); ratio > 0.85 || ratio < 0.5 {
		t.Errorf("burner/production ratio = %v, want ≈0.7", ratio)
	}
}

func TestIntensityAffectsPowerNotUtilization(t *testing.T) {
	m := NewModel(1)
	r := topology.RackID{Row: 2, Col: 2}
	low := m.rackPower(r, []scheduler.MidplaneSnapshot{
		{State: scheduler.Busy, Intensity: 0.7}, {State: scheduler.Busy, Intensity: 0.7},
	}, t2014)
	high := m.rackPower(r, []scheduler.MidplaneSnapshot{
		{State: scheduler.Busy, Intensity: 1.3}, {State: scheduler.Busy, Intensity: 1.3},
	}, t2014)
	if high <= low {
		t.Error("higher intensity must draw more power")
	}
	if (float64(high)-float64(low))/float64(low) < 0.15 {
		t.Error("intensity should have a substantial power effect")
	}
}

func TestHotRackBias(t *testing.T) {
	m := NewModel(3)
	if m.rackBias[topology.HotRack.Index()] < 1.10 {
		t.Errorf("rack (0,D) bias = %v, want >= 1.10", m.rackBias[topology.HotRack.Index()])
	}
	// All biases within the clip range.
	for _, r := range topology.AllRacks() {
		b := m.rackBias[r.Index()]
		if b < 0.85 || b > 1.15 {
			t.Errorf("rack %v bias = %v out of range", r, b)
		}
	}
}

func TestSystemPowerCalibration(t *testing.T) {
	m := NewModel(2)
	// 2014: ~80% utilization → ≈2.5 MW.
	snap2014 := snapAll(scheduler.Idle, 0)
	n80 := topology.NumMidplanes * 80 / 100
	for i := 0; i < n80; i++ {
		snap2014[i] = scheduler.MidplaneSnapshot{State: scheduler.Busy, Intensity: 1}
	}
	p2014 := m.SystemPower(snap2014, t2014, new([topology.NumRacks]units.Watts))
	if p2014.Megawatts() < 2.30 || p2014.Megawatts() > 2.70 {
		t.Errorf("2014 system power = %v, want ≈2.5 MW", p2014)
	}
	// 2019: ~93% utilization → ≈2.9 MW.
	snap2019 := snapAll(scheduler.Idle, 0)
	n93 := topology.NumMidplanes * 93 / 100
	for i := 0; i < n93; i++ {
		snap2019[i] = scheduler.MidplaneSnapshot{State: scheduler.Busy, Intensity: 1}
	}
	t2019 := time.Date(2019, 7, 1, 0, 0, 0, 0, timeutil.Chicago)
	p2019 := m.SystemPower(snap2019, t2019, new([topology.NumRacks]units.Watts))
	if p2019.Megawatts() < 2.70 || p2019.Megawatts() > 3.10 {
		t.Errorf("2019 system power = %v, want ≈2.9 MW", p2019)
	}
	if p2019 <= p2014 {
		t.Error("system power should grow over the years")
	}
	// Well under the 6 MW provisioned capacity, near the 4 MW average load
	// the paper quotes for the whole BG/Q installation.
	if p2019.Megawatts() > 6 {
		t.Error("system power exceeds provisioned capacity")
	}
}

func TestSystemPowerFullyDown(t *testing.T) {
	m := NewModel(2)
	p := m.SystemPower(snapAll(scheduler.Down, 0), t2014, new([topology.NumRacks]units.Watts))
	if p != AuxiliaryBase {
		t.Errorf("all-down system power = %v, want auxiliary only %v", p, AuxiliaryBase)
	}
}

func TestDriftGrowsPower(t *testing.T) {
	m := NewModel(4)
	r := topology.RackID{Row: 0, Col: 0}
	mids := []scheduler.MidplaneSnapshot{
		{State: scheduler.Busy, Intensity: 1}, {State: scheduler.Busy, Intensity: 1},
	}
	early := m.rackPower(r, mids, t2014)
	late := m.rackPower(r, mids, time.Date(2019, 12, 1, 0, 0, 0, 0, timeutil.Chicago))
	growth := (float64(late) - float64(early)) / float64(early)
	if growth < 0.03 || growth > 0.08 {
		t.Errorf("six-year drift = %v, want ≈4.7%%", growth)
	}
}

func TestPartiallyDownRack(t *testing.T) {
	m := NewModel(5)
	r := topology.RackID{Row: 1, Col: 5}
	full := m.rackPower(r, []scheduler.MidplaneSnapshot{
		{State: scheduler.Busy, Intensity: 1}, {State: scheduler.Busy, Intensity: 1},
	}, t2014)
	half := m.rackPower(r, []scheduler.MidplaneSnapshot{
		{State: scheduler.Busy, Intensity: 1}, {State: scheduler.Down},
	}, t2014)
	if half >= full || half <= 0 {
		t.Errorf("partially-down rack power = %v, full = %v", half, full)
	}
}

func TestRackHeatToCoolant(t *testing.T) {
	h := RackHeatToCoolant(units.Watts(60e3))
	if h.Kilowatts() != 54 {
		t.Errorf("heat to coolant = %v, want 54 kW", h)
	}
}

func TestRackBiasDeterministic(t *testing.T) {
	a, b := NewModel(7), NewModel(7)
	for _, r := range topology.AllRacks() {
		if a.rackBias[r.Index()] != b.rackBias[r.Index()] {
			t.Fatal("bias field should be deterministic")
		}
	}
}
