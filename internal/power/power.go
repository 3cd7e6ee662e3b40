// Package power models Mira's electrical side: Bulk Power Module (BPM)
// AC→DC conversion per rack, idle and dynamic node power, fan power, and the
// system-level aggregate including the air-cooled ION racks and auxiliary
// equipment.
//
// The model reproduces the paper's power characteristics: ≈2.5 MW system
// draw at 80% utilization in 2014 rising to ≈2.9 MW at 93% in 2019, up to
// 15% rack-to-rack variation, and the imperfect (≈0.45) correlation between
// rack power and rack utilization caused by job CPU-intensity differences.
package power

import (
	"math/rand"
	"time"

	"mira/internal/scheduler"
	"mira/internal/timeutil"
	"mira/internal/topology"
	"mira/internal/units"
)

// Electrical constants of the model, calibrated against the paper's
// system-level numbers.
const (
	// RackIdle is the power a powered-on rack draws with no work: DC
	// converters, clock distribution, coolant pumps, standby node power.
	RackIdle units.Watts = 21000
	// MidplaneDynamic is the additional draw of one midplane running a
	// nominal-intensity job.
	MidplaneDynamic units.Watts = 15500
	// FanPerRack is the draw of the fans in the rack's power enclosures.
	FanPerRack units.Watts = 1200
	// BPMEfficiency is the AC→DC conversion efficiency of the Bulk Power
	// Modules; the facility meters the AC side.
	BPMEfficiency = 0.94
	// AuxiliaryBase covers the six air-cooled ION racks and service
	// equipment.
	AuxiliaryBase units.Watts = 130000
)

// Model computes rack and system power from scheduler state.
type Model struct {
	// rackBias is the per-rack CPU-intensity bias: some racks
	// systematically attract more CPU-intensive jobs (paper §IV-A: rack
	// (0,D) draws the most power despite not having the highest
	// utilization).
	rackBias [topology.NumRacks]float64
	// EfficiencyDriftPerYear models the slow growth of per-node draw as
	// applications became better optimized over Mira's lifetime
	// (default +0.8%/year).
	EfficiencyDriftPerYear float64
}

// NewModel creates a power model. The seed shapes the per-rack intensity
// bias field.
func NewModel(seed int64) *Model {
	m := &Model{EfficiencyDriftPerYear: 0.008}
	rng := rand.New(rand.NewSource(seed))
	for i := range m.rackBias {
		m.rackBias[i] = 1 + 0.04*rng.NormFloat64()
		if m.rackBias[i] < 0.88 {
			m.rackBias[i] = 0.88
		}
		if m.rackBias[i] > 1.12 {
			m.rackBias[i] = 1.12
		}
	}
	// Rack (0,D) hosts the most CPU-intensive workloads on Mira.
	m.rackBias[topology.HotRack.Index()] = 1.13
	return m
}

// RackBias returns the CPU-intensity bias of a rack (≈1.0).
func (m *Model) RackBias(r topology.RackID) float64 { return m.rackBias[r.Index()] }

// drift returns the multiplicative power drift at time t.
func (m *Model) drift(t time.Time) float64 {
	years := t.Sub(timeutil.ProductionStart).Hours() / (365.25 * 24)
	return 1 + m.EfficiencyDriftPerYear*years
}

// RackPower returns the AC-side power drawn by one rack given its two
// midplane snapshots. A rack that is Down draws nothing.
func (m *Model) RackPower(r topology.RackID, mids []scheduler.MidplaneSnapshot, t time.Time) units.Watts {
	downCount := 0
	var dynamic units.Watts
	bias := m.rackBias[r.Index()]
	for _, mp := range mids {
		switch mp.State {
		case scheduler.Down:
			downCount++
		case scheduler.Busy:
			dynamic += units.Watts(float64(MidplaneDynamic) * mp.Intensity * bias)
		case scheduler.Burning:
			// Burner jobs burn cycles without the memory/network activity
			// of production work; bias does not apply.
			dynamic += units.Watts(float64(MidplaneDynamic) * mp.Intensity)
		}
	}
	if downCount == len(mids) {
		return 0 // solenoid closed, power supply off
	}
	dc := RackIdle + dynamic + FanPerRack
	// Partially-down racks idle the affected midplane's share.
	if downCount > 0 {
		frac := 1 - float64(downCount)/float64(len(mids))*0.4
		dc = units.Watts(float64(dc) * frac)
	}
	ac := units.Watts(float64(dc) / BPMEfficiency * m.drift(t))
	return ac
}

// SystemPower returns the total facility-metered power: all 48 compute racks
// plus auxiliary equipment. The snapshot must cover all midplanes in
// scheduler order.
func (m *Model) SystemPower(snap []scheduler.MidplaneSnapshot, t time.Time) units.Watts {
	total := AuxiliaryBase
	for i := 0; i < topology.NumRacks; i++ {
		base := i * topology.MidplanesPerRack
		total += m.RackPower(topology.RackByIndex(i), snap[base:base+topology.MidplanesPerRack], t)
	}
	return total
}

// RackHeatToCoolant returns the portion of a rack's power dissipated into
// the internal water loop. The Blue Gene/Q design removes ≈90% of rack heat
// through the coolant; the rest escapes to room air.
func RackHeatToCoolant(rackPower units.Watts) units.Watts {
	return units.Watts(float64(rackPower) * 0.90)
}
