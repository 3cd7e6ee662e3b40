package airflow

import (
	"testing"

	"mira/internal/stats"
	"mira/internal/topology"
	"mira/internal/units"
)

func TestScoresInRange(t *testing.T) {
	f := NewField(1)
	for _, r := range topology.AllRacks() {
		s := f.score[r.Index()]
		if s <= 0 || s > 1 {
			t.Errorf("score(%v) = %v out of (0,1]", r, s)
		}
	}
}

func TestRowEndsHaveLowerAirflow(t *testing.T) {
	f := NewField(2)
	for row := 0; row < topology.Rows; row++ {
		end := f.score[topology.RackID{Row: row, Col: 0}.Index()]
		center := f.score[topology.RackID{Row: row, Col: 7}.Index()]
		if row == 1 {
			// Column 8 of row 1 is the hotspot; use column 7 as center,
			// still fine. Column 0 must be below center regardless.
			_ = center
		}
		if end >= center {
			t.Errorf("row %d: end score %v should be below center %v", row, end, center)
		}
	}
}

func TestHotspotRack(t *testing.T) {
	f := NewField(3)
	if s := f.score[topology.HumidityHotspot.Index()]; s > 0.35 {
		t.Errorf("hotspot score = %v, want <= 0.35", s)
	}
	// Hotspot is more humid than its neighbors despite low airflow.
	base := units.RelativeHumidity(32)
	hot := f.RackHumidity(base, topology.HumidityHotspot)
	neighbor := f.RackHumidity(base, topology.RackID{Row: 1, Col: 7})
	if hot <= neighbor {
		t.Errorf("hotspot humidity %v should exceed neighbor %v", hot, neighbor)
	}
}

func TestRowEndsDrierAndWarmer(t *testing.T) {
	f := NewField(4)
	baseT := units.Fahrenheit(80)
	baseRH := units.RelativeHumidity(32)
	end := topology.RackID{Row: 0, Col: 15}
	center := topology.RackID{Row: 0, Col: 7}
	if f.RackTemperature(baseT, end) <= f.RackTemperature(baseT, center) {
		t.Error("row-end rack should be warmer")
	}
	if f.RackHumidity(baseRH, end) >= f.RackHumidity(baseRH, center) {
		t.Error("row-end rack should be drier")
	}
}

func TestSpreadMatchesPaper(t *testing.T) {
	f := NewField(5)
	baseT := units.Fahrenheit(80)
	baseRH := units.RelativeHumidity(32)
	var temps, rhs []float64
	for _, r := range topology.AllRacks() {
		temps = append(temps, float64(f.RackTemperature(baseT, r)))
		rhs = append(rhs, float64(f.RackHumidity(baseRH, r)))
	}
	// Paper: temperature differs by up to 11%, humidity by up to 36%.
	tSpread := stats.SpreadPercent(temps)
	if tSpread < 4 || tSpread > 13 {
		t.Errorf("temperature spread = %v%%, want ≈8-11%%", tSpread)
	}
	hSpread := stats.SpreadPercent(rhs)
	if hSpread < 25 || hSpread > 42 {
		t.Errorf("humidity spread = %v%%, want ≈36%%", hSpread)
	}
	// The hotspot is the most humid rack on the floor.
	hot := float64(f.RackHumidity(baseRH, topology.HumidityHotspot))
	if hot < stats.Max(rhs) {
		t.Errorf("hotspot humidity %v should be the maximum %v", hot, stats.Max(rhs))
	}
}

func TestHumidityClamped(t *testing.T) {
	f := NewField(6)
	rh := f.RackHumidity(98, topology.HumidityHotspot)
	if rh > 100 {
		t.Errorf("humidity %v exceeds 100", rh)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := NewField(7), NewField(7)
	for _, r := range topology.AllRacks() {
		if a.score[r.Index()] != b.score[r.Index()] {
			t.Fatal("field should be deterministic")
		}
	}
}
