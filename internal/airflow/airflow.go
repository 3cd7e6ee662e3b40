// Package airflow models the underfloor airflow field beneath Mira's three
// rack rows and its effect on per-rack ambient conditions. The paper's §V
// findings it reproduces: airflow is significantly lower near the ends of
// each row (obstructive surfaces), making those racks drier and warmer;
// localized obstructions (plumbing pipes, air-cooling vents, torus cables)
// create additional anomalies, most prominently the humidity hotspot at rack
// (1,8); rack-to-rack differences reach ≈36% for humidity and ≈11% for
// temperature.
package airflow

import (
	"math/rand"

	"mira/internal/topology"
	"mira/internal/units"
)

// Field is the static per-rack airflow characterization of the machine
// floor. It is built once per simulation from the obstruction layout.
type Field struct {
	score [topology.NumRacks]float64 // 0 = fully obstructed, 1 = free flow
}

// NewField builds the airflow field. The seed shapes the random component of
// the obstruction map; the row-end effect and the rack (1,8) hotspot are
// structural.
func NewField(seed int64) *Field {
	rng := rand.New(rand.NewSource(seed))
	f := &Field{}
	for i := range f.score {
		r := topology.RackByIndex(i)
		score := 1.0
		// Row ends: the last three-four racks on either side of each row
		// sit behind obstructive surfaces; airflow tapers toward the ends.
		if d := r.DistanceFromRowEnd(); d < 4 {
			score -= 0.38 * (1 - float64(d)/4)
		}
		// Scattered under-floor obstructions: pipes, vents, cable trays.
		score -= 0.10 * rng.Float64()
		if score < 0.2 {
			score = 0.2
		}
		f.score[i] = score
	}
	// Rack (1,8): airflow-blocking plumbing and torus cabling right under
	// the center of row 1 trap humid air — the paper's localized hotspot.
	f.score[topology.HumidityHotspot.Index()] = 0.30
	return f
}

// Row-end racks are drier (obstructions keep the moist supply air away) yet
// warmer (less heat is carried off). Rack (1,8) behaves differently: its
// obstructions trap moist air rather than blocking supply, so low airflow
// there raises humidity. The hotspot flag keeps the two cases apart.

// RackTemperature maps the room-level ambient temperature to the rack-local
// value: low-airflow racks run warmer. The offsets span ≈8°F, which against
// a ≈76–82°F base reproduces the paper's ≤11% rack-to-rack temperature
// difference.
func (f *Field) RackTemperature(base units.Fahrenheit, r topology.RackID) units.Fahrenheit {
	score := f.score[r.Index()]
	return base + units.Fahrenheit(8.0*(1-score))
}

// RackHumidity maps the room-level humidity to the rack-local value.
// Ordinary low-airflow racks (row ends) are drier; the (1,8) hotspot traps
// moisture and reads wetter. Factors span ≈0.78–1.10, reproducing the
// paper's ≤36% rack-to-rack humidity difference.
func (f *Field) RackHumidity(base units.RelativeHumidity, r topology.RackID) units.RelativeHumidity {
	score := f.score[r.Index()]
	var factor float64
	if r == topology.HumidityHotspot {
		factor = 1.10
	} else {
		// score 1 → 1.02; score 0.52 (row end) → 0.81.
		factor = 0.58 + 0.44*score
	}
	return units.RelativeHumidity(float64(base) * factor).Clamp()
}
