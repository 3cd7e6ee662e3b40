// Package units provides the physical quantities and conversions used by the
// Mira digital twin: temperatures, volumetric flow, power, energy, relative
// humidity, and refrigeration capacity, together with psychrometric helpers
// such as dewpoint.
//
// All quantities are represented as typed float64s so that, for example, a
// flow rate cannot be passed where a temperature is expected. The paper
// reports values in US customary units (°F, GPM); those are the canonical
// representations here, with SI conversions provided.
package units

import (
	"fmt"
	"math"
)

// Fahrenheit is a temperature in degrees Fahrenheit, the unit the paper's
// coolant-monitor telemetry is reported in.
type Fahrenheit float64

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// Celsius converts the temperature to degrees Celsius.
func (f Fahrenheit) Celsius() Celsius { return Celsius((float64(f) - 32) * 5 / 9) }

// Fahrenheit converts the temperature to degrees Fahrenheit.
func (c Celsius) Fahrenheit() Fahrenheit { return Fahrenheit(float64(c)*9/5 + 32) }

// kelvin returns the absolute temperature in kelvins.
func (c Celsius) kelvin() float64 { return float64(c) + 273.15 }

func (f Fahrenheit) String() string { return fmt.Sprintf("%.2f°F", float64(f)) }
func (c Celsius) String() string    { return fmt.Sprintf("%.2f°C", float64(c)) }

// GPM is a volumetric flow rate in US gallons per minute, the unit used for
// Mira's coolant loop (plant total ~1250–1300 GPM, ~26 GPM per rack).
type GPM float64

// LitersPerMinute converts the flow rate to liters per minute.
func (g GPM) LitersPerMinute() float64 { return float64(g) * litersPerGallon }

func (g GPM) String() string { return fmt.Sprintf("%.1f GPM", float64(g)) }

const litersPerGallon = 3.785411784

// Watts is electrical or thermal power in watts.
type Watts float64

// Megawatts returns the power in MW (Mira draws 2.5–2.9 MW).
func (w Watts) Megawatts() float64 { return float64(w) / 1e6 }

// Kilowatts returns the power in kW.
func (w Watts) Kilowatts() float64 { return float64(w) / 1e3 }

func (w Watts) String() string {
	switch {
	case math.Abs(float64(w)) >= 1e6:
		return fmt.Sprintf("%.3f MW", w.Megawatts())
	case math.Abs(float64(w)) >= 1e3:
		return fmt.Sprintf("%.2f kW", w.Kilowatts())
	default:
		return fmt.Sprintf("%.1f W", float64(w))
	}
}

// MW constructs a Watts value from megawatts.
func MW(mw float64) Watts { return Watts(mw * 1e6) }

// KilowattHours is electrical energy in kWh, the unit the paper uses for
// free-cooling savings (17,820 kWh/day; 2,174,040 kWh per cold season).
type KilowattHours float64

func (e KilowattHours) String() string { return fmt.Sprintf("%.0f kWh", float64(e)) }

// EnergyOver returns the energy consumed by drawing p for the given number of
// hours.
func EnergyOver(p Watts, hours float64) KilowattHours {
	return KilowattHours(p.Kilowatts() * hours)
}

// RelativeHumidity is relative humidity in percent (0–100 %RH). Mira's data
// center varied between roughly 28 and 37 %RH.
type RelativeHumidity float64

func (rh RelativeHumidity) String() string { return fmt.Sprintf("%.1f %%RH", float64(rh)) }

// Clamp returns the humidity limited to the physical range [0, 100].
func (rh RelativeHumidity) Clamp() RelativeHumidity {
	if rh < 0 {
		return 0
	}
	if rh > 100 {
		return 100
	}
	return rh
}

// TonsRefrigeration is cooling capacity in US refrigeration tons. Each of the
// two Mira chiller towers is rated for 1,500 tons.
type TonsRefrigeration float64

// watts returns the equivalent heat-removal rate. One ton of refrigeration is
// 12,000 BTU/h ≈ 3,516.85 W.
func (t TonsRefrigeration) watts() Watts { return Watts(float64(t) * 3516.8528) }

func (t TonsRefrigeration) String() string { return fmt.Sprintf("%.0f tons", float64(t)) }

// Dewpoint computes the dewpoint temperature for the given dry-bulb
// temperature and relative humidity using the Magnus-Tetens approximation.
// The Blue Gene/Q coolant monitor raises a fatal event when the dewpoint
// approaches the data-center temperature (condensation risk).
func Dewpoint(t Fahrenheit, rh RelativeHumidity) Fahrenheit {
	const (
		a = 17.625
		b = 243.04 // °C
	)
	rhFrac := float64(rh.Clamp()) / 100
	if rhFrac < 1e-6 {
		rhFrac = 1e-6
	}
	tc := float64(t.Celsius())
	gamma := math.Log(rhFrac) + a*tc/(b+tc)
	dp := Celsius(b * gamma / (a - gamma))
	return dp.Fahrenheit()
}

// CondensationMargin returns how far the data-center dry-bulb temperature is
// above the dewpoint, in °F. Small or negative margins indicate condensation
// risk on cold surfaces such as coolant lines.
func CondensationMargin(t Fahrenheit, rh RelativeHumidity) float64 {
	return float64(t) - float64(Dewpoint(t, rh))
}

// WaterHeatCapacityFlow returns the heat-carrying capacity of a water flow in
// watts per °F of temperature rise: Q = m·c·ΔT. Used by the heat-exchanger
// model to relate rack heat load, coolant flow, and the inlet→outlet
// temperature delta.
func WaterHeatCapacityFlow(flow GPM) float64 {
	// mass flow: L/min → kg/s (1 L water ≈ 1 kg).
	kgPerSec := flow.LitersPerMinute() / 60.0
	const cWater = 4186.0 // J/(kg·K)
	wattsPerKelvin := kgPerSec * cWater
	// 1 °F = 5/9 K.
	return wattsPerKelvin * 5.0 / 9.0
}

// OutletTemperature returns the coolant outlet temperature for a rack given
// the inlet temperature, the heat load dissipated into the internal loop, and
// the loop flow rate.
func OutletTemperature(inlet Fahrenheit, heat Watts, flow GPM) Fahrenheit {
	cap := WaterHeatCapacityFlow(flow)
	if cap <= 0 {
		// No flow: model a large but finite rise; the solenoid valve or a
		// failure upstream should have intervened well before this matters.
		return inlet + 100
	}
	return inlet + Fahrenheit(float64(heat)/cap)
}
