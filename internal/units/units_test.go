package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFahrenheitCelsiusRoundTrip(t *testing.T) {
	cases := []struct {
		f Fahrenheit
		c Celsius
	}{
		{32, 0},
		{212, 100},
		{-40, -40},
		{64, 17.7778},
		{79, 26.1111},
	}
	for _, tc := range cases {
		if got := tc.f.Celsius(); !almostEqual(float64(got), float64(tc.c), 1e-3) {
			t.Errorf("%v.Celsius() = %v, want %v", tc.f, got, tc.c)
		}
		if got := tc.c.Fahrenheit(); !almostEqual(float64(got), float64(tc.f), 1e-3) {
			t.Errorf("%v.Fahrenheit() = %v, want %v", tc.c, got, tc.f)
		}
	}
}

func TestConversionRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 1e6 {
			return true
		}
		back := Fahrenheit(x).Celsius().Fahrenheit()
		return almostEqual(float64(back), x, 1e-6*math.Max(1, math.Abs(x)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKelvin(t *testing.T) {
	if got := Celsius(0).kelvin(); !almostEqual(got, 273.15, 1e-9) {
		t.Errorf("0C = %vK, want 273.15", got)
	}
}

func TestGPMLiters(t *testing.T) {
	if got := GPM(1).LitersPerMinute(); !almostEqual(got, 3.785411784, 1e-9) {
		t.Errorf("1 GPM = %v L/min", got)
	}
	// Per-rack flow on Mira is ~26 GPM ≈ 98.4 L/min.
	if got := GPM(26).LitersPerMinute(); !almostEqual(got, 98.42, 0.01) {
		t.Errorf("26 GPM = %v L/min, want ~98.42", got)
	}
}

func TestPowerConversions(t *testing.T) {
	if got := MW(2.5); got != Watts(2.5e6) {
		t.Errorf("MW(2.5) = %v", got)
	}
	if got := Watts(2.9e6).Megawatts(); !almostEqual(got, 2.9, 1e-12) {
		t.Errorf("Megawatts = %v", got)
	}
	if got := Watts(1500).Kilowatts(); !almostEqual(got, 1.5, 1e-12) {
		t.Errorf("Kilowatts = %v", got)
	}
}

func TestPowerString(t *testing.T) {
	cases := []struct {
		w    Watts
		want string
	}{
		{MW(2.5), "2.500 MW"},
		{Watts(17820), "17.82 kW"},
		{Watts(42), "42.0 W"},
	}
	for _, tc := range cases {
		if got := tc.w.String(); got != tc.want {
			t.Errorf("(%v).String() = %q, want %q", float64(tc.w), got, tc.want)
		}
	}
}

func TestEnergyOver(t *testing.T) {
	// Paper: not running chillers saves 17,820 kWh per day. At a constant
	// draw that is 742.5 kW for 24 h.
	got := EnergyOver(Watts(742500), 24)
	if !almostEqual(float64(got), 17820, 1e-9) {
		t.Errorf("EnergyOver = %v, want 17820", got)
	}
}

func TestHumidityClamp(t *testing.T) {
	if got := RelativeHumidity(-3).Clamp(); got != 0 {
		t.Errorf("Clamp(-3) = %v", got)
	}
	if got := RelativeHumidity(104).Clamp(); got != 100 {
		t.Errorf("Clamp(104) = %v", got)
	}
	if got := RelativeHumidity(33).Clamp(); got != 33 {
		t.Errorf("Clamp(33) = %v", got)
	}
}

func TestTonsRefrigeration(t *testing.T) {
	// One 1,500-ton chiller ≈ 5.28 MW of heat removal.
	got := TonsRefrigeration(1500).watts()
	if !almostEqual(got.Megawatts(), 5.275, 0.01) {
		t.Errorf("1500 tons = %v, want ~5.275 MW", got)
	}
}

func TestDewpointKnownValues(t *testing.T) {
	// At 100% RH the dewpoint equals the dry-bulb temperature.
	for _, temp := range []Fahrenheit{60, 75, 90} {
		dp := Dewpoint(temp, 100)
		if !almostEqual(float64(dp), float64(temp), 0.05) {
			t.Errorf("Dewpoint(%v, 100) = %v, want %v", temp, dp, temp)
		}
	}
	// 80°F at 30%RH has a dewpoint around 46-47°F (standard psychrometrics).
	dp := Dewpoint(80, 30)
	if float64(dp) < 44 || float64(dp) > 49 {
		t.Errorf("Dewpoint(80F, 30RH) = %v, want ≈46-47F", dp)
	}
}

func TestDewpointMonotonicInHumidity(t *testing.T) {
	f := func(rhRaw float64) bool {
		rh := RelativeHumidity(math.Mod(math.Abs(rhRaw), 90) + 5)
		lower := Dewpoint(80, rh)
		higher := Dewpoint(80, rh+5)
		return float64(higher) > float64(lower)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCondensationMargin(t *testing.T) {
	// Dry data center: large margin.
	if m := CondensationMargin(80, 30); m < 25 {
		t.Errorf("margin at 30RH = %v, want > 25F", m)
	}
	// Saturated: margin ~0.
	if m := CondensationMargin(80, 100); math.Abs(m) > 0.1 {
		t.Errorf("margin at 100RH = %v, want ~0", m)
	}
	// Margin shrinks as humidity rises.
	if CondensationMargin(80, 60) >= CondensationMargin(80, 40) {
		t.Error("margin should shrink with rising humidity")
	}
}

func TestWaterHeatCapacityFlow(t *testing.T) {
	// 26 GPM ≈ 1.64 kg/s → ~6866 W/K → ~3814 W/°F.
	got := WaterHeatCapacityFlow(26)
	if !almostEqual(got, 3814, 25) {
		t.Errorf("WaterHeatCapacityFlow(26) = %v, want ≈3814 W/°F", got)
	}
}

func TestOutletTemperature(t *testing.T) {
	// A rack drawing ~57 kW at 26 GPM should warm the coolant by ~15°F,
	// consistent with the paper's 64°F inlet / 79°F outlet.
	out := OutletTemperature(64, Watts(57e3), 26)
	if float64(out) < 76 || float64(out) > 82 {
		t.Errorf("OutletTemperature = %v, want ≈79F", out)
	}
	// Zero heat: outlet equals inlet.
	if out := OutletTemperature(64, 0, 26); out != 64 {
		t.Errorf("no-heat outlet = %v, want 64", out)
	}
	// Zero flow is guarded.
	if out := OutletTemperature(64, Watts(57e3), 0); out <= 64 {
		t.Errorf("no-flow outlet = %v, want > inlet", out)
	}
}

func TestOutletTemperatureMonotone(t *testing.T) {
	f := func(heatRaw, flowRaw float64) bool {
		heat := Watts(math.Mod(math.Abs(heatRaw), 9e4) + 1e3)
		flow := GPM(math.Mod(math.Abs(flowRaw), 30) + 5)
		base := OutletTemperature(64, heat, flow)
		hotter := OutletTemperature(64, heat+1000, flow)
		faster := OutletTemperature(64, heat, flow+2)
		return float64(hotter) > float64(base) && float64(faster) < float64(base)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	if got := Fahrenheit(64.25).String(); got != "64.25°F" {
		t.Errorf("Fahrenheit.String = %q", got)
	}
	if got := Celsius(17.5).String(); got != "17.50°C" {
		t.Errorf("Celsius.String = %q", got)
	}
	if got := GPM(1250).String(); got != "1250.0 GPM" {
		t.Errorf("GPM.String = %q", got)
	}
	if got := RelativeHumidity(36.5).String(); got != "36.5 %RH" {
		t.Errorf("RH.String = %q", got)
	}
	if got := TonsRefrigeration(1500).String(); got != "1500 tons" {
		t.Errorf("Tons.String = %q", got)
	}
	if got := KilowattHours(17820).String(); got != "17820 kWh" {
		t.Errorf("kWh.String = %q", got)
	}
}
