package weather

import (
	"math"
	"testing"
	"time"

	"mira/internal/timeutil"
	"mira/internal/units"
)

func TestDeterminism(t *testing.T) {
	a := New(7)
	b := New(7)
	ts := time.Date(2015, 4, 10, 14, 0, 0, 0, timeutil.Chicago)
	ca, cb := a.At(ts), b.At(ts)
	if ca != cb {
		t.Errorf("same seed should give identical conditions: %+v vs %+v", ca, cb)
	}
	c := New(8)
	if a.At(ts) == c.At(ts) {
		t.Error("different seeds should differ")
	}
}

func TestSeasonalCycle(t *testing.T) {
	m := New(1)
	// Average over many days to wash out noise.
	meanTemp := func(month time.Month) float64 {
		var sum float64
		n := 0
		for year := 2014; year <= 2018; year++ {
			for day := 1; day <= 28; day += 3 {
				for _, hour := range []int{3, 9, 15, 21} {
					ts := time.Date(year, month, day, hour, 0, 0, 0, timeutil.Chicago)
					sum += float64(m.At(ts).Temperature)
					n++
				}
			}
		}
		return sum / float64(n)
	}
	jan, jul := meanTemp(time.January), meanTemp(time.July)
	if jul-jan < 30 {
		t.Errorf("July (%v) should be much warmer than January (%v)", jul, jan)
	}
	if jan < 5 || jan > 40 {
		t.Errorf("January mean = %v°F, implausible for Chicago", jan)
	}
	if jul < 60 || jul > 95 {
		t.Errorf("July mean = %v°F, implausible for Chicago", jul)
	}
}

func TestDiurnalCycle(t *testing.T) {
	m := New(2)
	// Afternoon warmer than pre-dawn, averaged over a summer month.
	var night, day float64
	n := 0
	for d := 1; d <= 28; d++ {
		ts := time.Date(2015, 7, d, 4, 0, 0, 0, timeutil.Chicago)
		night += float64(m.At(ts).Temperature)
		ts = time.Date(2015, 7, d, 15, 0, 0, 0, timeutil.Chicago)
		day += float64(m.At(ts).Temperature)
		n++
	}
	if (day-night)/float64(n) < 5 {
		t.Errorf("afternoon should average ≥5°F above pre-dawn, got %v", (day-night)/float64(n))
	}
}

func TestHumiditySeasonality(t *testing.T) {
	m := New(3)
	meanRH := func(month time.Month) float64 {
		var sum float64
		n := 0
		for year := 2014; year <= 2018; year++ {
			for day := 1; day <= 28; day += 2 {
				ts := time.Date(year, month, day, 12, 0, 0, 0, timeutil.Chicago)
				sum += float64(m.At(ts).Humidity)
				n++
			}
		}
		return sum / float64(n)
	}
	jan, jul := meanRH(time.January), meanRH(time.July)
	if jul <= jan {
		t.Errorf("summer RH (%v) should exceed winter RH (%v)", jul, jan)
	}
	if jan < 30 || jul > 100 {
		t.Errorf("implausible RH: jan=%v jul=%v", jan, jul)
	}
}

func TestHumidityInRange(t *testing.T) {
	m := New(4)
	for ts := timeutil.ProductionStart; ts.Before(timeutil.ProductionEnd); ts = ts.Add(37 * time.Hour) {
		c := m.At(ts)
		if c.Humidity < 0 || c.Humidity > 100 {
			t.Fatalf("RH out of range at %v: %v", ts, c.Humidity)
		}
		if c.Temperature < -40 || c.Temperature > 115 {
			t.Fatalf("temperature out of plausible range at %v: %v", ts, c.Temperature)
		}
	}
}

func TestWetBulbProperties(t *testing.T) {
	// Wet bulb never exceeds dry bulb and equals it near saturation.
	for _, temp := range []units.Fahrenheit{20, 40, 60, 80, 95} {
		for _, rh := range []units.RelativeHumidity{20, 50, 80, 100} {
			wb := WetBulb(temp, rh)
			if float64(wb) > float64(temp)+0.8 {
				t.Errorf("WetBulb(%v, %v) = %v exceeds dry bulb", temp, rh, wb)
			}
		}
		wb100 := WetBulb(temp, 100)
		if math.Abs(float64(wb100)-float64(temp)) > 2.5 {
			t.Errorf("WetBulb(%v, 100) = %v, want ≈ dry bulb", temp, wb100)
		}
	}
	// Known point: 68°F (20°C) at 50%RH → wet bulb ≈ 57°F (13.7°C).
	wb := WetBulb(68, 50)
	if float64(wb) < 54 || float64(wb) > 60 {
		t.Errorf("WetBulb(68, 50) = %v, want ≈57°F", wb)
	}
}

func TestFreeCoolingSeasonality(t *testing.T) {
	m := New(5)
	countAvailable := func(month time.Month) int {
		n := 0
		for year := 2014; year <= 2019; year++ {
			for day := 1; day <= 28; day += 2 {
				ts := time.Date(year, month, day, 12, 0, 0, 0, timeutil.Chicago)
				if m.At(ts).WetBulb <= EconomizerThreshold {
					n++
				}
			}
		}
		return n
	}
	jan := countAvailable(time.January)
	jul := countAvailable(time.July)
	if jan < 50 { // out of 84 midday samples
		t.Errorf("January free cooling available only %d/84 times", jan)
	}
	if jul != 0 {
		t.Errorf("July free cooling available %d times, want 0", jul)
	}
}

func TestValueNoiseSmoothAndBounded(t *testing.T) {
	m := New(6)
	prev := m.valueNoise(0, 1)
	for i := 1; i < 2000; i++ {
		x := float64(i) * 0.05
		v := m.valueNoise(x, 1)
		if v < -1.001 || v > 1.001 {
			t.Fatalf("noise out of bounds at %v: %v", x, v)
		}
		if math.Abs(v-prev) > 0.35 {
			t.Fatalf("noise jumped too fast at %v: %v -> %v", x, prev, v)
		}
		prev = v
	}
}

func TestValueNoiseChannelsDecorrelated(t *testing.T) {
	m := New(9)
	var dot, na, nb float64
	for i := 0; i < 3000; i++ {
		x := float64(i) * 0.7
		a := m.valueNoise(x, 0x51)
		b := m.valueNoise(x, 0x53)
		dot += a * b
		na += a * a
		nb += b * b
	}
	corr := dot / math.Sqrt(na*nb)
	if math.Abs(corr) > 0.12 {
		t.Errorf("channels correlated: %v", corr)
	}
}
