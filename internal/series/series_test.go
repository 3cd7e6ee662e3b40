package series

import (
	"math"
	"testing"
	"time"

	"mira/internal/timeutil"
)

var t0 = time.Date(2015, 3, 2, 0, 0, 0, 0, timeutil.Chicago) // a Monday

func TestSeriesAppendValues(t *testing.T) {
	s := newSeries("power")
	for i := 0; i < 5; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Hour), float64(i*10))
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d", s.Len())
	}
	vals := s.Values()
	if vals[0] != 0 || vals[4] != 40 {
		t.Errorf("Values = %v", vals)
	}
	if s.Name != "power" {
		t.Errorf("Name = %q", s.Name)
	}
}

func TestSeriesSlice(t *testing.T) {
	s := newSeries("x")
	for i := 0; i < 10; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Hour), float64(i))
	}
	sub := s.slice(t0.Add(2*time.Hour), t0.Add(5*time.Hour))
	if sub.Len() != 3 {
		t.Fatalf("Slice len = %d, want 3", sub.Len())
	}
	if sub.Points[0].V != 2 || sub.Points[2].V != 4 {
		t.Errorf("Slice points = %v", sub.Points)
	}
}

func TestSeriesSummary(t *testing.T) {
	s := newSeries("x")
	for i := 1; i <= 5; i++ {
		s.Append(t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	sum := s.summary()
	if sum.N != 5 || sum.Mean != 3 || sum.Median != 3 {
		t.Errorf("Summary = %+v", sum)
	}
}

func TestMeanAcc(t *testing.T) {
	var a MeanAcc
	if !math.IsNaN(a.Mean()) {
		t.Error("empty mean should be NaN")
	}
	for _, v := range []float64{2, 4, 6} {
		a.Add(v)
	}
	if a.Mean() != 4 || a.N != 3 {
		t.Errorf("MeanAcc = %v (n=%d)", a.Mean(), a.N)
	}
}

func TestVarAccMatchesBatch(t *testing.T) {
	var a VarAcc
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		a.Add(x)
	}
	if a.N() != len(xs) {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v", a.Mean())
	}
	if math.Abs(a.StdDev()-2) > 1e-12 {
		t.Errorf("StdDev = %v", a.StdDev())
	}
}

func TestVarAccEmpty(t *testing.T) {
	var a VarAcc
	if !math.IsNaN(a.Mean()) || !math.IsNaN(a.StdDev()) {
		t.Error("empty VarAcc accessors should be NaN")
	}
}

func TestGroupKeys(t *testing.T) {
	ts := time.Date(2016, 7, 4, 13, 0, 0, 0, timeutil.Chicago) // Monday
	cases := []struct {
		g    GroupBy
		want int
	}{
		{ByYear, 2016},
		{ByMonth, 7},
		{ByWeekday, 1},
		{ByHour, 13},
		{ByYearMonth, 201607},
	}
	for _, tc := range cases {
		if got := tc.g.keyOf(ts); got != tc.want {
			t.Errorf("keyOf(%d) = %d, want %d", int(tc.g), got, tc.want)
		}
	}
}

func TestProfileMonthly(t *testing.T) {
	p := NewMedianProfile(ByMonth)
	// Two years of observations: January values 10, July values 20.
	for year := 2014; year <= 2015; year++ {
		jan := time.Date(year, 1, 15, 0, 0, 0, 0, timeutil.Chicago)
		jul := time.Date(year, 7, 15, 0, 0, 0, 0, timeutil.Chicago)
		for i := 0; i < 50; i++ {
			p.Add(jan.Add(time.Duration(i)*time.Hour), 10)
			p.Add(jul.Add(time.Duration(i)*time.Hour), 20)
		}
	}
	keys := p.Keys()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 7 {
		t.Fatalf("Keys = %v", keys)
	}
	if p.Mean(1) != 10 || p.Mean(7) != 20 {
		t.Errorf("Means = %v/%v", p.Mean(1), p.Mean(7))
	}
	if p.Median(1) != 10 || p.Median(7) != 20 {
		t.Errorf("Medians = %v/%v", p.Median(1), p.Median(7))
	}
	if p.N(1) != 100 {
		t.Errorf("N(1) = %d", p.N(1))
	}
	if !math.IsNaN(p.Mean(3)) || !math.IsNaN(p.Median(3)) || p.N(3) != 0 {
		t.Error("missing key should be NaN/0")
	}
	ks, means := p.Means()
	if len(ks) != 2 || means[0] != 10 {
		t.Errorf("Means() = %v %v", ks, means)
	}
	ks, meds := p.Medians()
	if len(ks) != 2 || meds[1] != 20 {
		t.Errorf("Medians() = %v %v", ks, meds)
	}
}

func TestProfileWeekday(t *testing.T) {
	p := NewProfile(ByWeekday)
	// Monday low, other days high — the Fig. 5 shape.
	for d := 0; d < 28; d++ {
		ts := t0.AddDate(0, 0, d)
		v := 100.0
		if ts.Weekday() == time.Monday {
			v = 90
		}
		p.Add(ts, v)
	}
	if p.Mean(int(time.Monday)) != 90 {
		t.Errorf("Monday mean = %v", p.Mean(1))
	}
	if p.Mean(int(time.Wednesday)) != 100 {
		t.Errorf("Wednesday mean = %v", p.Mean(3))
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir(100, 1)
	for i := 0; i < 50; i++ {
		r.Add(float64(i))
	}
	if len(r.Values()) != 50 || r.seen != 50 {
		t.Errorf("len=%d seen=%d", len(r.Values()), r.seen)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Sampling a large uniform ramp should estimate the median well.
	r := NewReservoir(2000, 42)
	n := 200000
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if len(r.Values()) != 2000 {
		t.Fatalf("reservoir len = %d", len(r.Values()))
	}
	var sum float64
	for _, v := range r.Values() {
		sum += v
	}
	mean := sum / 2000
	if math.Abs(mean-float64(n)/2) > float64(n)*0.05 {
		t.Errorf("reservoir mean = %v, want ≈%v", mean, n/2)
	}
}

func TestReservoirPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity reservoir should panic")
		}
	}()
	NewReservoir(0, 1)
}

// sameProfile compares two mean profiles key by key, bit for bit.
func sameProfile(t *testing.T, got, want *Profile) {
	t.Helper()
	gk, wk := got.Keys(), want.Keys()
	if len(gk) != len(wk) {
		t.Fatalf("Keys = %v, want %v", gk, wk)
	}
	for i, k := range wk {
		if gk[i] != k {
			t.Fatalf("Keys = %v, want %v", gk, wk)
		}
		if got.N(k) != want.N(k) || got.Mean(k) != want.Mean(k) {
			t.Errorf("key %d: N/Mean = %d/%v, want %d/%v", k, got.N(k), got.Mean(k), want.N(k), want.Mean(k))
		}
	}
}

func TestProfileMemoIgnoresLocation(t *testing.T) {
	// 23:30 on the last of the month in Chicago is already next month (and
	// next weekday) in UTC; a memo keyed on the instant must see one
	// instant, the calendar one Chicago group.
	at := time.Date(2016, 5, 31, 23, 30, 0, 0, timeutil.Chicago)
	for _, g := range []GroupBy{ByYearMonth, ByMonth, ByWeekday} {
		p := NewProfile(g)
		p.Add(at, 1)
		p.Add(at.In(time.UTC), 2)
		p.Add(at.In(time.UTC).Add(time.Hour), 3) // a new instant, June in both zones
		p.Add(at, 4)
		if keys := p.Keys(); len(keys) != 2 || p.N(g.keyOf(at)) != 3 {
			t.Errorf("GroupBy %d: keys %v, N(%d) = %d; want two groups, three observations in May's",
				int(g), keys, g.keyOf(at), p.N(g.keyOf(at)))
		}
		if p.At(at) != p.At(at.In(time.UTC)) {
			t.Errorf("GroupBy %d: At resolves one instant in two zones to two groups", int(g))
		}
	}
}

func TestProfileMemoMatchesReference(t *testing.T) {
	// The collector memoizes a profile's group per instant: it calls At
	// when the unix-nanosecond instant changes and adds to that group
	// until the next one. Ticks of 48 observations each, crossing a month
	// end, several weekday boundaries and the 2016-11-06 fall-back hour
	// (01:30 CDT and 01:30 CST are different instants with the same wall
	// clock), then the whole sequence again backwards — the replay never
	// offers a decreasing instant, the memo must not care — must equal Add
	// per observation bit for bit.
	var ticks []time.Time
	for at := time.Date(2016, 10, 29, 0, 0, 0, 0, timeutil.Chicago); at.Before(time.Date(2016, 11, 8, 0, 0, 0, 0, timeutil.Chicago)); at = at.Add(30 * time.Minute) {
		ticks = append(ticks, at)
	}
	for i := len(ticks) - 1; i >= 0; i-- {
		ticks = append(ticks, ticks[i])
	}
	for _, g := range []GroupBy{ByYearMonth, ByMonth, ByWeekday, ByHour, ByYear} {
		got, want := NewProfile(g), NewProfile(g)
		var acc *RunningMean
		var accNano int64
		for n, at := range ticks {
			for rack := 0; rack < 48; rack++ {
				v := float64(n%97) + float64(rack)/48
				if rack%2 == 1 {
					at = at.In(time.UTC) // zones interleaved inside a tick
				}
				if acc == nil || at.UnixNano() != accNano {
					acc, accNano = got.At(at), at.UnixNano()
				}
				acc.Add(v)
				want.Add(at, v)
			}
		}
		sameProfile(t, got, want)
	}
}
