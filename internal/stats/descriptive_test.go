package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanMedian(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Median", Median(xs), 4.5, 1e-12)
	approx(t, "Median odd", Median([]float64{3, 1, 2}), 2, 1e-12)
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Error("empty input should give NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Variance", Variance(xs), 4, 1e-12)
	approx(t, "StdDev", StdDev(xs), 2, 1e-12)
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	approx(t, "Min", Min(xs), -1, 0)
	approx(t, "Max", Max(xs), 7, 0)
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Min/Max should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	approx(t, "Q0", Quantile(xs, 0), 1, 1e-12)
	approx(t, "Q1", Quantile(xs, 1), 5, 1e-12)
	approx(t, "Q0.5", Quantile(xs, 0.5), 3, 1e-12)
	approx(t, "Q0.25", Quantile(xs, 0.25), 2, 1e-12)
	approx(t, "Q0.1", Quantile(xs, 0.1), 1.4, 1e-12)
	if !math.IsNaN(Quantile(xs, -0.1)) || !math.IsNaN(Quantile(xs, 1.1)) {
		t.Error("out-of-range q should give NaN")
	}
	if !math.IsNaN(Quantile([]float64{}, 0.5)) {
		t.Error("empty input should give NaN")
	}
	approx(t, "single", Quantile([]float64{42}, 0.73), 42, 0)
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	_ = Quantile(xs, 0.5)
	want := []float64{5, 1, 4, 2, 3}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("Quantile mutated input: %v", xs)
		}
	}
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := Quantiles(xs, 0, 0.5, 1, 2)
	approx(t, "batch q0", got[0], 1, 1e-12)
	approx(t, "batch q.5", got[1], 3, 1e-12)
	approx(t, "batch q1", got[2], 5, 1e-12)
	if !math.IsNaN(got[3]) {
		t.Error("invalid q in batch should be NaN")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	f := func(a, b float64) bool {
		qa := math.Mod(math.Abs(a), 1)
		qb := math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 {
		t.Errorf("N = %d", s.N)
	}
	approx(t, "Summary.Mean", s.Mean, 50, 1e-9)
	approx(t, "Summary.Median", s.Median, 50, 1e-9)
	approx(t, "Summary.Min", s.Min, 0, 0)
	approx(t, "Summary.Max", s.Max, 100, 0)
	approx(t, "Summary.P25", s.P25, 25, 1e-9)
	approx(t, "Summary.P95", s.P95, 95, 1e-9)
	empty := Summarize(nil)
	if !math.IsNaN(empty.Mean) || empty.N != 0 {
		t.Error("empty summary should be NaN/0")
	}
}

func TestSpreadPercent(t *testing.T) {
	// 26 GPM min, 28.86 GPM max → 11% spread, the Fig. 7 flow variation.
	approx(t, "SpreadPercent", SpreadPercent([]float64{26, 27, 28.86}), 11, 0.01)
	if !math.IsInf(SpreadPercent([]float64{0, 5}), 1) {
		t.Error("zero min should give +Inf")
	}
	if !math.IsNaN(SpreadPercent(nil)) {
		t.Error("empty should be NaN")
	}
}

func TestPercentChange(t *testing.T) {
	approx(t, "PercentChange", PercentChange(2.5, 2.9), 16, 1e-9)
	approx(t, "PercentChange down", PercentChange(64, 59.52), -7, 1e-9)
	if !math.IsInf(PercentChange(0, 1), 1) {
		t.Error("zero base should give +Inf")
	}
}
