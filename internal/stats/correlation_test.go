package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Pearson perfect +", r, 1, 1e-12)

	neg := []float64{10, 8, 6, 4, 2}
	r, err = Pearson(xs, neg)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Pearson perfect -", r, -1, 1e-12)
}

func TestPearsonIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.03 {
		t.Errorf("independent Pearson = %v, want ≈0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	r, err := Pearson([]float64{3, 3, 3}, []float64{1, 2, 3})
	if err != nil || !math.IsNaN(r) {
		t.Errorf("zero-variance Pearson = %v, %v; want NaN, nil", r, err)
	}
}

func TestPearsonInvariantToAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] + 0.3*rng.NormFloat64()
	}
	r1, _ := Pearson(xs, ys)
	scaled := make([]float64, len(xs))
	for i, x := range xs {
		scaled[i] = 100*x - 40
	}
	r2, _ := Pearson(scaled, ys)
	approx(t, "affine invariance", r2, r1, 1e-9)
}

func TestFitLineExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{5, 7, 9, 11} // y = 5 + 2x
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "Slope", fit.Slope, 2, 1e-12)
	approx(t, "Intercept", fit.Intercept, 5, 1e-12)
	approx(t, "R2", fit.R2, 1, 1e-12)
	approx(t, "At(10)", fit.At(10), 25, 1e-12)
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Mira-like: power rises 2.5 → 2.9 MW over six years.
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		frac := float64(i) / float64(n-1)
		xs[i] = 2014 + 6*frac
		ys[i] = 2.5 + 0.4*frac + 0.08*rng.NormFloat64()
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "noisy slope", fit.Slope, 0.4/6, 0.01)
	if fit.Slope <= 0 {
		t.Error("trend should be rising")
	}
	if fit.R2 <= 0.3 || fit.R2 > 1 {
		t.Errorf("R2 = %v out of plausible range", fit.R2)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if _, err := FitLine([]float64{1, 2}, []float64{1}); err != ErrLengthMismatch {
		t.Errorf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := FitLine([]float64{1}, []float64{1}); err != ErrEmpty {
		t.Errorf("want ErrEmpty, got %v", err)
	}
	fit, err := FitLine([]float64{2, 2, 2}, []float64{1, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "constant-x slope", fit.Slope, 0, 0)
	approx(t, "constant-x intercept", fit.Intercept, 5, 1e-12)
}
