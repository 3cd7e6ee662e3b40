package stats

import (
	"math"
)

// Pearson returns the Pearson product-moment correlation coefficient between
// paired samples xs and ys, in [-1, 1]. It returns an error for mismatched
// lengths or fewer than two observations, and NaN when either sample has zero
// variance.
//
// The paper uses this to quantify, e.g., the 0.45 correlation between rack
// power and rack utilization (Fig. 6) and the weak correlations between CMF
// counts and utilization (−0.21), outlet temperature (−0.06), and humidity
// (0.06) in Fig. 11.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return math.NaN(), ErrLengthMismatch
	}
	if len(xs) < 2 {
		return math.NaN(), ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN(), nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// LinearFit is an ordinary-least-squares straight-line fit y = Intercept +
// Slope·x, the "red line" drawn through the yearly trends in Fig. 2.
type LinearFit struct {
	Slope     float64
	Intercept float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
}

// FitLine computes the OLS fit of ys against xs. It returns an error for
// mismatched lengths or fewer than two points, and a zero-slope fit when xs
// has no variance.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Slope: 0, Intercept: my, R2: 0}, nil
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		// R² = 1 − SSR/SST for OLS equals (sxy²)/(sxx·syy).
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// At evaluates the fitted line at x.
func (f LinearFit) At(x float64) float64 { return f.Intercept + f.Slope*x }
