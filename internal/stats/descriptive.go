// Package stats implements the statistical toolkit the paper's analyses
// rely on: descriptive statistics, quantiles, Pearson correlation,
// ordinary-least-squares linear regression (the figures' red-line fits),
// classifier evaluation metrics, and k-fold cross-validation splits.
//
// The package is deliberately self-contained (stdlib only) because the
// original study leaned on Python's data-analysis ecosystem, which has no
// equivalent in the Go standard library.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty data")

// ErrLengthMismatch is returned when paired samples differ in length.
var ErrLengthMismatch = errors.New("stats: length mismatch")

// Mean returns the arithmetic mean of xs; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs; NaN for empty input.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value in xs; NaN for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs; NaN for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the middle value of xs (average of the two central values
// for even lengths); NaN for empty input. The input is not modified.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th quantile of xs (q in [0,1]) using linear
// interpolation between order statistics; NaN for empty input or q outside
// [0,1]. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles computes several quantiles in one pass over a single sort.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			out[i] = math.NaN()
			continue
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

// Summary bundles the descriptive statistics reported throughout the paper.
type Summary struct {
	N        int
	Mean     float64
	Median   float64
	StdDev   float64
	Min      float64
	Max      float64
	P05, P25 float64
	P75, P95 float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Median: nan, StdDev: nan, Min: nan, Max: nan, P05: nan, P25: nan, P75: nan, P95: nan}
	}
	qs := Quantiles(xs, 0.05, 0.25, 0.5, 0.75, 0.95)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: qs[2],
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		P05:    qs[0], P25: qs[1], P75: qs[3], P95: qs[4],
	}
}

// SpreadPercent returns the spread of xs as a percentage of its minimum:
// 100·(max−min)/min. The paper reports rack-to-rack variation this way
// (e.g. "flow rate varies up to 11% among the racks").
func SpreadPercent(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	mn, mx := Min(xs), Max(xs)
	if mn == 0 {
		return math.Inf(1)
	}
	return 100 * (mx - mn) / mn
}

// PercentChange returns 100·(b−a)/a.
func PercentChange(a, b float64) float64 {
	if a == 0 {
		return math.Inf(1)
	}
	return 100 * (b - a) / a
}
