package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width-bin histogram over [Lo, Hi). Values outside the
// range are counted in the under/overflow counters rather than dropped, so
// totals remain meaningful.
type Histogram struct {
	Lo, Hi    float64
	Counts    []int
	Underflow int
	Overflow  int
	total     int
}

// newHistogram creates a histogram with n equal-width bins spanning [lo, hi).
// It panics if n <= 0 or hi <= lo, which indicate programmer error.
func newHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 {
		panic(fmt.Sprintf("stats: histogram bins must be positive, got %d", n))
	}
	if hi <= lo {
		panic(fmt.Sprintf("stats: histogram range [%g, %g) is empty", lo, hi))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case math.IsNaN(x):
		h.Underflow++ // treat NaN as unclassifiable
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // guard FP edge at x just below Hi
			i--
		}
		h.Counts[i]++
	}
}

// Total returns the number of observations recorded, including out-of-range.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// mode returns the center of the most populated bin; NaN if empty.
func (h *Histogram) mode() float64 {
	best, bestCount := -1, -1
	for i, c := range h.Counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if bestCount <= 0 {
		return math.NaN()
	}
	return h.BinCenter(best)
}
