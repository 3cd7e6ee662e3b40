package main

import (
	"math"
	"sort"
	"time"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// best summarizes a run's repeated measurements of one quantity by the
// good end of their range: the 10th percentile of the times (the 90th of
// the rates), which is the very best one when there are fewer than ten.
// Repetitions do identical work and the host's noise only ever slows one
// down, so the fast end is the steadiest estimate of the program's own
// speed, and a real regression moves it too; stepping in from the extreme
// keeps one lucky repetition from setting the number.
func best(v []float64, better string) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := len(s) / 10
	if better == "higher" {
		i = len(s) - 1 - i
	}
	return s[i]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// percentileLadder is what tailPercentile steps down through.
var percentileLadder = []float64{0.99, 0.95, 0.90, 0.50}

// tailPercentile returns the nearest-rank q-quantile of sorted when at least
// ten samples lie beyond it, else the next lower rung of the ladder that has
// (the median needs none). The second result is the quantile actually used.
func tailPercentile(sorted []float64, q float64) (float64, float64) {
	if len(sorted) == 0 {
		return 0, q
	}
	try := append([]float64{q}, percentileLadder...)
	for _, p := range try {
		if p > q {
			continue
		}
		idx := int(math.Ceil(p*float64(len(sorted)))) - 1
		idx = min(max(idx, 0), len(sorted)-1)
		if len(sorted)-1-idx >= 10 || p <= 0.50 {
			return sorted[idx], p
		}
	}
	return sorted[(len(sorted)-1)/2], 0.50
}

func sortedMs(lat []time.Duration) []float64 {
	out := make([]float64, len(lat))
	for i, d := range lat {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(v, n=4)
// gives (exclusive method). Fewer than two values have no spread.
func iqrShare(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quart := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}
