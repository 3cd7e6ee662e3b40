// Package report renders analysis results as terminal-friendly text:
// Unicode sparklines for time series, bars, and rack-grid heatmaps for the
// spatial figures. The cmd tools use it to print the paper's figures
// legibly without any plotting dependency.
package report

import (
	"fmt"
	"math"
	"strings"

	"mira/internal/topology"
)

// sparkLevels are the eighth-block characters used by Sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders a series as a one-line Unicode sparkline, scaling to
// the series' own min..max. NaNs render as spaces; an empty or constant
// series renders mid-level blocks.
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	out := make([]rune, 0, len(xs))
	for _, x := range xs {
		switch {
		case math.IsNaN(x):
			out = append(out, ' ')
		case hi == lo:
			out = append(out, sparkLevels[3])
		default:
			idx := int((x - lo) / (hi - lo) * float64(len(sparkLevels)-1))
			out = append(out, sparkLevels[idx])
		}
	}
	return string(out)
}

// heatLevels are the shading characters used by RackHeatmap, light to dark.
var heatLevels = []rune(" ░▒▓█")

// RackHeatmap renders a per-rack value field as the 3×16 machine-floor
// grid, one shaded cell per rack, scaled to the field's own range. vals is
// indexed by the dense rack index.
func RackHeatmap(vals []float64) string {
	if len(vals) != topology.NumRacks {
		return fmt.Sprintf("(heatmap requires %d values, got %d)", topology.NumRacks, len(vals))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	b.WriteString("     0 1 2 3 4 5 6 7 8 9 A B C D E F\n")
	for row := 0; row < topology.Rows; row++ {
		fmt.Fprintf(&b, "row%d ", row)
		for col := 0; col < topology.ColsPerRow; col++ {
			v := vals[topology.RackID{Row: row, Col: col}.Index()]
			var r rune
			switch {
			case math.IsNaN(v):
				r = '?'
			case hi == lo:
				r = heatLevels[2]
			default:
				r = heatLevels[int((v-lo)/(hi-lo)*float64(len(heatLevels)-1))]
			}
			b.WriteRune(r)
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "     scale %s=%.4g .. %s=%.4g\n", string(heatLevels[0]), lo, string(heatLevels[len(heatLevels)-1]), hi)
	return b.String()
}

// Bar renders a horizontal bar of width proportional to frac in [0, 1].
func Bar(frac float64, width int) string {
	if width <= 0 {
		return ""
	}
	if math.IsNaN(frac) || frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
