package report

import (
	"math"
	"strings"
	"testing"

	"mira/internal/topology"
)

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if s != "▁▂▃▄▅▆▇█" {
		t.Errorf("ramp sparkline = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty input should render empty")
	}
	flat := Sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 || strings.ContainsRune(flat, '█') {
		t.Errorf("flat sparkline = %q", flat)
	}
	withNaN := Sparkline([]float64{0, math.NaN(), 1})
	if []rune(withNaN)[1] != ' ' {
		t.Errorf("NaN should render as space: %q", withNaN)
	}
}

func TestRackHeatmap(t *testing.T) {
	vals := make([]float64, topology.NumRacks)
	for i := range vals {
		vals[i] = float64(i)
	}
	out := RackHeatmap(vals)
	if !strings.Contains(out, "row0") || !strings.Contains(out, "row2") {
		t.Errorf("missing rows:\n%s", out)
	}
	if !strings.Contains(out, "scale") {
		t.Error("missing scale legend")
	}
	// The minimum (rack (0,0)) renders light; the maximum (rack (2,F)) dark.
	lines := strings.Split(out, "\n")
	row0 := []rune(lines[1])
	row2 := []rune(lines[3])
	if row0[5] == '█' {
		t.Error("minimum cell should be light")
	}
	if row2[len(row2)-2] != '█' {
		t.Errorf("maximum cell should be dark: %q", string(row2))
	}
	// Wrong length is reported, not panicked.
	if !strings.Contains(RackHeatmap([]float64{1, 2}), "requires") {
		t.Error("length mismatch should be reported")
	}
}

func TestRackHeatmapDegenerate(t *testing.T) {
	vals := make([]float64, topology.NumRacks)
	for i := range vals {
		vals[i] = 7 // constant
	}
	vals[3] = math.NaN()
	out := RackHeatmap(vals)
	if !strings.Contains(out, "?") {
		t.Error("NaN cell should render '?'")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 10); got != "#####....." {
		t.Errorf("Bar(0.5) = %q", got)
	}
	if got := Bar(0, 4); got != "...." {
		t.Errorf("Bar(0) = %q", got)
	}
	if got := Bar(1.5, 4); got != "####" {
		t.Errorf("Bar clamps high: %q", got)
	}
	if got := Bar(math.NaN(), 4); got != "...." {
		t.Errorf("Bar(NaN) = %q", got)
	}
	if Bar(0.5, 0) != "" {
		t.Error("zero width should be empty")
	}
}
