package stats

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := newHistogram(0, 10, 5)
	for _, x := range []float64{0, 1.9, 2, 5, 9.999} {
		h.Add(x)
	}
	h.Add(-1)         // underflow
	h.Add(10)         // overflow (Hi exclusive)
	h.Add(math.NaN()) // counted as underflow
	if h.Total() != 8 {
		t.Errorf("Total = %d, want 8", h.Total())
	}
	if h.Underflow != 2 || h.Overflow != 1 {
		t.Errorf("under/over = %d/%d, want 2/1", h.Underflow, h.Overflow)
	}
	wantCounts := []int{2, 1, 1, 0, 1}
	for i, c := range wantCounts {
		if h.Counts[i] != c {
			t.Errorf("Counts[%d] = %d, want %d", i, h.Counts[i], c)
		}
	}
}

func TestHistogramBinCenterMode(t *testing.T) {
	h := newHistogram(0, 10, 5)
	if c := h.BinCenter(0); c != 1 {
		t.Errorf("BinCenter(0) = %v, want 1", c)
	}
	if c := h.BinCenter(4); c != 9 {
		t.Errorf("BinCenter(4) = %v, want 9", c)
	}
	if !math.IsNaN(h.mode()) {
		t.Error("empty histogram Mode should be NaN")
	}
	h.Add(6.5)
	h.Add(6.9)
	h.Add(1)
	if m := h.mode(); m != 7 {
		t.Errorf("Mode = %v, want 7", m)
	}
}

func TestHistogramPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zero bins", func() { newHistogram(0, 1, 0) })
	mustPanic("empty range", func() { newHistogram(5, 5, 3) })
}
