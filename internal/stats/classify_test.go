package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestConfusionMetrics(t *testing.T) {
	c := Confusion{TP: 90, FP: 10, TN: 85, FN: 15}
	approx(t, "Accuracy", c.Accuracy(), 0.875, 1e-12)
	approx(t, "Precision", c.Precision(), 0.9, 1e-12)
	approx(t, "Recall", c.Recall(), 90.0/105.0, 1e-12)
	approx(t, "FPR", c.FalsePositiveRate(), 10.0/95.0, 1e-12)
	p, r := c.Precision(), c.Recall()
	approx(t, "F1", c.F1(), 2*p*r/(p+r), 1e-12)
	if c.Total() != 200 {
		t.Errorf("Total = %d", c.Total())
	}
}

func TestConfusionObserve(t *testing.T) {
	var c Confusion
	c.Observe(true, true)
	c.Observe(true, false)
	c.Observe(false, true)
	c.Observe(false, false)
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Errorf("Observe wiring wrong: %+v", c)
	}
}

func TestConfusionAdd(t *testing.T) {
	a := Confusion{TP: 1, FP: 2, TN: 3, FN: 4}
	b := Confusion{TP: 10, FP: 20, TN: 30, FN: 40}
	a.Add(b)
	if a.TP != 11 || a.FP != 22 || a.TN != 33 || a.FN != 44 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestConfusionEmptyNaN(t *testing.T) {
	var c Confusion
	if !math.IsNaN(c.Accuracy()) || !math.IsNaN(c.Precision()) ||
		!math.IsNaN(c.Recall()) || !math.IsNaN(c.F1()) || !math.IsNaN(c.FalsePositiveRate()) {
		t.Error("empty confusion metrics should be NaN")
	}
}

func TestConfusionString(t *testing.T) {
	c := Confusion{TP: 1, TN: 1}
	s := c.String()
	if !strings.Contains(s, "acc=1.000") || !strings.Contains(s, "n=2") {
		t.Errorf("String = %q", s)
	}
}

func TestKFoldPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	folds := KFold(103, 5, rng)
	if len(folds) != 5 {
		t.Fatalf("fold count = %d", len(folds))
	}
	seen := make(map[int]bool)
	for _, f := range folds {
		if len(f) < 20 || len(f) > 21 {
			t.Errorf("fold size %d should be 20 or 21", len(f))
		}
		for _, i := range f {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 103 {
		t.Errorf("covered %d indices, want 103", len(seen))
	}
}

func TestKFoldDeterministic(t *testing.T) {
	a := KFold(50, 5, rand.New(rand.NewSource(1)))
	b := KFold(50, 5, rand.New(rand.NewSource(1)))
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("non-deterministic folds")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("non-deterministic folds")
			}
		}
	}
}

func TestKFoldPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, k int }{{10, 1}, {3, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("KFold(%d,%d) should panic", tc.n, tc.k)
				}
			}()
			KFold(tc.n, tc.k, rng)
		}()
	}
}
