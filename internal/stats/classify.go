package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Confusion is a binary-classification confusion matrix. The positive class
// is "a CMF will occur within the horizon" in the paper's predictor.
type Confusion struct {
	TP, FP, TN, FN int
}

// Observe records one prediction/label pair.
func (c *Confusion) Observe(predictedPositive, actuallyPositive bool) {
	switch {
	case predictedPositive && actuallyPositive:
		c.TP++
	case predictedPositive && !actuallyPositive:
		c.FP++
	case !predictedPositive && actuallyPositive:
		c.FN++
	default:
		c.TN++
	}
}

// Add accumulates another confusion matrix into c (used to merge the
// per-fold matrices of cross-validation).
func (c *Confusion) Add(o Confusion) {
	c.TP += o.TP
	c.FP += o.FP
	c.TN += o.TN
	c.FN += o.FN
}

// Total returns the number of observations.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy is the ratio of correct predictions to total predictions.
func (c Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return math.NaN()
	}
	return float64(c.TP+c.TN) / float64(n)
}

// Precision is TP / (TP + FP).
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN).
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return math.NaN()
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if math.IsNaN(p) || math.IsNaN(r) || p+r == 0 {
		return math.NaN()
	}
	return 2 * p * r / (p + r)
}

// FalsePositiveRate is FP / (FP + TN), the metric the paper highlights for
// proactive-mitigation cost (6% at six hours, 1.2% at 30 minutes).
func (c Confusion) FalsePositiveRate() float64 {
	if c.FP+c.TN == 0 {
		return math.NaN()
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

func (c Confusion) String() string {
	return fmt.Sprintf("acc=%.3f prec=%.3f rec=%.3f f1=%.3f fpr=%.3f (n=%d)",
		c.Accuracy(), c.Precision(), c.Recall(), c.F1(), c.FalsePositiveRate(), c.Total())
}

// KFold produces k disjoint folds of the indices [0, n) after a seeded
// shuffle, for the paper's 5-fold cross-validation. Folds differ in size by
// at most one element. It panics if k <= 1 or n < k (programmer error: a
// fold would be empty).
func KFold(n, k int, rng *rand.Rand) [][]int {
	if k <= 1 {
		panic(fmt.Sprintf("stats: KFold needs k > 1, got %d", k))
	}
	if n < k {
		panic(fmt.Sprintf("stats: KFold needs n >= k, got n=%d k=%d", n, k))
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	folds := make([][]int, k)
	for i, v := range idx {
		folds[i%k] = append(folds[i%k], v)
	}
	return folds
}
