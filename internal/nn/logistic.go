package nn

import (
	"math"
	"math/rand"
)

// Logistic is a logistic-regression binary classifier, used as a simpler
// baseline against the paper's neural network.
type Logistic struct {
	W []float64
	B float64
}

// NewLogistic creates an untrained model for d features.
func NewLogistic(d int) *Logistic { return &Logistic{W: make([]float64, d)} }

// Predict returns P(y=1 | x).
func (m *Logistic) Predict(x []float64) float64 {
	s := m.B
	for i, v := range x {
		s += m.W[i] * v
	}
	return 1 / (1 + math.Exp(-s))
}

// PredictClass thresholds Predict.
func (m *Logistic) PredictClass(x []float64, threshold float64) bool {
	return m.Predict(x) >= threshold
}

// Fit trains by mini-batch gradient descent on binary cross-entropy and
// returns the mean loss per epoch.
func (m *Logistic) Fit(X [][]float64, Y []float64, cfg TrainConfig) ([]float64, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return nil, ErrBadTrainingSet
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	d := len(m.W)
	gw := make([]float64, d)
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for j := range gw {
				gw[j] = 0
			}
			gb := 0.0
			for _, i := range idx[start:end] {
				p := m.Predict(X[i])
				pc := math.Min(math.Max(p, 1e-12), 1-1e-12)
				epochLoss += -(Y[i]*math.Log(pc) + (1-Y[i])*math.Log(1-pc))
				diff := p - Y[i]
				for j, v := range X[i] {
					gw[j] += diff * v
				}
				gb += diff
			}
			inv := cfg.LearningRate / float64(end-start)
			for j := range m.W {
				m.W[j] -= inv * gw[j]
			}
			m.B -= inv * gb
		}
		losses = append(losses, epochLoss/float64(len(idx)))
	}
	return losses, nil
}
