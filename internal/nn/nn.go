// Package nn implements the feed-forward neural network used by the CMF
// predictor: fully-connected layers, ReLU and sigmoid activations, binary
// cross-entropy loss, and mini-batch SGD (with momentum) and Adam
// optimizers. The paper's predictor is a three-hidden-layer network
// (12, 12, 6 neurons) with ReLU activations and a sigmoid output, trained
// for 50 epochs.
//
// Everything is deterministic given the seed, so experiments and tests are
// reproducible.
//
// Concurrency: Fit mutates the network and must not overlap any other call
// on it. Once training is done, Predict and PredictClass only read the
// weights, so any number of goroutines may call them on one network at once.
// Training and inference run the same per-layer forward kernel; training
// keeps each layer's output in buffers the layer owns, inference keeps it on
// the caller's stack.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation identifies a layer activation function.
type Activation int

const (
	// ReLU is max(0, x), the hidden-layer activation.
	ReLU Activation = iota
	// Sigmoid is 1/(1+e^-x), the output activation for binary
	// classification.
	Sigmoid
)

func (a Activation) String() string {
	if a == ReLU {
		return "relu"
	}
	return "sigmoid"
}

// applyAll replaces each pre-activation in v by its activation. The switch
// runs once per layer, not once per unit.
func (a Activation) applyAll(v []float64) {
	switch a {
	case ReLU:
		for i, x := range v {
			if x < 0 {
				v[i] = 0
			}
		}
	case Sigmoid:
		for i, x := range v {
			v[i] = 1 / (1 + math.Exp(-x))
		}
	}
}

// derivFromOutput returns dσ/dx given the activated output y = σ(x).
func (a Activation) derivFromOutput(y float64) float64 {
	if a == Sigmoid {
		return y * (1 - y)
	}
	if y > 0 {
		return 1
	}
	return 0
}

// layer is one fully-connected layer: out = act(W·in + b).
type layer struct {
	in, out int
	act     Activation
	w       []float64 // out × in, row-major
	b       []float64 // out

	// Training buffers: the last training forward's input (not owned) and
	// output, and backward's input gradient. Inference never touches them.
	lastIn  []float64
	lastOut []float64
	dIn     []float64

	// Gradient accumulators.
	gw []float64
	gb []float64

	// Optimizer state.
	mw, vw []float64
	mb, vb []float64
}

func newLayer(in, out int, act Activation, rng *rand.Rand) *layer {
	l := &layer{
		in: in, out: out, act: act,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
		mw: make([]float64, in*out),
		vw: make([]float64, in*out),
		mb: make([]float64, out),
		vb: make([]float64, out),

		lastOut: make([]float64, out),
		dIn:     make([]float64, in),
	}
	// He initialization, appropriate for ReLU layers.
	scale := math.Sqrt(2.0 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	return l
}

// forward is the one forward kernel, shared by training and inference: it
// writes act(W·x + b) into out (len l.out) and reads only the weights, so it
// is safe to run concurrently into distinct out buffers.
func (l *layer) forward(x, out []float64) {
	for o := range out {
		s := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, v := range x {
			s += row[i] * v
		}
		out[o] = s
	}
	l.act.applyAll(out)
}

// backward consumes dL/dout and returns dL/din (the layer's dIn buffer),
// accumulating weight grads.
func (l *layer) backward(dOut []float64) []float64 {
	dIn := l.dIn
	for i := range dIn {
		dIn[i] = 0
	}
	for o := 0; o < l.out; o++ {
		dz := dOut[o] * l.act.derivFromOutput(l.lastOut[o])
		l.gb[o] += dz
		row := l.w[o*l.in : (o+1)*l.in]
		grow := l.gw[o*l.in : (o+1)*l.in]
		for i := range row {
			grow[i] += dz * l.lastIn[i]
			dIn[i] += dz * row[i]
		}
	}
	return dIn
}

func (l *layer) zeroGrad() {
	for i := range l.gw {
		l.gw[i] = 0
	}
	for i := range l.gb {
		l.gb[i] = 0
	}
}

// Network is a feed-forward neural network for binary classification or
// regression.
type Network struct {
	layers   []*layer
	inDim    int
	maxWidth int // widest layer output, sizing Predict's scratch
}

// Config describes a network architecture.
type Config struct {
	// Inputs is the input feature dimension.
	Inputs int
	// Hidden lists the widths of the hidden layers (e.g. {12, 12, 6}).
	Hidden []int
	// Outputs is the output dimension (default 1).
	Outputs int
	// Seed makes weight initialization deterministic.
	Seed int64
}

// New builds a network from the configuration. It returns an error for a
// non-positive input dimension or hidden width.
func New(cfg Config) (*Network, error) {
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("nn: invalid input dimension %d", cfg.Inputs)
	}
	if cfg.Outputs <= 0 {
		cfg.Outputs = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{inDim: cfg.Inputs}
	prev := cfg.Inputs
	for _, h := range cfg.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: invalid hidden width %d", h)
		}
		n.layers = append(n.layers, newLayer(prev, h, ReLU, rng))
		prev = h
	}
	n.layers = append(n.layers, newLayer(prev, cfg.Outputs, Sigmoid, rng))
	for _, l := range n.layers {
		n.maxWidth = max(n.maxWidth, l.out)
	}
	return n, nil
}

// predictStackWidth bounds the layer width Predict scores on its own stack;
// a network with a wider layer falls back to heap scratch.
const predictStackWidth = 32

// Predict returns the scalar output for one input (first output unit). It
// reads only the weights and keeps activations in scratch on its own stack,
// so it allocates nothing and is safe for concurrent use once training is
// done; it must not overlap a Fit on the same network. It panics if the
// input length does not match the network's input dimension (programmer
// error).
func (n *Network) Predict(x []float64) float64 {
	if len(x) != n.inDim {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), n.inDim))
	}
	var scratch [2][predictStackWidth]float64
	bufs := [2][]float64{scratch[0][:], scratch[1][:]}
	if n.maxWidth > predictStackWidth {
		bufs = [2][]float64{make([]float64, n.maxWidth), make([]float64, n.maxWidth)}
	}
	for i, l := range n.layers {
		out := bufs[i%2][:l.out]
		l.forward(x, out)
		x = out
	}
	return x[0]
}

// trainForward runs the forward kernel into each layer's own buffers and
// keeps every layer's input for backward. It returns the first output.
func (n *Network) trainForward(x []float64) float64 {
	for _, l := range n.layers {
		l.lastIn = x
		l.forward(x, l.lastOut)
		x = l.lastOut
	}
	return x[0]
}

// PredictClass returns the thresholded binary decision for one input.
func (n *Network) PredictClass(x []float64, threshold float64) bool {
	return n.Predict(x) >= threshold
}

// backprop accumulates gradients of the binary cross-entropy loss for one
// (x, y) example and returns the example loss. Assumes the output layer is a
// single sigmoid unit, so dL/dz simplifies to (p − y); we feed backward
// dL/dout = (p−y)/σ'(z) to reuse the generic layer backward.
func (n *Network) backprop(x []float64, y float64) float64 {
	p := n.trainForward(x)
	// Clip for numerical stability of the loss (gradient uses raw p).
	pc := math.Min(math.Max(p, 1e-12), 1-1e-12)
	loss := -(y*math.Log(pc) + (1-y)*math.Log(1-pc))

	out := n.layers[len(n.layers)-1]
	d := out.act.derivFromOutput(p)
	if d < 1e-12 {
		d = 1e-12
	}
	dOut := [1]float64{(p - y) / d}
	grad := dOut[:]
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].backward(grad)
	}
	return loss
}

// Optimizer identifies a gradient-descent variant.
type Optimizer int

const (
	// SGD is stochastic gradient descent with momentum 0.9.
	SGD Optimizer = iota
	// Adam is the Adam optimizer with the standard β₁=0.9, β₂=0.999.
	Adam
)

func (o Optimizer) String() string {
	if o == Adam {
		return "adam"
	}
	return "sgd"
}

// TrainConfig controls Fit.
type TrainConfig struct {
	// Epochs is the number of passes over the training data (paper: 50).
	Epochs int
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
	// LearningRate (default 0.01 for SGD, 0.001 for Adam).
	LearningRate float64
	// Optimizer selects SGD or Adam.
	Optimizer Optimizer
	// Seed drives shuffling.
	Seed int64
}

// ErrBadTrainingSet is returned when X and Y disagree or are empty, or when
// the network is not the single-output classifier Fit trains.
var ErrBadTrainingSet = errors.New("nn: bad training set")

// Fit trains the network on features X and binary labels Y, minimizing
// binary cross-entropy. It returns the mean training loss per epoch. The
// loss gradient assumes one sigmoid output unit, so a network built with
// Outputs != 1 is rejected rather than trained on its first output only.
func (n *Network) Fit(X [][]float64, Y []float64, cfg TrainConfig) ([]float64, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return nil, ErrBadTrainingSet
	}
	if outs := n.layers[len(n.layers)-1].out; outs != 1 {
		return nil, fmt.Errorf("nn: %d outputs, Fit trains exactly one: %w", outs, ErrBadTrainingSet)
	}
	for _, x := range X {
		if len(x) != n.inDim {
			return nil, fmt.Errorf("nn: feature dim %d, want %d: %w", len(x), n.inDim, ErrBadTrainingSet)
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LearningRate <= 0 {
		if cfg.Optimizer == Adam {
			cfg.LearningRate = 0.001
		} else {
			cfg.LearningRate = 0.01
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, l := range n.layers {
				l.zeroGrad()
			}
			for _, i := range idx[start:end] {
				epochLoss += n.backprop(X[i], Y[i])
			}
			step++
			n.applyGradients(cfg, end-start, step)
		}
		losses = append(losses, epochLoss/float64(len(idx)))
	}
	return losses, nil
}

func (n *Network) applyGradients(cfg TrainConfig, batch int, step int) {
	lr := cfg.LearningRate
	inv := 1.0 / float64(batch)
	switch cfg.Optimizer {
	case Adam:
		const (
			b1  = 0.9
			b2  = 0.999
			eps = 1e-8
		)
		bc1 := 1 - math.Pow(b1, float64(step))
		bc2 := 1 - math.Pow(b2, float64(step))
		for _, l := range n.layers {
			for i := range l.w {
				g := l.gw[i] * inv
				l.mw[i] = b1*l.mw[i] + (1-b1)*g
				l.vw[i] = b2*l.vw[i] + (1-b2)*g*g
				l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + eps)
			}
			for i := range l.b {
				g := l.gb[i] * inv
				l.mb[i] = b1*l.mb[i] + (1-b1)*g
				l.vb[i] = b2*l.vb[i] + (1-b2)*g*g
				l.b[i] -= lr * (l.mb[i] / bc1) / (math.Sqrt(l.vb[i]/bc2) + eps)
			}
		}
	default: // SGD with momentum, reusing mw/mb as velocity.
		const momentum = 0.9
		for _, l := range n.layers {
			for i := range l.w {
				g := l.gw[i] * inv
				l.mw[i] = momentum*l.mw[i] - lr*g
				l.w[i] += l.mw[i]
			}
			for i := range l.b {
				l.mb[i] = momentum*l.mb[i] - lr*l.gb[i]*inv
				l.b[i] += l.mb[i]
			}
		}
	}
}
