package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// apply is the scalar form of Activation.applyAll.
func apply(a Activation, x float64) float64 {
	v := []float64{x}
	a.applyAll(v)
	return v[0]
}

func TestActivationValues(t *testing.T) {
	if apply(ReLU, -1) != 0 || apply(ReLU, 3) != 3 {
		t.Error("ReLU wrong")
	}
	if s := apply(Sigmoid, 0); s != 0.5 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := apply(Sigmoid, 100); s < 0.999 {
		t.Errorf("Sigmoid(100) = %v", s)
	}
}

func TestActivationDerivatives(t *testing.T) {
	// Numeric check: derivFromOutput(σ(x)) ≈ dσ/dx.
	for _, act := range []Activation{Sigmoid, ReLU} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			h := 1e-6
			num := (apply(act, x+h) - apply(act, x-h)) / (2 * h)
			ana := act.derivFromOutput(apply(act, x))
			if math.Abs(num-ana) > 1e-4 {
				t.Errorf("%v'(%v): numeric %v vs analytic %v", act, x, num, ana)
			}
		}
	}
}

func TestActivationString(t *testing.T) {
	if ReLU.String() != "relu" || Sigmoid.String() != "sigmoid" {
		t.Error("Activation.String mismatch")
	}
	if SGD.String() != "sgd" || Adam.String() != "adam" {
		t.Error("Optimizer.String mismatch")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Inputs: 0}); err == nil {
		t.Error("zero inputs should error")
	}
	if _, err := New(Config{Inputs: 4, Hidden: []int{5, -1}}); err == nil {
		t.Error("negative hidden width should error")
	}
	n, err := New(Config{Inputs: 6, Hidden: []int{12, 12, 6}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Paper architecture: 6→12→12→6→1.
	want := 6*12 + 12 + 12*12 + 12 + 12*6 + 6 + 6*1 + 1
	got := 0
	for _, l := range n.layers {
		got += len(l.w) + len(l.b)
	}
	if got != want {
		t.Errorf("parameters = %d, want %d", got, want)
	}
	if n.inDim != 6 {
		t.Errorf("input dimension = %d", n.inDim)
	}
}

func TestForwardPanicsOnBadDim(t *testing.T) {
	n, _ := New(Config{Inputs: 3, Hidden: []int{4}, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("Predict with wrong dim should panic")
		}
	}()
	n.Predict([]float64{1, 2})
}

func TestOutputRangeSigmoid(t *testing.T) {
	n, _ := New(Config{Inputs: 4, Hidden: []int{8}, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		p := n.Predict(x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("Predict = %v out of [0,1]", p)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := New(Config{Inputs: 5, Hidden: []int{7}, Seed: 42})
	b, _ := New(Config{Inputs: 5, Hidden: []int{7}, Seed: 42})
	x := []float64{1, -1, 0.5, 2, -0.3}
	if a.Predict(x) != b.Predict(x) {
		t.Error("same seed should give identical networks")
	}
	c, _ := New(Config{Inputs: 5, Hidden: []int{7}, Seed: 43})
	if a.Predict(x) == c.Predict(x) {
		t.Error("different seeds should give different networks")
	}
}

func TestGradientNumericalCheck(t *testing.T) {
	// Compare backprop gradients to finite differences on a tiny net.
	n, _ := New(Config{Inputs: 3, Hidden: []int{4}, Seed: 7})
	x := []float64{0.5, -1.2, 0.8}
	y := 1.0
	for _, l := range n.layers {
		l.zeroGrad()
	}
	n.backprop(x, y)
	lossAt := func() float64 {
		p := n.Predict(x)
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		return -(y*math.Log(p) + (1-y)*math.Log(1-p))
	}
	const h = 1e-6
	for li, l := range n.layers {
		for wi := range l.w {
			orig := l.w[wi]
			l.w[wi] = orig + h
			up := lossAt()
			l.w[wi] = orig - h
			down := lossAt()
			l.w[wi] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-l.gw[wi]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d w[%d]: numeric %v vs backprop %v", li, wi, num, l.gw[wi])
			}
		}
		for bi := range l.b {
			orig := l.b[bi]
			l.b[bi] = orig + h
			up := lossAt()
			l.b[bi] = orig - h
			down := lossAt()
			l.b[bi] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-l.gb[bi]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d b[%d]: numeric %v vs backprop %v", li, bi, num, l.gb[bi])
			}
		}
	}
}

// xorData builds the classic non-linearly-separable XOR dataset with noise.
func xorData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		a := rng.Intn(2)
		b := rng.Intn(2)
		X[i] = []float64{float64(a) + 0.1*rng.NormFloat64(), float64(b) + 0.1*rng.NormFloat64()}
		if a != b {
			Y[i] = 1
		}
	}
	return X, Y
}

func TestFitLearnsXORWithSGD(t *testing.T) {
	X, Y := xorData(400, 1)
	n, _ := New(Config{Inputs: 2, Hidden: []int{8, 8}, Seed: 2})
	losses, err := n.Fit(X, Y, TrainConfig{Epochs: 200, LearningRate: 0.05, Optimizer: SGD, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	correct := 0
	for i, x := range X {
		if n.PredictClass(x, 0.5) == (Y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Errorf("XOR train accuracy = %v, want >= 0.95", acc)
	}
}

func TestFitLearnsXORWithAdam(t *testing.T) {
	X, Y := xorData(400, 5)
	n, _ := New(Config{Inputs: 2, Hidden: []int{8, 8}, Seed: 6})
	_, err := n.Fit(X, Y, TrainConfig{Epochs: 100, Optimizer: Adam, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range X {
		if n.PredictClass(x, 0.5) == (Y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Errorf("Adam XOR accuracy = %v, want >= 0.95", acc)
	}
}

func TestFitValidation(t *testing.T) {
	n, _ := New(Config{Inputs: 2, Hidden: []int{3}, Seed: 1})
	if _, err := n.Fit(nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := n.Fit([][]float64{{1, 2}}, []float64{1, 0}, TrainConfig{}); err == nil {
		t.Error("mismatched X/Y should error")
	}
	if _, err := n.Fit([][]float64{{1}}, []float64{1}, TrainConfig{}); err == nil {
		t.Error("wrong feature dim should error")
	}
	// backprop seeds one sigmoid output's gradient; a wider output layer
	// would train only its first unit.
	multi, _ := New(Config{Inputs: 2, Hidden: []int{3}, Outputs: 2, Seed: 1})
	if _, err := multi.Fit([][]float64{{1, 2}}, []float64{1}, TrainConfig{}); !errors.Is(err, ErrBadTrainingSet) {
		t.Errorf("Fit with 2 outputs: err = %v, want ErrBadTrainingSet", err)
	}
}

func TestLossDecreasesGeneralization(t *testing.T) {
	// Train/test split on a linearly separable problem: test loss should be low.
	rng := rand.New(rand.NewSource(8))
	n := 600
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x1, x2 := rng.NormFloat64(), rng.NormFloat64()
		X[i] = []float64{x1, x2}
		if x1+x2 > 0 {
			Y[i] = 1
		}
	}
	net, _ := New(Config{Inputs: 2, Hidden: []int{6}, Seed: 9})
	_, err := net.Fit(X[:400], Y[:400], TrainConfig{Epochs: 60, Optimizer: Adam, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Mean binary cross-entropy on the held-out third.
	var loss float64
	for i := 400; i < n; i++ {
		p := math.Min(math.Max(net.Predict(X[i]), 1e-12), 1-1e-12)
		loss += -(Y[i]*math.Log(p) + (1-Y[i])*math.Log(1-p))
	}
	if l := loss / float64(n-400); l > 0.25 {
		t.Errorf("test loss = %v, want < 0.25", l)
	}
}

func TestFitDeterministic(t *testing.T) {
	X, Y := xorData(100, 11)
	run := func() float64 {
		n, _ := New(Config{Inputs: 2, Hidden: []int{5}, Seed: 12})
		_, err := n.Fit(X, Y, TrainConfig{Epochs: 10, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return n.Predict(X[0])
	}
	if run() != run() {
		t.Error("training should be deterministic under fixed seeds")
	}
}

// TestFitGolden pins outputs recorded before Predict and training shared one
// forward kernel: the kernel must keep the summation order, so every loss and
// probability is bit-identical for both optimizers. The constants were
// re-recorded without weight decay when the L2 option was removed, on the
// code that still had it.
func TestFitGolden(t *testing.T) {
	X, Y := xorData(200, 21)
	for _, tc := range []struct {
		opt          Optimizer
		loss, p0, p1 float64
	}{
		{SGD, 0x1.bafd836f39bap-07, 0x1.f7e542ba5d0c1p-01, 0x1.f73df41e1c05fp-09},
		{Adam, 0x1.b4b466e4070ccp-03, 0x1.60f0588a5f56p-01, 0x1.d7688fd8915a5p-05},
	} {
		n, _ := New(Config{Inputs: 2, Hidden: []int{12, 12, 6}, Seed: 22})
		losses, err := n.Fit(X, Y, TrainConfig{Epochs: 30, Optimizer: tc.opt, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		if got := losses[len(losses)-1]; got != tc.loss {
			t.Errorf("%v: last epoch loss %x, want %x", tc.opt, got, tc.loss)
		}
		if got := n.Predict(X[0]); got != tc.p0 {
			t.Errorf("%v: Predict(X[0]) = %x, want %x", tc.opt, got, tc.p0)
		}
		if got := n.Predict(X[1]); got != tc.p1 {
			t.Errorf("%v: Predict(X[1]) = %x, want %x", tc.opt, got, tc.p1)
		}
	}
}

func TestPredictAllocatesNothing(t *testing.T) {
	n, _ := New(Config{Inputs: 6, Hidden: []int{12, 12, 6}, Seed: 1})
	x := []float64{0.01, -0.02, 0.005, 0.03, -0.001, 0.002}
	if a := testing.AllocsPerRun(100, func() { n.Predict(x) }); a != 0 {
		t.Errorf("Predict allocates %v times per call, want 0", a)
	}
}

func TestPredictWideLayerMatchesTraining(t *testing.T) {
	// A layer wider than the stack scratch takes the heap fallback; both
	// paths run the kernel training uses and must agree with it exactly.
	for _, width := range []int{predictStackWidth, predictStackWidth + 1} {
		n, _ := New(Config{Inputs: 3, Hidden: []int{width, 5}, Seed: 4})
		x := []float64{0.3, -1.1, 2.0}
		if got, want := n.Predict(x), n.trainForward(x); got != want {
			t.Errorf("width %d: Predict %v, training forward %v", width, got, want)
		}
	}
}
