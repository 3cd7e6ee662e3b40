// Package bayesopt implements the Bayesian-optimization loop the paper uses
// for hyper-parameter tuning of the CMF predictor's neural-network
// architecture ("Bayesian Optimization ... is used to optimize the
// architecture of this neural network (number of neurons per layer)").
//
// A Gaussian-process surrogate with an RBF kernel models the objective over
// a finite candidate grid; candidates are picked by the expected-improvement
// acquisition function. The objective is minimized (e.g. validation loss).
package bayesopt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"mira/internal/mat"
)

// Objective evaluates a candidate point and returns its cost (lower is
// better), e.g. cross-validated validation loss of a network architecture.
type Objective func(x []float64) float64

// gpNoise is the observation-noise variance added to the kernel diagonal.
const gpNoise = 1e-6

// Config controls an optimization run.
type Config struct {
	// Candidates is the finite search grid; each entry is one point.
	Candidates [][]float64
	// InitSamples is how many random candidates to evaluate before the GP
	// guides the search (default 3).
	InitSamples int
	// Iterations is the number of GP-guided evaluations (default 10).
	Iterations int
	// LengthScale is the RBF kernel length scale (default 1).
	LengthScale float64
	// Seed drives the initial random sampling.
	Seed int64
}

// Result is the outcome of an optimization run.
type Result struct {
	// Best is the best candidate found.
	Best []float64
	// BestCost is the objective at Best.
	BestCost float64
	// Evaluated lists every evaluated point in order.
	Evaluated [][]float64
	// Costs are the observed objective values parallel to Evaluated.
	Costs []float64
}

// ErrNoCandidates is returned when the search grid is empty.
var ErrNoCandidates = errors.New("bayesopt: no candidates")

// Minimize runs the Bayesian-optimization loop and returns the best point
// found. The objective is called at most InitSamples+Iterations times; each
// candidate is evaluated at most once.
func Minimize(f Objective, cfg Config) (Result, error) {
	if len(cfg.Candidates) == 0 {
		return Result{}, ErrNoCandidates
	}
	dim := len(cfg.Candidates[0])
	for i, c := range cfg.Candidates {
		if len(c) != dim {
			return Result{}, fmt.Errorf("bayesopt: candidate %d has dim %d, want %d", i, len(c), dim)
		}
	}
	if cfg.InitSamples <= 0 {
		cfg.InitSamples = 3
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10
	}
	if cfg.LengthScale <= 0 {
		cfg.LengthScale = 1
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	remaining := make([]int, len(cfg.Candidates))
	for i := range remaining {
		remaining[i] = i
	}
	rng.Shuffle(len(remaining), func(i, j int) { remaining[i], remaining[j] = remaining[j], remaining[i] })

	var res Result
	res.BestCost = math.Inf(1)
	evaluate := func(ci int) {
		x := cfg.Candidates[ci]
		cost := f(x)
		res.Evaluated = append(res.Evaluated, x)
		res.Costs = append(res.Costs, cost)
		if cost < res.BestCost {
			res.BestCost = cost
			res.Best = x
		}
	}

	// Initial random evaluations.
	nInit := cfg.InitSamples
	if nInit > len(remaining) {
		nInit = len(remaining)
	}
	for i := 0; i < nInit; i++ {
		evaluate(remaining[0])
		remaining = remaining[1:]
	}

	// GP-guided loop.
	for it := 0; it < cfg.Iterations && len(remaining) > 0; it++ {
		gp, err := fitGP(res.Evaluated, res.Costs, cfg.LengthScale, gpNoise)
		if err != nil {
			// Ill-conditioned surrogate: fall back to a random candidate
			// rather than aborting the search.
			evaluate(remaining[0])
			remaining = remaining[1:]
			continue
		}
		bestIdx, bestEI := 0, math.Inf(-1)
		for pos, ci := range remaining {
			mu, sigma := gp.predict(cfg.Candidates[ci])
			ei := expectedImprovement(mu, sigma, res.BestCost)
			if ei > bestEI {
				bestEI = ei
				bestIdx = pos
			}
		}
		evaluate(remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return res, nil
}

// gp is a fitted Gaussian-process surrogate (zero mean, RBF kernel).
type gp struct {
	X     [][]float64
	alpha []float64
	l     *mat.Dense
	ls    float64
	meanY float64
}

func rbf(a, b []float64, ls float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * ls * ls))
}

func fitGP(X [][]float64, y []float64, ls, noise float64) (*gp, error) {
	n := len(X)
	// Center observations so the zero-mean prior is reasonable.
	var meanY float64
	for _, v := range y {
		meanY += v
	}
	meanY /= float64(n)

	k := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rbf(X[i], X[j], ls)
			if i == j {
				v += noise
			}
			k.Set(i, j, v)
		}
	}
	l, ok := mat.Cholesky(k)
	if !ok {
		return nil, errors.New("bayesopt: kernel matrix not positive definite")
	}
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - meanY
	}
	alpha := mat.SolveCholesky(l, centered)
	return &gp{X: X, alpha: alpha, l: l, ls: ls, meanY: meanY}, nil
}

// predict returns the posterior mean and standard deviation at x.
func (g *gp) predict(x []float64) (mu, sigma float64) {
	n := len(g.X)
	kstar := make([]float64, n)
	for i := range g.X {
		kstar[i] = rbf(x, g.X[i], g.ls)
	}
	mu = g.meanY
	for i := range kstar {
		mu += kstar[i] * g.alpha[i]
	}
	// Var = k(x,x) − k*ᵀ K⁻¹ k*.
	v := mat.SolveCholesky(g.l, kstar)
	variance := 1.0 // rbf(x, x) = 1
	for i := range kstar {
		variance -= kstar[i] * v[i]
	}
	if variance < 0 {
		variance = 0
	}
	return mu, math.Sqrt(variance)
}

// expectedImprovement is the EI acquisition for minimization.
func expectedImprovement(mu, sigma, best float64) float64 {
	if sigma < 1e-12 {
		if mu < best {
			return best - mu
		}
		return 0
	}
	z := (best - mu) / sigma
	return (best-mu)*normCDF(z) + sigma*normPDF(z)
}

func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// IntGrid builds a candidate grid from integer axis values, e.g. layer
// widths {4, 8, 12, 16} × {4, 8, 12, 16} × {2, 4, 6}. The cartesian product
// order is row-major over the axes.
func IntGrid(axes ...[]int) [][]float64 {
	if len(axes) == 0 {
		return nil
	}
	total := 1
	for _, a := range axes {
		total *= len(a)
	}
	if total == 0 {
		return nil
	}
	out := make([][]float64, 0, total)
	idx := make([]int, len(axes))
	for {
		point := make([]float64, len(axes))
		for d, i := range idx {
			point[d] = float64(axes[d][i])
		}
		out = append(out, point)
		// Increment the mixed-radix counter.
		d := len(axes) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(axes[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			break
		}
	}
	return out
}
