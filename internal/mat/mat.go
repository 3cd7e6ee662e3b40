// Package mat provides the small dense-matrix kernels of the Gaussian-process
// surrogate in internal/bayesopt: element access and a Cholesky-based
// linear solver. The unexported products, transpose and element-wise
// helpers are exercised only by this package's tests.
//
// Matrices are row-major. The package favors clarity over BLAS-style
// performance; problem sizes here are tiny (tens of Bayesian-optimization
// observations).
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense creates a zeroed r×c matrix. It panics on non-positive
// dimensions.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// fromRows builds a matrix from row slices, which must be non-empty and of
// equal length.
func fromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("mat: fromRows needs at least one non-empty row")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged rows (%d vs %d)", len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// transpose returns the transpose as a new matrix.
func (m *Dense) transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// mul returns the matrix product a·b. It panics on dimension mismatch.
func mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// mulVec returns the matrix-vector product a·x. It panics on dimension
// mismatch.
func mulVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("mat: mulVec dimension mismatch %dx%d · %d", a.Rows, a.Cols, len(x)))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// dot returns the inner product of x and y. It panics on length mismatch.
func dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(x), len(y)))
	}
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// addScaled computes dst += alpha·x in place. It panics on length mismatch.
func addScaled(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: addScaled length mismatch %d vs %d", len(dst), len(x)))
	}
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// apply replaces every element of m with f(element) in place and returns m.
func (m *Dense) apply(f func(float64) float64) *Dense {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// Cholesky computes the lower-triangular factor L with a·aᵀ = L·Lᵀ for a
// symmetric positive-definite matrix. It returns false when the matrix is
// not positive definite.
func Cholesky(a *Dense) (*Dense, bool) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols))
	}
	n := a.Rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, true
}

// SolveCholesky solves a·x = b given the Cholesky factor L of a, via
// forward then backward substitution.
func SolveCholesky(l *Dense, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveCholesky length mismatch %d vs %d", len(b), n))
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}
