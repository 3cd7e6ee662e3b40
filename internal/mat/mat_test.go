package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseAndAccess(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 7)
	if m.At(0, 0) != 1 || m.At(1, 2) != 7 || m.At(0, 1) != 0 {
		t.Errorf("element access wrong: %+v", m)
	}
	r := m.Row(1)
	if len(r) != 3 || r[2] != 7 {
		t.Errorf("Row = %v", r)
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone should not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.transpose()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T dims = %dx%d", mt.Rows, mt.Cols)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Errorf("T values wrong: %+v", mt)
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVecDot(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := mulVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v", got)
	}
	if dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
}

func TestAddScaled(t *testing.T) {
	dst := []float64{1, 2, 3}
	addScaled(dst, 2, []float64{10, 20, 30})
	if dst[0] != 21 || dst[2] != 63 {
		t.Errorf("AddScaled = %v", dst)
	}
}

func TestApply(t *testing.T) {
	m := fromRows([][]float64{{1, -2}, {-3, 4}})
	m.apply(math.Abs)
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("Apply = %+v", m)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("NewDense bad dims", func() { NewDense(0, 3) })
	mustPanic("FromRows empty", func() { fromRows(nil) })
	mustPanic("FromRows ragged", func() { fromRows([][]float64{{1, 2}, {3}}) })
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	mustPanic("Mul mismatch", func() { mul(a, b) })
	mustPanic("MulVec mismatch", func() { mulVec(a, []float64{1}) })
	mustPanic("Dot mismatch", func() { dot([]float64{1}, []float64{1, 2}) })
	mustPanic("AddScaled mismatch", func() { addScaled([]float64{1}, 1, []float64{1, 2}) })
	mustPanic("Cholesky non-square", func() { Cholesky(a) })
}

func TestCholeskySolve(t *testing.T) {
	// SPD matrix.
	a := fromRows([][]float64{
		{4, 2, 0.6},
		{2, 5, 1.5},
		{0.6, 1.5, 3},
	})
	l, ok := Cholesky(a)
	if !ok {
		t.Fatal("Cholesky failed on SPD matrix")
	}
	// Verify L·Lᵀ == a.
	llt := mul(l, l.transpose())
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(llt.At(i, j)-a.At(i, j)) > 1e-10 {
				t.Errorf("LLt[%d][%d] = %v, want %v", i, j, llt.At(i, j), a.At(i, j))
			}
		}
	}
	// Solve a known system.
	xTrue := []float64{1, -2, 0.5}
	b := mulVec(a, xTrue)
	x := SolveCholesky(l, b)
	for i := range xTrue {
		if math.Abs(x[i]-xTrue[i]) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3 and -1
	if _, ok := Cholesky(a); ok {
		t.Error("Cholesky should fail on indefinite matrix")
	}
}

func TestCholeskySolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		n := 2 + rng.Intn(5)
		// Build SPD as GᵀG + n·I.
		g := NewDense(n, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		a := mul(g.transpose(), g)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := mulVec(a, xTrue)
		l, ok := Cholesky(a)
		if !ok {
			return false
		}
		x := SolveCholesky(l, b)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		a := NewDense(3, 4)
		b := NewDense(4, 2)
		c := NewDense(2, 5)
		for _, m := range []*Dense{a, b, c} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		left := mul(mul(a, b), c)
		right := mul(a, mul(b, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
