package solver

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// coupledSystem is a synthetic nonlinear system of n equations,
// r_i = x_i^3 + sum_j a_ij sin(x_j) - b_i, with a diagonally dominant
// coupling so Newton converges from a nearby guess.
func coupledSystem(n int, seed int64) Residual {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = 0.1 * (2*rng.Float64() - 1)
		}
		a[i][i] = 2 + rng.Float64()
		b[i] = 2*rng.Float64() - 1
	}
	return func(x, r []float64) error {
		for i := range r {
			s := x[i]*x[i]*x[i] - b[i]
			for j, aij := range a[i] {
				s += aij * math.Sin(x[j])
			}
			r[i] = s
		}
		return nil
	}
}

// TestJacobianConcurrentBitIdentical: the wavefront and the
// sequential loop build == Jacobians, and the wavefront leaves x as
// it found it.
func TestJacobianConcurrentBitIdentical(t *testing.T) {
	const n = 16
	f := coupledSystem(n, 1)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		x0 := append([]float64(nil), x...)
		r := make([]float64, n)
		if err := f(x, r); err != nil {
			t.Fatal(err)
		}
		seq, par := newMatrix(n), newMatrix(n)
		if err := jacobian(f, x, make([]float64, n), r, seq, 1e-7); err != nil {
			t.Fatal(err)
		}
		if err := newWavefront(n).jacobian(concurrent(f), x, r, par, 1e-7); err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			for j := range seq[i] {
				if seq[i][j] != par[i][j] {
					t.Errorf("trial %d: jac[%d][%d] = %v sequential, %v concurrent", trial, i, j, seq[i][j], par[i][j])
				}
			}
		}
		for i := range x {
			if x[i] != x0[i] {
				t.Errorf("trial %d: x[%d] changed from %v to %v", trial, i, x0[i], x[i])
			}
		}
	}
}

// concurrent is the plain concurrent wavefront over a residual.
func concurrent(f Residual) Wave {
	return Concurrent(func(_ int, x, r []float64) error { return f(x, r) })
}

func newMatrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// TestNewtonConcurrentBitIdentical: the concurrent Newton takes the
// same iterates as the sequential one, iteration by iteration.
func TestNewtonConcurrentBitIdentical(t *testing.T) {
	const n = 16
	f := coupledSystem(n, 3)
	solve := func(parallel bool, maxIter int) ([]float64, int, error) {
		x := make([]float64, n)
		for i := range x {
			x[i] = 0.5
		}
		opt := NewtonOptions{MaxIter: maxIter, Relax: 0.9}
		if parallel {
			opt.Wave = concurrent(f)
		}
		iters, err := Newton(f, x, opt)
		return x, iters, err
	}
	_, total, err := solve(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total < 3 {
		t.Fatalf("converged in %d iterations; the system is too easy to compare iterates", total)
	}
	for k := 1; k <= total; k++ {
		xs, is, es := solve(false, k)
		xp, ip, ep := solve(true, k)
		if is != ip || fmt.Sprint(es) != fmt.Sprint(ep) {
			t.Fatalf("after %d iterations: sequential (%d, %v) vs concurrent (%d, %v)", k, is, es, ip, ep)
		}
		for i := range xs {
			if xs[i] != xp[i] {
				t.Errorf("iterate %d x[%d]: %v sequential vs %v concurrent", k, i, xs[i], xp[i])
			}
		}
	}
}

// TestNewtonConcurrentLowestColumnError: when columns 3 and 7 fail,
// both paths report column 3 with the same message, and the concurrent
// path joins every column before returning — even column 7, which is
// still running when column 3 has already failed.
func TestNewtonConcurrentLowestColumnError(t *testing.T) {
	const n = 10
	for _, parallel := range []bool{false, true} {
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = 1
		}
		var inflight, finished atomic.Int32
		col3 := make(chan struct{})
		f := func(x, r []float64) error {
			inflight.Add(1)
			defer inflight.Add(-1)
			for i := range r {
				r[i] = x[i]*x[i] - 2
			}
			switch {
			case x[3] != x0[3]:
				close(col3)
				return fmt.Errorf("column three fails")
			case x[7] != x0[7]:
				// Fail only after column 3 has, and slowly enough that
				// an early return would leave this call running.
				<-col3
				time.Sleep(5 * time.Millisecond)
				finished.Add(1)
				return fmt.Errorf("column seven fails")
			}
			return nil
		}
		x := append([]float64(nil), x0...)
		var opt NewtonOptions
		if parallel {
			opt.Wave = concurrent(f)
		}
		iters, err := Newton(f, x, opt)
		if err == nil {
			t.Fatalf("parallel=%v: Newton succeeded despite failing columns", parallel)
		}
		const want = "solver: residual during Jacobian column 3: column three fails"
		if err.Error() != want || iters != 1 {
			t.Errorf("parallel=%v: (%d, %q), want (1, %q)", parallel, iters, err, want)
		}
		if got := inflight.Load(); got != 0 {
			t.Errorf("parallel=%v: %d residual calls still running after Newton returned", parallel, got)
		}
		if parallel && finished.Load() != 1 {
			t.Errorf("concurrent path returned before column 7 finished")
		}
		for i := range x {
			if x[i] != x0[i] {
				t.Errorf("parallel=%v: x[%d] = %v after a failed first iteration, want %v", parallel, i, x[i], x0[i])
			}
		}
	}
}
