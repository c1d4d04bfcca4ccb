package solver

import (
	"fmt"
	"math"
	"sync"
)

// Residual evaluates the residual vector r(x) of a nonlinear system;
// len(r) == len(x).
type Residual func(x, r []float64) error

// NewtonOptions tunes the Newton-Raphson solve.
type NewtonOptions struct {
	// Tol is the convergence tolerance on the max-norm of the scaled
	// residual. Default 1e-10.
	Tol float64
	// MaxIter bounds the iteration count. Default 50.
	MaxIter int
	// FDRel is the relative finite-difference perturbation used to
	// build the Jacobian. Default 1e-7.
	FDRel float64
	// Relax under-relaxes the update (1 = full Newton). Default 1.
	Relax float64
	// MaxStep caps the relative change of any variable per iteration
	// (0 disables). Keeps early iterations from flying off the
	// performance maps.
	MaxStep float64
	// Wave, when non-nil, evaluates each iteration's Jacobian columns
	// as one wavefront instead of the sequential column loop: column j
	// gets its own perturbed copy of x. The Jacobian arithmetic and
	// column order are unchanged, so the iterates are bit-identical to
	// the loop's. Concurrent(f) is the plain implementation.
	Wave Wave
}

// Wave evaluates one Jacobian wavefront: for every column j it sets
// rs[j] to the residual at xs[j] and errs[j] to that evaluation's
// error. The columns are independent, so a Wave may evaluate them in
// any order or all at once, but every evaluation has finished when it
// returns.
type Wave func(xs, rs [][]float64, errs []error)

// Concurrent returns the Wave that evaluates column j as f(j, xs[j],
// rs[j]), each column on its own goroutine, and joins them all. f
// must be safe for concurrent use.
func Concurrent(f func(j int, x, r []float64) error) Wave {
	return func(xs, rs [][]float64, errs []error) {
		var wg sync.WaitGroup
		for j := range xs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[j] = f(j, xs[j], rs[j])
			}()
		}
		wg.Wait()
	}
}

func (o *NewtonOptions) defaults() {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 50
	}
	if o.FDRel == 0 {
		o.FDRel = 1e-7
	}
	if o.Relax == 0 {
		o.Relax = 1
	}
}

// Newton solves r(x) = 0 by damped Newton-Raphson with a forward
// finite-difference Jacobian, updating x in place. It returns the
// number of iterations used. Convergence is declared when the max-norm
// of the residual (scaled by the initial residual, when nonzero) falls
// below Tol.
func Newton(f Residual, x []float64, opt NewtonOptions) (int, error) {
	opt.defaults()
	n := len(x)
	if n == 0 {
		return 0, fmt.Errorf("solver: empty system")
	}
	r := make([]float64, n)
	rp := make([]float64, n)
	jac := make([][]float64, n)
	for i := range jac {
		jac[i] = make([]float64, n)
	}
	step := make([]float64, n)

	if err := f(x, r); err != nil {
		return 0, fmt.Errorf("solver: initial residual: %w", err)
	}
	scale := norm(r)
	if scale == 0 {
		return 0, nil
	}

	var wave *wavefront
	if opt.Wave != nil {
		wave = newWavefront(n)
	}
	for iter := 1; iter <= opt.MaxIter; iter++ {
		// Finite-difference Jacobian, one column per variable.
		var err error
		if wave != nil {
			err = wave.jacobian(opt.Wave, x, r, jac, opt.FDRel)
		} else {
			err = jacobian(f, x, rp, r, jac, opt.FDRel)
		}
		if err != nil {
			return iter, err
		}
		// Solve J step = -r.
		for i := range step {
			step[i] = -r[i]
		}
		if err := SolveLinear(jac, step); err != nil {
			return iter, fmt.Errorf("solver: Newton iteration %d: %w", iter, err)
		}
		for i := range x {
			dx := opt.Relax * step[i]
			if opt.MaxStep > 0 {
				lim := opt.MaxStep * math.Max(math.Abs(x[i]), 1e-6)
				if dx > lim {
					dx = lim
				} else if dx < -lim {
					dx = -lim
				}
			}
			x[i] += dx
		}
		if err := f(x, r); err != nil {
			return iter, fmt.Errorf("solver: residual after iteration %d: %w", iter, err)
		}
		if norm(r)/scale < opt.Tol || norm(r) < opt.Tol {
			return iter, nil
		}
	}
	return opt.MaxIter, fmt.Errorf("solver: Newton-Raphson did not converge in %d iterations (residual %g)",
		opt.MaxIter, norm(r))
}

// fdStep is the forward-difference perturbation of a variable at v.
func fdStep(v, rel float64) float64 {
	return rel * math.Max(math.Abs(v), 1e-8)
}

// fill writes Jacobian column j from rp, the residual at x with
// entry j raised by h, and r, the residual at x.
func fill(rp, r []float64, jac [][]float64, j int, h float64) {
	inv := 1 / h
	for i := range rp {
		jac[i][j] = (rp[i] - r[i]) * inv
	}
}

// columnError is the failure of Jacobian column j's residual.
func columnError(j int, err error) error {
	return fmt.Errorf("solver: residual during Jacobian column %d: %w", j, err)
}

// jacobian evaluates the columns one after another, perturbing x in
// place and restoring it; rp is scratch for each column's residual.
func jacobian(f Residual, x, rp, r []float64, jac [][]float64, rel float64) error {
	for j := range x {
		h := fdStep(x[j], rel)
		saved := x[j]
		x[j] = saved + h
		err := f(x, rp)
		x[j] = saved
		if err != nil {
			return columnError(j, err)
		}
		fill(rp, r, jac, j, h)
	}
	return nil
}

// wavefront holds the per-column buffers of a wavefront Jacobian,
// allocated once per solve: each column's perturbed copy of x, its
// residual, and its error.
type wavefront struct {
	xs, rps [][]float64
	errs    []error
}

func newWavefront(n int) *wavefront {
	w := &wavefront{xs: make([][]float64, n), rps: make([][]float64, n), errs: make([]error, n)}
	buf := make([]float64, 2*n*n)
	for j := 0; j < n; j++ {
		w.xs[j], buf = buf[:n:n], buf[n:]
		w.rps[j], buf = buf[:n:n], buf[n:]
	}
	return w
}

// jacobian evaluates every column through one call of wave, which
// joins them all, and reports the lowest-index failure with the
// sequential loop's message.
func (w *wavefront) jacobian(wave Wave, x, r []float64, jac [][]float64, rel float64) error {
	for j := range w.xs {
		copy(w.xs[j], x)
		w.xs[j][j] = x[j] + fdStep(x[j], rel)
		w.errs[j] = nil
	}
	wave(w.xs, w.rps, w.errs)
	for j, err := range w.errs {
		if err != nil {
			return columnError(j, err)
		}
	}
	for j := range w.xs {
		fill(w.rps[j], r, jac, j, fdStep(x[j], rel))
	}
	return nil
}

func norm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
