package engine

import (
	"math"
	"sync"
	"testing"
	"time"
)

// testStates is a spread of states: the design point and
// perturbations of every state entry in both directions.
func testStates(e *Engine) [][]float64 {
	states := [][]float64{append([]float64(nil), e.DesignState...)}
	for i := 0; i < NumStates; i++ {
		for _, f := range []float64{0.97, 1.04} {
			x := append([]float64(nil), e.DesignState...)
			x[i] *= f
			states = append(states, x)
		}
	}
	return states
}

// evalResult is everything one pass reports, comparable with ==.
type evalResult struct {
	out Outputs
	dx  [NumStates]float64
	err string
}

func evalAt(e *Engine, x []float64) evalResult {
	var r evalResult
	out, err := e.Eval(0, append([]float64(nil), x...), r.dx[:])
	r.out = out
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// TestEvalReentrant: 16 goroutines evaluate one Engine at once, each
// walking the test states from its own starting point, and every
// result == a sequential Eval at the same x. Run it under -race: the
// pass must only read the Engine.
func TestEvalReentrant(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		e := newTestEngine(t)
		e.Parallel = parallel
		states := testStates(e)
		want := make([]evalResult, len(states))
		for i, x := range states {
			want[i] = evalAt(e, x)
		}
		const goroutines = 16
		var wg sync.WaitGroup
		got := make([][]evalResult, goroutines)
		for g := range got {
			got[g] = make([]evalResult, len(states))
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range states {
					i := (g + k) % len(states)
					got[g][i] = evalAt(e, states[i])
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			for i := range states {
				if got[g][i] != want[i] {
					t.Errorf("parallel=%v goroutine %d state %d:\n concurrent %+v\n sequential %+v", parallel, g, i, got[g][i], want[i])
				}
			}
		}
	}
}

// TestEvalHistoryIndependent: a pass depends only on its own x —
// Eval(x2) after Eval(x1) equals Eval(x2) on a fresh engine — and
// leaves the engine's design volumes untouched.
func TestEvalHistoryIndependent(t *testing.T) {
	e := newTestEngine(t)
	var design [NumVolumes]Volume
	for i, v := range e.Volumes {
		design[i] = *v
	}
	states := testStates(e)
	for i, x1 := range states {
		x2 := states[(i+len(states)/2)%len(states)]
		fresh := evalAt(newTestEngine(t), x2)
		evalAt(e, x1)
		if got := evalAt(e, x2); got != fresh {
			t.Errorf("Eval(x%d) after Eval(x%d):\n got   %+v\n fresh %+v", (i+len(states)/2)%len(states), i, got, fresh)
		}
	}
	for i, v := range e.Volumes {
		if *v != design[i] {
			t.Errorf("volume %d changed by Eval: %+v, design %+v", i, *v, design[i])
		}
	}
}

// TestEvalParallelBitIdentical is the guarantee the parallel pass
// rests on: with identical hooks, evalParallel and evalSequential
// produce bit-for-bit equal derivatives and outputs — every per-volume
// operation sequence is preserved, and the single reorder (V1's two
// outflows) commutes exactly.
func TestEvalParallelBitIdentical(t *testing.T) {
	seq := newTestEngine(t)
	par := newTestEngine(t)
	par.Parallel = true

	for si, x := range testStates(seq) {
		dxSeq := make([]float64, NumStates)
		dxPar := make([]float64, NumStates)
		outSeq, errSeq := seq.Eval(0, append([]float64(nil), x...), dxSeq)
		outPar, errPar := par.Eval(0, append([]float64(nil), x...), dxPar)
		if (errSeq == nil) != (errPar == nil) {
			t.Fatalf("state %d: error mismatch: %v vs %v", si, errSeq, errPar)
		}
		if errSeq != nil {
			continue
		}
		for i := range dxSeq {
			if dxSeq[i] != dxPar[i] {
				t.Errorf("state %d dx[%d]: %v sequential vs %v parallel (diff %g)",
					si, i, dxSeq[i], dxPar[i], dxSeq[i]-dxPar[i])
			}
		}
		if outSeq != outPar {
			t.Errorf("state %d outputs differ:\n seq %+v\n par %+v", si, outSeq, outPar)
		}
	}
}

// TestBalanceParallelBitIdentical runs the full Newton balance and a
// short transient both ways: the iterates, and therefore the final
// states, must be identical to the last bit.
func TestBalanceParallelBitIdentical(t *testing.T) {
	seq := newTestEngine(t)
	par := newTestEngine(t)
	par.Parallel = true

	xSeq := append([]float64(nil), seq.DesignState...)
	xPar := append([]float64(nil), par.DesignState...)
	outSeq, itSeq, errSeq := seq.Balance(xSeq, SteadyOptions{})
	outPar, itPar, errPar := par.Balance(xPar, SteadyOptions{})
	if errSeq != nil || errPar != nil {
		t.Fatalf("balance errors: %v / %v", errSeq, errPar)
	}
	if itSeq != itPar {
		t.Errorf("iterations: %d sequential vs %d parallel", itSeq, itPar)
	}
	for i := range xSeq {
		if xSeq[i] != xPar[i] {
			t.Errorf("balanced x[%d]: %v vs %v", i, xSeq[i], xPar[i])
		}
	}
	if outSeq != outPar {
		t.Errorf("balanced outputs differ:\n seq %+v\n par %+v", outSeq, outPar)
	}

	trSeq, errSeq := seq.Transient(xSeq, TransientOptions{Duration: 0.01, Step: 5e-4})
	trPar, errPar := par.Transient(xPar, TransientOptions{Duration: 0.01, Step: 5e-4})
	if errSeq != nil || errPar != nil {
		t.Fatalf("transient errors: %v / %v", errSeq, errPar)
	}
	for i := range xSeq {
		if xSeq[i] != xPar[i] {
			t.Errorf("transient x[%d]: %v vs %v", i, xSeq[i], xPar[i])
		}
	}
	if trSeq != trPar {
		t.Errorf("transient outputs differ:\n seq %+v\n par %+v", trSeq, trPar)
	}
}

// TestEvalParallelOverlapsHooks wraps the hooks with a delay and
// checks that a parallel pass is faster than the sum of its hook
// delays — the adapted calls genuinely overlap (and the pass holds up
// under the race detector).
func TestEvalParallelOverlapsHooks(t *testing.T) {
	e := newTestEngine(t)
	e.Parallel = true
	const delay = 10 * time.Millisecond
	base := LocalHooks()
	e.Hooks = Hooks{
		Shaft: func(spool string, qTur, qCom, inertia, omega float64) (float64, error) {
			time.Sleep(delay)
			return base.Shaft(spool, qTur, qCom, inertia, omega)
		},
		Duct: func(id string, k, pUp, tUp, far, pDown float64) (float64, error) {
			time.Sleep(delay)
			return base.Duct(id, k, pUp, tUp, far, pDown)
		},
		Combustor: func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (float64, float64, float64, error) {
			time.Sleep(delay)
			return base.Combustor(k, pUp, tUp, farUp, pDown, wf, eta, stator)
		},
		Nozzle: func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
			time.Sleep(delay)
			return base.Nozzle(a8, pt, tt, far, pamb, stator)
		},
	}
	x := append([]float64(nil), e.DesignState...)
	start := time.Now()
	if _, err := e.Eval(0, x, make([]float64, NumStates)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Eight hook invocations per pass; sequential would pay >= 8x the
	// delay. The dependency chain bounds the parallel pass near
	// bleed + combustor + bypass-or-mixer + mixer-bypass + nozzle.
	if elapsed >= 8*delay {
		t.Errorf("parallel pass took %v, no overlap (8 hooks x %v)", elapsed, delay)
	}
	if math.IsNaN(x[0]) {
		t.Error("state corrupted")
	}
}
