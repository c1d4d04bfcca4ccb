package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"npss/internal/engine"
	"npss/internal/trace"
)

// batchedEngine places the Table 2 computations, starts their lines,
// and returns an engine carrying the batched executive's hooks, its
// setup constants already fetched by one evaluation at the design
// point.
func batchedEngine(t *testing.T, tb *testbed, placements map[string]string) *engine.Engine {
	t.Helper()
	for inst, mach := range placements {
		if err := tb.exec.SetRemote(inst, mach, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.exec.Network.Execute(); err != nil {
		t.Fatal(err)
	}
	eng, err := tb.exec.buildEngine()
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.exec.installHooks(eng, true); err != nil {
		t.Fatal(err)
	}
	eng.Parallel = true
	if _, err := eng.Eval(0, append([]float64(nil), eng.DesignState...), make([]float64, engine.NumStates)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestGatherConcurrentFailedColumnReleasesOthers: columns 3 and 7 of
// every wavefront fail in their combustor hook, before reaching the
// combustor site, while the other columns wait there. Their leaving
// releases the site, Balance reports column 3 with the sequential
// loop's message, and when it returns every column has left and no
// hook call is still running.
func TestGatherConcurrentFailedColumnReleasesOthers(t *testing.T) {
	tb := newTestbed(t)
	eng := batchedEngine(t, tb, table2Placements())
	var inflight, left atomic.Int32
	wave := eng.Hooks.Wave
	eng.Hooks.Wave = func(n int) ([]engine.Hooks, func(int)) {
		cols, leave := wave(n)
		for j := range cols {
			h := &cols[j]
			duct, comb, nozzle, pair := h.Duct, h.Combustor, h.Nozzle, h.ShaftPair
			h.Duct = func(id string, k, pUp, tUp, far, pDown float64) (float64, error) {
				inflight.Add(1)
				defer inflight.Add(-1)
				return duct(id, k, pUp, tUp, far, pDown)
			}
			h.Combustor = func(k, pUp, tUp, farUp, pDown, wf, eta, stator float64) (float64, float64, float64, error) {
				if j == 3 || j == 7 {
					return 0, 0, 0, fmt.Errorf("column %d fails", j)
				}
				inflight.Add(1)
				defer inflight.Add(-1)
				return comb(k, pUp, tUp, farUp, pDown, wf, eta, stator)
			}
			h.Nozzle = func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
				inflight.Add(1)
				defer inflight.Add(-1)
				return nozzle(a8, pt, tt, far, pamb, stator)
			}
			h.ShaftPair = func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (float64, float64, error) {
				inflight.Add(1)
				defer inflight.Add(-1)
				return pair(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH)
			}
		}
		return cols, func(j int) {
			leave(j)
			left.Add(1)
		}
	}
	state := append([]float64(nil), eng.DesignState...)
	_, iters, err := eng.Balance(state, engine.SteadyOptions{})
	const want = "solver: residual during Jacobian column 3: column 3 fails"
	if err == nil || err.Error() != want || iters != 1 {
		t.Fatalf("Balance = (%d, %v), want (1, %q)", iters, err, want)
	}
	if n := left.Load(); n != engine.NumStates {
		t.Errorf("%d columns left the wavefront, want %d", n, engine.NumStates)
	}
	if n := inflight.Load(); n != 0 {
		t.Errorf("%d hook calls still running after Balance returned", n)
	}
}

// TestBatchedRunReplayBitIdentical: two identical batched runs put the
// same members in the same envelopes, so every netsim link carries
// the same messages and bytes.
func TestBatchedRunReplayBitIdentical(t *testing.T) {
	opts := RunOptions{Parallel: true, Batch: true}
	tbA, resA, rpcsA, _ := table2Run(t, opts)
	tbB, resB, rpcsB, _ := table2Run(t, opts)
	if rpcsA != rpcsB || resA.Steady != resB.Steady || resA.Final != resB.Final {
		t.Fatalf("runs differ: %d vs %d rpcs, steady %+v vs %+v", rpcsA, rpcsB, resA.Steady, resB.Steady)
	}
	statsA, statsB := tbA.net.Stats(), tbB.net.Stats()
	if len(statsA) != len(statsB) {
		t.Fatalf("links used: %d vs %d", len(statsA), len(statsB))
	}
	for link, a := range statsA {
		b := statsB[link]
		if a.Messages != b.Messages || a.Bytes != b.Bytes {
			t.Errorf("link %s: %d messages / %d bytes vs %d / %d", link, a.Messages, a.Bytes, b.Messages, b.Bytes)
		}
	}
}

// TestGatherConcurrentLocalModuleBypasses: a column whose module
// computes locally returns at once, although the other column has not
// reached the site, while a remote call waits there until the other
// column leaves.
func TestGatherConcurrentLocalModuleBypasses(t *testing.T) {
	tb := newTestbed(t)
	placements := table2Placements()
	delete(placements, InstComb)
	eng := batchedEngine(t, tb, placements)
	cols, leave := eng.Hooks.Wave(2)

	dc := eng.DesignComb
	w, tOut, far, err := cols[0].Combustor(eng.KComb, dc.P, dc.T, 0, dc.P-dc.DP, eng.DesignFuel, eng.BurnEff, 1)
	if err != nil {
		t.Fatal(err)
	}
	ww, wt, wf, _ := engine.CombustorCompute(eng.KComb, dc.P, dc.T, 0, dc.P-dc.DP, eng.DesignFuel, eng.BurnEff, 1)
	if w != ww || tOut != wt || far != wf {
		t.Errorf("local combustor through the gather = (%v, %v, %v), want (%v, %v, %v)", w, tOut, far, ww, wt, wf)
	}

	dd := eng.DesignDucts["bypass"]
	want, err := eng.Hooks.Duct("bypass", eng.KByp, dd.P, dd.T, dd.FAR, dd.P-dd.DP)
	if err != nil {
		t.Fatal(err)
	}
	rpcs0 := trace.Get("schooner.client.rpcs")
	type result struct {
		w   float64
		err error
	}
	got := make(chan result, 1)
	go func() {
		w, err := cols[0].Duct("bypass", eng.KByp, dd.P, dd.T, dd.FAR, dd.P-dd.DP)
		got <- result{w, err}
	}()
	leave(1)
	r := <-got
	leave(0)
	if r.err != nil || r.w != want {
		t.Errorf("remote bypass duct through the gather = (%v, %v), want %v", r.w, r.err, want)
	}
	if n := trace.Get("schooner.client.rpcs") - rpcs0; n != 1 {
		t.Errorf("lone gathered call made %d round trips, want 1", n)
	}
}

// TestGatherConcurrentOneColumnShaftPair: in a one-column wavefront,
// and outside any wavefront, the two shafts on the RS/6000 still
// share one host batch.
func TestGatherConcurrentOneColumnShaftPair(t *testing.T) {
	tb := newTestbed(t)
	eng := batchedEngine(t, tb, table2Placements())
	cols, leave := eng.Hooks.Wave(1)
	for _, c := range []struct {
		name string
		pair func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (float64, float64, error)
	}{
		{"one-column wavefront", cols[0].ShaftPair},
		{"outside a wavefront", eng.Hooks.ShaftPair},
	} {
		rpcs0, batches0 := trace.Get("schooner.client.rpcs"), trace.Get("schooner.client.host_batches")
		dL, dH, err := c.pair(2e4, 1.9e4, eng.InertiaL, 1000, 3e4, 2.9e4, eng.InertiaH, 1400)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rpcs := trace.Get("schooner.client.rpcs") - rpcs0
		batches := trace.Get("schooner.client.host_batches") - batches0
		if rpcs != 1 || batches != 1 {
			t.Errorf("%s: %d round trips and %d host batches, want 1 and 1", c.name, rpcs, batches)
		}
		wantL, _ := eng.Hooks.Shaft("low", 2e4, 1.9e4, eng.InertiaL, 1000)
		wantH, _ := eng.Hooks.Shaft("high", 3e4, 2.9e4, eng.InertiaH, 1400)
		if dL != wantL || dH != wantH {
			t.Errorf("%s: pair = (%v, %v), separate calls (%v, %v)", c.name, dL, dH, wantL, wantH)
		}
	}
	leave(0)
}
