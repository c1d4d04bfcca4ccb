package core

import (
	"testing"

	"npss/internal/trace"
)

// table2Placements is the paper's Table 2 combined placement: six
// remote computations, with both shafts sharing the LeRC RS/6000 —
// the pair the batched dispatch coalesces.
func table2Placements() map[string]string {
	return map[string]string{
		InstComb:      "sgi-ua",
		InstBypDuct:   "cray-lerc",
		InstAugDuct:   "cray-lerc",
		InstNozzle:    "sgi-lerc",
		InstLowShaft:  "rs6000-lerc",
		InstHighShaft: "rs6000-lerc",
	}
}

// table2Run configures a testbed for the Table 2 placement at the
// benchmark's run length, makes a warm-up run that starts the remote
// lines and makes the set* calls, and then the measured run, with the
// netsim statistics reset in between. It returns the testbed, the
// measured run's result, and its wire round trips and procedure calls.
func table2Run(t *testing.T, opts RunOptions) (*testbed, *RunResult, int64, int64) {
	t.Helper()
	tb := newTestbed(t)
	for _, p := range []struct {
		inst, widget string
		value        any
	}{
		{InstSystem, "transient seconds", 0.02},
		{InstSystem, "time step", 5e-4},
		{InstComb, "fuel schedule", "0:1.48, 0.002:1.33"},
	} {
		if err := tb.exec.Network.SetParam(p.inst, p.widget, p.value); err != nil {
			t.Fatal(err)
		}
	}
	for inst, mach := range table2Placements() {
		if err := tb.exec.SetRemote(inst, mach, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.exec.Run(opts); err != nil {
		t.Fatal(err)
	}
	tb.net.ResetStats()
	rpcs0 := trace.Get("schooner.client.rpcs")
	calls0 := trace.Get("schooner.client.calls")
	res, err := tb.exec.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb, res, trace.Get("schooner.client.rpcs") - rpcs0, trace.Get("schooner.client.calls") - calls0
}

// TestBatchedRunBitIdentical checks the three executive modes on the
// Table 2 placement at the benchmark's run length. The sequential,
// parallel (overlapped hooks and a concurrent Jacobian wavefront) and
// batched runs produce bit-identical simulation results from the same
// 1416 procedure calls; only batching changes the envelopes they ride
// in. Outside a Jacobian wavefront the two shaft calls of a pass
// collapse into one KBatch to the RS/6000's Server; inside one, each
// remote call site sends all 16 columns' calls as one KBatch, so each
// of the 9 wavefronts costs 5 round trips instead of 80.
func TestBatchedRunBitIdentical(t *testing.T) {
	run := func(opts RunOptions) (*RunResult, int64, int64) {
		_, res, rpcs, calls := table2Run(t, opts)
		return res, rpcs, calls
	}

	modes := []struct {
		name       string
		opts       RunOptions
		calls, rpc int64
	}{
		{"sequential", RunOptions{}, 1416, 1416},
		{"parallel", RunOptions{Parallel: true}, 1416, 1416},
		{"batched", RunOptions{Parallel: true, Batch: true}, 1416, 505},
	}
	var ref *RunResult
	for _, m := range modes {
		res, rpcs, calls := run(m.opts)
		if calls != m.calls || rpcs != m.rpc {
			t.Errorf("%s run: %d calls over %d rpcs, want %d over %d", m.name, calls, rpcs, m.calls, m.rpc)
		}
		if ref == nil {
			ref = res
			continue
		}
		// Bit-identical: same calls, same arguments, same arithmetic.
		if res.SteadyIters != ref.SteadyIters {
			t.Errorf("%s run: %d balance iterations, sequential %d", m.name, res.SteadyIters, ref.SteadyIters)
		}
		if res.Steady != ref.Steady || res.Final != ref.Final {
			t.Errorf("%s run outputs differ from sequential:\n steady %+v\n    vs %+v\n final  %+v\n    vs %+v",
				m.name, res.Steady, ref.Steady, res.Final, ref.Final)
		}
		for i := range ref.State {
			if res.State[i] != ref.State[i] {
				t.Errorf("%s run state %d: %.17g, sequential %.17g", m.name, i, res.State[i], ref.State[i])
			}
		}
	}
}

// TestBatchWithLocalShaftFallsBack checks Batch with one shaft local
// degrades gracefully to the per-call path.
func TestBatchWithLocalShaftFallsBack(t *testing.T) {
	tb := newTestbed(t)
	shortRun(t, tb.exec)
	if err := tb.exec.SetRemote(InstLowShaft, "rs6000-lerc", ""); err != nil {
		t.Fatal(err)
	}
	res, err := tb.exec.Run(RunOptions{Parallel: true, Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steady.Thrust <= 0 {
		t.Errorf("steady thrust %g not positive", res.Steady.Thrust)
	}
}
