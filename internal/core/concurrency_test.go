package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npss/internal/engine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
)

// dispatchBarrier holds an armed remote work procedure until the
// network has carried a second request since arming: the procedure
// body of the first call returns only once the second call has been
// dispatched onto the wire. A call still alone after the guard gives
// up with an error, so a serialised dispatch fails the test rather
// than hanging it; the guard is below the default call deadline, so
// the call is not retried meanwhile.
type dispatchBarrier struct {
	net   *netsim.Network
	armed atomic.Bool
	base  int64
}

// messages counts every message the network has carried.
func messages(n *netsim.Network) int64 {
	var total int64
	for _, st := range n.Stats() {
		total += st.Messages
	}
	return total
}

func (b *dispatchBarrier) arm() {
	b.base = messages(b.net)
	b.armed.Store(true)
}

func (b *dispatchBarrier) wait() error {
	if !b.armed.Load() {
		return nil
	}
	guard := time.Now().Add(schooner.DefaultCallTimeout / 2)
	for messages(b.net) < b.base+2 {
		if time.Now().After(guard) {
			return fmt.Errorf("the second call was never dispatched")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// barrierPrograms are the four adapted procedure files with the same
// exports as npssproc's, except that every work procedure waits at
// the barrier before computing.
func barrierPrograms(b *dispatchBarrier) []*schooner.Program {
	build := func(path string, procs ...*schooner.BoundProc) *schooner.Program {
		return &schooner.Program{Path: path, Language: schooner.LangFortran, Build: func() (*schooner.Instance, error) {
			return schooner.NewInstance(procs...)
		}}
	}
	return []*schooner.Program{
		build("/test/shaft",
			npssproc.BindSetshaft(func([]float64, int32, []float64, int32) (float64, error) { return 1, nil }),
			npssproc.BindShaft(func(ecom []float64, _ int32, etur []float64, _ int32, ecorr, xspool, xmyi float64) (float64, error) {
				if err := b.wait(); err != nil {
					return 0, err
				}
				return ecorr * (etur[0] - ecom[0]) / (xmyi * xspool), nil
			})),
		build("/test/duct",
			npssproc.BindSetduct(func(w, p, t, far, dp float64) (float64, error) { return engine.DuctSizeK(w, p, t, far, dp) }),
			npssproc.BindDuct(func(xkd, pup, tup, far, pdown float64) (float64, error) {
				if err := b.wait(); err != nil {
					return 0, err
				}
				return engine.DuctFlow(xkd, pup, tup, far, pdown)
			})),
		build("/test/comb",
			npssproc.BindSetcomb(func(w, p, t, dp float64) (float64, error) { return engine.DuctSizeK(w, p, t, 0, dp) }),
			npssproc.BindComb(func(xkc, pup, tup, farup, pdown, wf, eta, stator float64) (float64, float64, float64, error) {
				if err := b.wait(); err != nil {
					return 0, 0, 0, err
				}
				return engine.CombustorCompute(xkc, pup, tup, farup, pdown, wf, eta, stator)
			})),
		build("/test/nozl",
			npssproc.BindSetnozl(func(w, p, t, far, pamb float64) (float64, error) { return 0.25, nil }),
			npssproc.BindNozl(func(a8, pt, tt, far, pamb, stator float64) (float64, float64, error) {
				if err := b.wait(); err != nil {
					return 0, 0, err
				}
				return engine.NozzleCompute(a8, pt, tt, far, pamb, stator)
			})),
	}
}

// TestModuleHooksDispatchConcurrently pins the rule that no adapted
// module holds a lock across the wire: a second evaluation of one
// module is dispatched while the first is still in flight. Each remote
// work procedure is a barrier that returns only once the second
// request has been sent, so a hook that serialised its calls fails
// instead of merely running slower.
func TestModuleHooksDispatchConcurrently(t *testing.T) {
	tb := newTestbed(t)
	barrier := &dispatchBarrier{net: tb.net}
	for _, p := range barrierPrograms(barrier) {
		if err := tb.reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	for inst, place := range map[string][2]string{
		InstLowShaft: {"rs6000-lerc", "/test/shaft"},
		InstBypDuct:  {"cray-lerc", "/test/duct"},
		InstComb:     {"sgi-ua", "/test/comb"},
		InstNozzle:   {"sgi-lerc", "/test/nozl"},
	} {
		if err := tb.exec.SetRemote(inst, place[0], place[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.exec.Network.Execute(); err != nil {
		t.Fatal(err)
	}
	module := func(inst string) any {
		node, err := tb.exec.Network.Node(inst)
		if err != nil {
			t.Fatal(err)
		}
		return node.Module()
	}
	eng, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		t.Fatal(err)
	}
	shaft := module(InstLowShaft).(*ShaftModule).Hook()
	duct := module(InstBypDuct).(*DuctModule).Hook(eng.DesignDucts["bypass"])
	comb := module(InstComb).(*CombustorModule).Hook(eng.DesignComb)
	nozl := module(InstNozzle).(*NozzleModule).Hook(eng.DesignNozzle)
	dd, dc, dn := eng.DesignDucts["bypass"], eng.DesignComb, eng.DesignNozzle
	calls := []struct {
		name string
		call func() (float64, error)
	}{
		{"shaft", func() (float64, error) { return shaft(2e4, 1.9e4, eng.InertiaL, 1000) }},
		{"duct", func() (float64, error) { return duct(eng.KByp, dd.P, dd.T, dd.FAR, dd.P-dd.DP) }},
		{"comb", func() (float64, error) {
			w, _, _, err := comb(eng.KComb, dc.P, dc.T, 0, dc.P-dc.DP, eng.DesignFuel, eng.BurnEff, 1)
			return w, err
		}},
		{"nozl", func() (float64, error) {
			w, _, err := nozl(eng.A8, dn.P, dn.T, dn.FAR, dn.Pamb, 1)
			return w, err
		}},
	}
	for _, c := range calls {
		// The first call makes the once-only set* call; the barrier is
		// armed only for the pair of work calls after it.
		want, err := c.call()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		barrier.arm()
		var wg sync.WaitGroup
		var res [2]float64
		var errs [2]error
		for i := range res {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res[i], errs[i] = c.call()
			}(i)
		}
		wg.Wait()
		barrier.armed.Store(false)
		for i := range res {
			if errs[i] != nil {
				t.Errorf("%s call %d: %v", c.name, i, errs[i])
			} else if res[i] != want {
				t.Errorf("%s call %d = %v, want %v", c.name, i, res[i], want)
			}
		}
	}
}
