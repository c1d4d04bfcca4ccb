package core

import (
	"fmt"
	"sync"

	"npss/internal/engine"
	"npss/internal/schooner"
	"npss/internal/uts"
)

// Per-wavefront gather: the batched executive's one coalescing point.
//
// A Jacobian wavefront runs one parallel evaluation pass per column.
// Every pass reaches the same remote call sites — the bypass duct, the
// combustor, the shaft pair, the mixer-core duct and the nozzle — with
// its own arguments. At each site a column's calls wait until every
// column has either arrived there or left the wavefront (its pass
// returned); the goroutine whose arrival or leaving completes the site
// sends every column's calls, in column order, through
// Executive.dispatch: one KBatch per site and destination host instead
// of one message per column. Each sub-call carries exactly the KCall
// the column would have sent alone, so results are bit-identical, and
// a failed envelope falls back to the per-call retry path.
//
// Deadlock freedom: every column runs the same pass, which reaches each
// site before it first waits on that site's results and never waits on
// a site it has not reached. A column can therefore wait at a site only
// for columns that will reach it without waiting on anything later; a
// column that fails first leaves, which counts as arriving everywhere.
// No lock is held while replies are awaited.

// The remote call sites a wavefront gathers, one per adapted module
// instance; the two shafts share one.
const (
	siteBypass  = iota // InstBypDuct
	siteComb           // InstComb
	siteShafts         // InstLowShaft and InstHighShaft
	siteMixCore        // InstAugDuct
	siteNozzle         // InstNozzle
	numSites
)

// column is where an adapted module's hook sends its remote calls: one
// column of a gather, or, with a nil gather, an evaluation outside any
// wavefront, whose calls go out at once.
type column struct {
	x *Executive
	g *gather
	j int
}

// pass is the column's visit to site without remote calls — its module
// computes locally or failed before calling — so no other column waits
// for it there.
func (c column) pass(site int) {
	if c.g != nil {
		c.g.visit(site, c.j, nil)
	}
}

// call makes the column's one remote call at site and returns its
// results.
func (c column) call(site int, ln *schooner.Line, name string, args []uts.Value) ([]uts.Value, error) {
	if c.g != nil {
		if pends := c.g.visit(site, c.j, []schooner.CrossCall{{Line: ln, Name: name, Args: args}}); pends != nil {
			return pends[0].Wait()
		}
	}
	return ln.Call(name, args...)
}

// send makes the column's several remote calls at site and returns one
// Pending per call.
func (c column) send(site int, calls []schooner.CrossCall) []*schooner.Pending {
	if c.g != nil {
		return c.g.visit(site, c.j, calls)
	}
	return c.x.dispatch(calls)
}

// dispatch is the executive's one coalescing path: calls that are
// ready together ride Client.GoBatchHosts, one KBatch per destination
// host, and it returns one Pending per call. A lone call gets nil: its
// owner makes it through Line.Call, the per-call path.
func (x *Executive) dispatch(calls []schooner.CrossCall) []*schooner.Pending {
	if len(calls) < 2 {
		return nil
	}
	return x.Client.GoBatchHosts(calls)
}

// gather is one wavefront's coalescing state.
type gather struct {
	x       *Executive
	mu      sync.Mutex
	left    []bool             // column j's pass has returned
	visits  [numSites][]*visit // column j's visit to a site; nil until it arrives
	flushed [numSites]bool
}

// visit is one column's arrival at a site.
type visit struct {
	calls []schooner.CrossCall
	pends []*schooner.Pending
	done  chan struct{} // closed once the site has flushed; nil without calls
}

func newGather(x *Executive, n int) *gather {
	g := &gather{x: x, left: make([]bool, n)}
	for s := range g.visits {
		g.visits[s] = make([]*visit, n)
	}
	return g
}

// visit records column j's arrival at site with its calls there and,
// once the site has flushed, returns one Pending per call — nil for no
// calls, or for a call that flushed alone and goes per-call.
func (g *gather) visit(site, j int, calls []schooner.CrossCall) []*schooner.Pending {
	v := &visit{calls: calls}
	if len(calls) > 0 {
		v.done = make(chan struct{})
	}
	g.mu.Lock()
	g.visits[site][j] = v
	ready := g.take(site)
	g.mu.Unlock()
	if ready != nil {
		g.flush(ready)
	}
	if v.done == nil {
		return nil
	}
	<-v.done
	return v.pends
}

// leave records that column j's pass has returned, and flushes every
// site that was waiting only for it.
func (g *gather) leave(j int) {
	var ready [][]*visit
	g.mu.Lock()
	g.left[j] = true
	for s := range g.visits {
		if vs := g.take(s); vs != nil {
			ready = append(ready, vs)
		}
	}
	g.mu.Unlock()
	for _, vs := range ready {
		g.flush(vs)
	}
}

// take returns the site's visits, by column, once every column has
// arrived there or left, and marks the site flushed; nil before that,
// and after. Called with g.mu held.
func (g *gather) take(site int) []*visit {
	if g.flushed[site] {
		return nil
	}
	for j, v := range g.visits[site] {
		if v == nil && !g.left[j] {
			return nil
		}
	}
	g.flushed[site] = true
	return g.visits[site]
}

// flush sends a site's calls in column order and releases its visits.
func (g *gather) flush(vs []*visit) {
	var calls []schooner.CrossCall
	for _, v := range vs {
		if v != nil {
			calls = append(calls, v.calls...)
		}
	}
	pends := g.x.dispatch(calls)
	for _, v := range vs {
		if v == nil || v.done == nil {
			continue
		}
		if pends != nil {
			v.pends, pends = pends[:len(v.calls)], pends[len(v.calls):]
		}
		close(v.done)
	}
}

// shaftPair returns the column's ShaftPair hook: when both shafts
// compute remotely, their calls go out together at the shaft site —
// outside a wavefront as one coalesced operation, so two shafts whose
// processes share a machine (the paper's combined test puts both on
// the RS/6000) cost one round trip.
func (c column) shaftPair(low, high *ShaftModule) func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (float64, float64, error) {
	return func(qTurL, qComL, inertiaL, omegaL, qTurH, qComH, inertiaH, omegaH float64) (float64, float64, error) {
		lnL, lnH := low.Line(), high.Line()
		var eL, eH float64
		var err error
		if lnL != nil && lnH != nil {
			if eL, err = low.setup(lnL); err == nil {
				eH, err = high.setup(lnH)
			}
		}
		if lnL == nil || lnH == nil || err != nil {
			// Nothing to coalesce: a side computes in-process, or a
			// setup call failed.
			c.pass(siteShafts)
			if err != nil {
				return 0, 0, err
			}
			dL, err := low.accel(qTurL, qComL, inertiaL, omegaL)
			if err != nil {
				return 0, 0, err
			}
			dH, err := high.accel(qTurH, qComH, inertiaH, omegaH)
			return dL, dH, err
		}
		pends := c.send(siteShafts, []schooner.CrossCall{
			{Line: lnL, Name: "shaft", Args: shaftCallArgs(qTurL, qComL, inertiaL, omegaL, eL)},
			{Line: lnH, Name: "shaft", Args: shaftCallArgs(qTurH, qComH, inertiaH, omegaH, eH)},
		})
		outL, err := pends[0].Wait()
		if err != nil {
			return 0, 0, err
		}
		outH, err := pends[1].Wait()
		if err != nil {
			return 0, 0, err
		}
		if len(outL) != 1 || len(outH) != 1 {
			return 0, 0, fmt.Errorf("core: batched shaft returned %d/%d results, want 1/1", len(outL), len(outH))
		}
		return outL[0].F, outH[0].F, nil
	}
}

// installGather gives the engine the batched executive's hooks: the
// shaft pair coalesced outside a wavefront, and a Wave hook whose
// columns meet at a fresh gather for each Jacobian wavefront.
func (a *adapted) installGather(x *Executive, eng *engine.Engine) {
	hooks := func(c column) engine.Hooks {
		h := a.hooks(c)
		if a.low != nil && a.high != nil {
			h.ShaftPair = c.shaftPair(a.low, a.high)
		}
		return h
	}
	eng.Hooks = hooks(column{x: x})
	eng.Hooks.Wave = func(n int) ([]engine.Hooks, func(int)) {
		g := newGather(x, n)
		cols := make([]engine.Hooks, n)
		for j := range cols {
			cols[j] = hooks(column{x: x, g: g, j: j})
		}
		return cols, g.leave
	}
}
