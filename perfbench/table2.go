package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"npss/internal/core"
	"npss/internal/exper"
	"npss/internal/machine"
	"npss/internal/netsim"
)

// table2Spec is one Table 2 workload: the paper's combined placement
// (six remote modules on the Cray, the RS/6000 and two SGIs, driven
// from the Arizona Sparc) at a given run length and executive mode.
type table2Spec struct {
	transient float64         // simulated transient seconds per run
	timeScale float64         // fraction of simulated network delay slept
	opts      core.RunOptions // executive mode
}

// maxRelErrTol is the tolerance the repository's Table 2 tests hold
// the distributed run to against the local run.
const maxRelErrTol = 1e-4

// table2WAN is the paper's placement on the batched executive with the
// network delays slept at 1% scale: wall time is the critical path of
// round trips over the Internet and gateway links. Its spec is the one
// the legacy Table2_Batched trajectory row measured.
var table2WAN = workload{
	name:         "table2-wan",
	clients:      2,
	callsPerUnit: 1416,
	setup: func(seed int64) (env, error) {
		return setupTable2(table2Spec{transient: 0.02, timeScale: 0.01, opts: core.RunOptions{Parallel: true, Batch: true}}, seed, 2)
	},
}

// table2CPU is the same placement and physics on the paper's
// sequential executive with no network sleep and the paper's one-second
// transient: wall time is pure software.
var table2CPU = workload{
	name:         "table2-cpu",
	clients:      1,
	callsPerUnit: 24936,
	setup: func(seed int64) (env, error) {
		return setupTable2(table2Spec{transient: 1.0, timeScale: 0}, seed, 1)
	},
}

type table2Env struct {
	spec    table2Spec
	clients []*table2Client

	mu        sync.Mutex
	maxErr    float64 // largest deviation from the local run seen
	iters     int     // balance iterations of the last run
	crayShare float64 // share of calls served by Cray-format machines
}

// table2Client is one executive on its own testbed, with the local
// (all-in-process) run its distributed runs are checked against.
type table2Client struct {
	tb    *exper.Testbed
	exec  *core.Executive
	local *core.RunResult
	opts  core.RunOptions
}

func setupTable2(spec table2Spec, seed int64, clients int) (*table2Env, error) {
	e := &table2Env{spec: spec, clients: make([]*table2Client, clients)}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if e.clients[c], errs[c] = newTable2Client(spec, rand.New(rand.NewSource(seed*7919+int64(c)))); errs[c] == nil {
				// The warm-up run starts the remote lines; it is
				// checked like every other run.
				if err := e.unit(c); err != nil {
					errs[c] = fmt.Errorf("warm-up run: %w", err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.stop()
			return nil, err
		}
	}
	// Every evaluation calls each remote module once, so the Cray
	// share of calls is its share of the placements.
	cray := 0
	for _, host := range exper.Table2Placements() {
		if a, err := e.clients[0].tb.Tr.HostArch(host); err == nil && a == machine.CrayYMP {
			cray++
		}
	}
	e.crayShare = float64(cray) / float64(len(exper.Table2Placements()))
	return e, nil
}

// newTable2Client deploys a testbed, builds the F100 network, runs the
// local baseline, and places the six remote modules. The seed varies
// the throttle: the fuel schedule decelerates to a target drawn within
// 1% of the paper-study value, which changes the dynamics but not the
// number of evaluations.
func newTable2Client(spec table2Spec, rng *rand.Rand) (*table2Client, error) {
	tb, err := exper.NewTestbed(exper.SparcUA)
	if err != nil {
		return nil, err
	}
	c := &table2Client{tb: tb, opts: spec.opts}
	tb.Net.SetTimeScale(spec.timeScale)
	if c.exec, err = tb.NewExecutive(); err != nil {
		tb.Stop()
		return nil, err
	}
	target := 1.33 * (1 + 0.01*(2*rng.Float64()-1))
	params := []struct {
		inst, widget string
		value        any
	}{
		{core.InstSystem, "transient seconds", spec.transient},
		{core.InstSystem, "time step", 5e-4},
		{core.InstComb, "fuel schedule", fmt.Sprintf("0:1.48, %g:%.6f", spec.transient/10, target)},
	}
	for _, p := range params {
		if err := c.exec.Network.SetParam(p.inst, p.widget, p.value); err != nil {
			c.stop()
			return nil, err
		}
	}
	if c.local, err = c.exec.Run(core.RunOptions{}); err != nil {
		c.stop()
		return nil, fmt.Errorf("local run: %w", err)
	}
	for inst, host := range exper.Table2Placements() {
		if err := c.exec.SetRemote(inst, host, ""); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *table2Client) stop() {
	c.exec.Destroy()
	c.tb.Stop()
}

// unit is one distributed run, checked against the local run.
func (e *table2Env) unit(c int) error {
	cl := e.clients[c]
	res, err := cl.exec.Run(cl.opts)
	if err != nil {
		return err
	}
	d := maxRelErr(cl.local, res)
	e.mu.Lock()
	e.maxErr = math.Max(e.maxErr, d)
	e.iters = res.SteadyIters
	e.mu.Unlock()
	if !(d <= maxRelErrTol) {
		return checkf("distributed run deviates from the local run by %g (tolerance %g)", d, maxRelErrTol)
	}
	return nil
}

func (e *table2Env) traffic() traffic {
	var nets []*netsim.Network
	for _, c := range e.clients {
		nets = append(nets, c.tb.Net)
	}
	return countTraffic(nets, "")
}

func (e *table2Env) stop() {
	for _, c := range e.clients {
		if c != nil {
			c.stop()
		}
	}
}

// maxRelErr is the paper's correctness criterion: the largest relative
// deviation of the distributed run from the local run over the final
// state vector and the steady and final thrust and turbine inlet
// temperature.
func maxRelErr(local, remote *core.RunResult) float64 {
	worst := 0.0
	obs := func(a, b float64) {
		if a == b {
			return
		}
		d := math.Abs(a-b) / math.Max(math.Abs(a), 1e-12)
		if !(d <= worst) {
			worst = d
		}
	}
	if len(local.State) != len(remote.State) {
		return math.Inf(1)
	}
	for i := range local.State {
		obs(local.State[i], remote.State[i])
	}
	obs(local.Steady.Thrust, remote.Steady.Thrust)
	obs(local.Final.Thrust, remote.Final.Thrust)
	obs(local.Steady.T4, remote.Steady.T4)
	obs(local.Final.T4, remote.Final.T4)
	return worst
}
