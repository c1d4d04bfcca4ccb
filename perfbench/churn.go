package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"npss/internal/engine"
	"npss/internal/exper"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/uts"
	"npss/internal/wal"
)

// churnCalls is how many duct calls each lines-churn iteration makes,
// split around the Move: 8 before it and 7 after. It follows the line
// traffic of the repository's randomized cluster workload, dst.Generate:
// the lines it spawns, starts, moves and quits receive 3.77 calls per
// such name-database write. An iteration makes four of those writes
// (contact, start, move and quit), so 15 calls. TestChurnCallsFollowDSTMix
// holds this constant to the generator's mix.
const churnCalls = 15

// churnTol bounds the relative deviation of a remote duct result from
// the in-process computation: the Cray's 48-bit mantissa rounds the
// arguments and the result.
const churnTol = 1e-9

// linesChurn runs two client lines against a journaling Manager with a
// warm standby mirroring its journal. Every iteration is a full line
// lifecycle, so name-database writes, journal appends, spawns and
// rebinds run alongside cached calls.
var linesChurn = workload{
	name:         "lines-churn",
	clients:      2,
	callsPerUnit: churnCalls,
	// schooner.Server keeps every process it has spawned, so the heap
	// grows with each iteration; sampling a fixed number of iterations
	// keeps a faster control plane from reading as a larger heap.
	heapUnits: 1000,
	setup: func(seed int64) (env, error) {
		return setupChurn(seed, 2, paperLinks)
	},
}

// The control-plane operations of one iteration, in order.
const (
	opContact = iota
	opStart
	opImport
	opMove
	opQuit
	numCPOps
)

var cpOpNames = [numCPOps]string{"contact", "start", "import", "move", "quit"}

// Machines of the lines-churn deployment, named as in the paper's
// testbed: the clients and the Manager share the LeRC Sparc, the
// standby runs on an SGI, and the duct procedure moves between the
// IEEE SGI 4D/480 and the Cray.
const (
	churnMgrHost     = exper.SparcLerc
	churnStandbyHost = exper.SGI420Lerc
)

var churnWorkers = [2]string{exper.SGI480Lerc, exper.CrayLerc}

// standbyLink names the link between the Manager and its standby.
// Heartbeats cross it at a wall-clock cadence, so its traffic is left
// out of the per-iteration counts.
const standbyLink = "standby"

type churnLinks struct{ lan, gateway, standby netsim.LinkSpec }

var (
	paperLinks = churnLinks{
		lan:     netsim.LocalEthernet,
		gateway: netsim.MultiGateway,
		standby: netsim.LinkSpec{Name: standbyLink, Latency: netsim.LocalEthernet.Latency, Bandwidth: netsim.LocalEthernet.Bandwidth},
	}
	zeroDelay = netsim.LinkSpec{Name: "zero-delay"}
	zeroLinks = churnLinks{lan: zeroDelay, gateway: zeroDelay, standby: netsim.LinkSpec{Name: standbyLink}}
)

var ductImport = uts.MustParseProc(`import duct prog(
	"xkd" val double, "pup" val double, "tup" val double,
	"far" val double, "pdown" val double, "wflow" res double)`)

type churnEnv struct {
	net        *netsim.Network
	mgr        *schooner.Manager
	journal    *wal.Log
	standby    *schooner.Standby
	standbyLog *wal.Log
	servers    []*schooner.Server
	clients    []*churnClient
	walDir     string

	mu     sync.Mutex
	cpLat  [numCPOps][]float64 // seconds per control-plane operation
	maxErr float64
}

type churnClient struct {
	client   *schooner.Client
	from, to string
	rng      *rand.Rand
}

func setupChurn(seed int64, clients int, links churnLinks) (*churnEnv, error) {
	n := netsim.New()
	archs := map[string]*machine.Arch{
		churnMgrHost:     machine.SPARC,
		churnStandbyHost: machine.SGI,
		churnWorkers[0]:  machine.SGI,
		churnWorkers[1]:  machine.CrayYMP,
	}
	for h, a := range archs {
		if _, err := n.AddHost(h, a); err != nil {
			return nil, err
		}
	}
	n.SetDefaultLink(links.lan)
	for h := range archs {
		if h != churnWorkers[1] {
			n.SetLink(h, churnWorkers[1], links.gateway)
		}
	}
	n.SetLink(churnMgrHost, churnStandbyHost, links.standby)
	tr := schooner.NewSimTransport(n)
	reg := schooner.NewRegistry()
	if err := npssproc.RegisterAll(reg); err != nil {
		return nil, err
	}
	// The journals are files, as under schooner-manager -wal, so the
	// heap does not grow with the number of records written.
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return nil, err
	}
	e := &churnEnv{net: n, walDir: dir}
	if e.journal, err = openWAL(filepath.Join(dir, "leader")); err != nil {
		e.stop()
		return nil, err
	}
	if e.mgr, err = schooner.StartManagerConfig(tr, churnMgrHost, schooner.ManagerConfig{Journal: e.journal}); err != nil {
		e.journal.Close()
		e.stop()
		return nil, err
	}
	for _, h := range churnWorkers {
		srv, err := schooner.StartServer(tr, h, reg)
		if err != nil {
			e.stop()
			return nil, err
		}
		e.servers = append(e.servers, srv)
	}
	if e.standbyLog, err = openWAL(filepath.Join(dir, "standby")); err != nil {
		e.stop()
		return nil, err
	}
	e.standby = schooner.StartStandby(tr, churnStandbyHost, churnMgrHost, e.standbyLog, schooner.StandbyPolicy{})
	for c := 0; c < clients; c++ {
		e.clients = append(e.clients, &churnClient{
			client: &schooner.Client{Transport: tr, Host: churnMgrHost, ManagerHost: churnMgrHost, Managers: []string{churnStandbyHost}},
			from:   churnWorkers[c%2],
			to:     churnWorkers[(c+1)%2],
			rng:    rand.New(rand.NewSource(seed*7919 + int64(c))),
		})
	}
	for c := range e.clients {
		if err := e.unit(c); err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up iteration: %w", err)
		}
	}
	return e, nil
}

// unit is one line lifecycle: contact, start the duct procedure on one
// machine, import, cached calls, move it to the other machine, calls
// after the rebind, quit. Every result is compared with the in-process
// computation, and after the Move the Manager's name database must
// name the new machine.
func (e *churnEnv) unit(c int) error {
	cl := e.clients[c]
	var ot opTimer
	ot.start()
	ln, err := cl.client.ContactSchx(fmt.Sprintf("churn-%d", c))
	if err != nil {
		return err
	}
	ot.lap(opContact)
	if err := e.lifecycle(cl, ln, &ot); err != nil {
		_ = ln.IQuit() // best effort; the iteration already failed
		return err
	}
	ot.start()
	if err := ln.IQuit(); err != nil {
		return err
	}
	ot.lap(opQuit)
	e.mu.Lock()
	for op, d := range ot.lat {
		e.cpLat[op] = append(e.cpLat[op], d.Seconds())
	}
	e.mu.Unlock()
	return nil
}

// opTimer times the control-plane operations of one iteration.
type opTimer struct {
	t   time.Time
	lat [numCPOps]time.Duration
}

func (o *opTimer) start()     { o.t = time.Now() }
func (o *opTimer) lap(op int) { o.lat[op] = time.Since(o.t) }

func (e *churnEnv) lifecycle(cl *churnClient, ln *schooner.Line, ot *opTimer) error {
	ot.start()
	if err := ln.StartRemote(npssproc.DuctPath, cl.from); err != nil {
		return err
	}
	ot.lap(opStart)
	ot.start()
	if err := ln.Import(ductImport); err != nil {
		return err
	}
	ot.lap(opImport)
	if err := e.calls(cl, ln, (churnCalls+1)/2); err != nil {
		return err
	}
	ot.start()
	if err := ln.Move("duct", cl.to, false); err != nil {
		return err
	}
	ot.lap(opMove)
	bindings := e.mgr.NameBindings(ln.ID())
	if len(bindings) == 0 {
		return checkf("line %d has no name bindings after Move", ln.ID())
	}
	for name, host := range bindings {
		if host != cl.to {
			return checkf("after Move to %s the Manager binds %q to %s", cl.to, name, host)
		}
	}
	return e.calls(cl, ln, churnCalls/2)
}

// calls makes n duct calls with seeded arguments and checks each
// against the in-process duct computation.
func (e *churnEnv) calls(cl *churnClient, ln *schooner.Line, n int) error {
	for i := 0; i < n; i++ {
		r := cl.rng
		pup := 1.5e5 + 1.5e5*r.Float64()
		args := [5]float64{0.1 + 0.9*r.Float64(), pup, 400 + 500*r.Float64(), 0.03 * r.Float64(), pup * (0.9 + 0.08*r.Float64())}
		want, err := engine.DuctFlow(args[0], args[1], args[2], args[3], args[4])
		if err != nil {
			return fmt.Errorf("in-process duct: %w", err)
		}
		got, err := ln.Call("duct", uts.DoubleVal(args[0]), uts.DoubleVal(args[1]), uts.DoubleVal(args[2]), uts.DoubleVal(args[3]), uts.DoubleVal(args[4]))
		if err != nil {
			return err
		}
		if len(got) != 1 {
			return checkf("duct returned %d results, want 1", len(got))
		}
		d := math.Abs(got[0].F-want) / math.Max(math.Abs(want), 1e-12)
		e.mu.Lock()
		e.maxErr = math.Max(e.maxErr, d)
		e.mu.Unlock()
		if !(d <= churnTol) {
			return checkf("duct(%v) = %g remotely, %g in process", args, got[0].F, want)
		}
	}
	return nil
}

func (e *churnEnv) traffic() traffic {
	return countTraffic([]*netsim.Network{e.net}, standbyLink)
}

// openWAL opens a write-ahead log whose segments are files in dir.
func openWAL(dir string) (*wal.Log, error) {
	b, err := wal.NewFileBackend(dir)
	if err != nil {
		return nil, err
	}
	return wal.Open(b, wal.Options{})
}

func (e *churnEnv) stop() {
	for _, cl := range e.clients {
		cl.client.Close()
	}
	if e.standby != nil {
		e.standby.Stop()
	}
	if e.standbyLog != nil {
		e.standbyLog.Close() // nothing to keep: the directory goes next
	}
	if e.mgr != nil {
		e.mgr.Stop() // closes the journal
	}
	for _, s := range e.servers {
		s.Stop()
	}
	os.RemoveAll(e.walDir)
}
