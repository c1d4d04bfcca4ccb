package schooner

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"npss/internal/machine"
	"npss/internal/trace"
	"npss/internal/uts"
	"npss/internal/wire"
)

// stressPolicy gives the concurrency tests a generous retry budget:
// Move and FlushCache deliberately make bindings stale under the
// callers' feet, and every caller must ride the rebind path through.
func stressPolicy() CallPolicy {
	return CallPolicy{
		Timeout:    250 * time.Millisecond,
		MaxRetries: 30,
		Backoff:    time.Millisecond,
		MaxBackoff: 5 * time.Millisecond,
	}
}

// TestConcurrentCallsOneLine is the race-stress regression for the
// lock restructuring: many goroutines hammer one line with synchronous
// calls, asynchronous calls, and cache flushes, all while the race
// detector watches. Before the fix, l.mu serialized every call across
// its full round trip; now the calls overlap and must still all return
// correct answers.
func TestConcurrentCallsOneLine(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("stress")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	ln.SetCallPolicy(stressPolicy())

	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				a, b := float64(g), float64(i)
				var out []uts.Value
				var err error
				switch i % 4 {
				case 0, 1:
					out, err = ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
				case 2:
					out, err = ln.Go("add", uts.DoubleVal(a), uts.DoubleVal(b)).Wait()
				case 3:
					ln.FlushCache()
					out, err = ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
				}
				if err != nil {
					errs <- err
					return
				}
				if out[0].F != a+b {
					t.Errorf("goroutine %d call %d = %g, want %g", g, i, out[0].F, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent call failed: %v", err)
	}
}

// TestConcurrentCallsAcrossMoves keeps a mover relocating the
// procedure between two machines while callers hammer it: every caller
// must recover through the stale-cache rebind protocol, concurrently.
func TestConcurrentCallsAcrossMoves(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	ln, err := d.client("avs-sparc").ContactSchx("stress")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	ln.SetCallPolicy(stressPolicy())

	stalesBefore := trace.Get("schooner.client.stale")
	var stop atomic.Bool
	var moves atomic.Int64
	var moverWG sync.WaitGroup
	moverWG.Add(1)
	go func() {
		defer moverWG.Done()
		homes := []string{"rs6000", "sgi-lerc"}
		for i := 0; !stop.Load(); i++ {
			if err := ln.Move("add", homes[i%2], false); err != nil {
				t.Errorf("move %d: %v", i, err)
				return
			}
			moves.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Callers run until several moves have landed (pipelined calls are
	// fast enough that a fixed iteration count can finish before the
	// first move), with a floor so every goroutine does real work.
	const goroutines = 6
	const minIters = 20
	const minMoves = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < minIters || moves.Load() < minMoves; i++ {
				a, b := float64(g), float64(i)
				out, err := ln.Call("add", uts.DoubleVal(a), uts.DoubleVal(b))
				if err != nil {
					t.Errorf("goroutine %d call %d failed across moves: %v", g, i, err)
					return
				}
				if out[0].F != a+b {
					t.Errorf("goroutine %d call %d = %g, want %g", g, i, out[0].F, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	moverWG.Wait()
	if trace.Get("schooner.client.stale") == stalesBefore {
		t.Error("no stale bindings detected despite concurrent moves")
	}
}

// TestConcurrentLinesOneClient opens several lines through one client
// and drives them from separate goroutines — the paper's "multiple
// independent threads of control" executing truly independently.
func TestConcurrentLinesOneClient(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	c := d.client("avs-sparc")

	const lines = 4
	var wg sync.WaitGroup
	for n := 0; n < lines; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			ln, err := c.ContactSchx("m")
			if err != nil {
				t.Errorf("line %d: %v", n, err)
				return
			}
			defer ln.IQuit()
			if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
				t.Errorf("line %d: %v", n, err)
				return
			}
			ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
			ln.SetCallPolicy(stressPolicy())
			for i := 0; i < 20; i++ {
				out, err := ln.Call("add", uts.DoubleVal(float64(n)), uts.DoubleVal(float64(i)))
				if err != nil {
					t.Errorf("line %d call %d: %v", n, i, err)
					return
				}
				if out[0].F != float64(n+i) {
					t.Errorf("line %d call %d = %g", n, i, out[0].F)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// TestGoOverlapsCalls pins the point of the async API: two calls to a
// procedure that sleeps on the (simulated, time-scaled) wire overlap
// instead of paying two sequential round trips.
func TestGoOverlapsCalls(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	// Sleep 30% of the simulated per-message delay so wall clock
	// reflects the wire.
	d.net.SetTimeScale(0.3)
	defer d.net.SetTimeScale(0)
	ln, err := d.client("avs-sparc").ContactSchx("m")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	// Bind once so the measured section is pure calls.
	if _, err := ln.Call("add", uts.DoubleVal(0), uts.DoubleVal(0)); err != nil {
		t.Fatal(err)
	}

	seqStart := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := ln.Call("add", uts.DoubleVal(1), uts.DoubleVal(2)); err != nil {
			t.Fatal(err)
		}
	}
	seq := time.Since(seqStart)

	parStart := time.Now()
	var ps []*Pending
	for i := 0; i < 4; i++ {
		ps = append(ps, ln.Go("add", uts.DoubleVal(1), uts.DoubleVal(2)))
	}
	for _, p := range ps {
		out, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out[0].F != 3 {
			t.Fatalf("async result = %g", out[0].F)
		}
	}
	par := time.Since(parStart)

	// Four overlapped calls should take well under four sequential
	// ones; allow slack for scheduler noise.
	if par > seq*3/4 {
		t.Errorf("async calls did not overlap: sequential %v, concurrent %v", seq, par)
	}
}

// pipeProcess runs a process of prog serving one connection over an
// in-memory pipe. It returns the caller's end and a channel closed
// when the process's serve loop returns.
func pipeProcess(t *testing.T, prog *Program) (*process, wire.Conn, <-chan struct{}) {
	t.Helper()
	inst, err := prog.Build()
	if err != nil {
		t.Fatal(err)
	}
	arch, err := machine.ByName("sparc")
	if err != nil {
		t.Fatal(err)
	}
	p := &process{host: "sparc", arch: arch, program: prog, instance: inst,
		sigCache: make(map[string]*uts.ProcSpec), done: make(chan struct{})}
	caller, callee := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		p.serve(wire.NewStreamConn(callee, "caller"))
	}()
	return p, wire.NewStreamConn(caller, "process"), served
}

// waitClosed fails the test unless ch closes within a generous bound.
func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still waiting after 5s", what)
	}
}

// gateProgram exports gate, whose body signals entered and then waits
// for release: a server-side barrier holding one request in dispatch.
func gateProgram(entered, release chan struct{}) *Program {
	return &Program{
		Path:     "/test/gate",
		Language: LangC,
		Build: func() (*Instance, error) {
			return NewInstance(&BoundProc{
				Spec: uts.MustParseProc(`export gate prog("x" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					entered <- struct{}{}
					<-release
					return []uts.Value{uts.DoubleVal(1)}, nil
				},
			})
		},
	}
}

// gateCall is a KCall of gate.
func gateCall(seq uint32) *wire.Message {
	imp := uts.MustParseProc(`import gate prog("x" res double)`)
	return &wire.Message{Kind: wire.KCall, Seq: seq, Name: "gate", Str: imp.Signature()}
}

// TestConcurrentDispatchOverlapsPipelinedRequests: while a pipelined
// request is held inside its procedure body, a second request on the
// same connection is dispatched and answered, and the first then
// completes. Later rounds run on workers the first round left idle.
func TestConcurrentDispatchOverlapsPipelinedRequests(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	_, conn, served := pipeProcess(t, gateProgram(entered, release))
	defer func() {
		conn.Close()
		waitClosed(t, served, "serve after close")
	}()
	for round := uint32(0); round < 3; round++ {
		if err := conn.Send(gateCall(10*round + 1)); err != nil {
			t.Fatal(err)
		}
		<-entered // request 1 is inside its body
		if err := conn.Send(&wire.Message{Kind: wire.KPing, Seq: 10*round + 2}); err != nil {
			t.Fatal(err)
		}
		m, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.KPong || m.Seq != 10*round+2 {
			t.Fatalf("round %d: first reply %v seq %d, want the ping's pong while the gate is held", round, m.Kind, m.Seq)
		}
		release <- struct{}{}
		if m, err = conn.Recv(); err != nil {
			t.Fatal(err)
		}
		if m.Kind != wire.KReply || m.Seq != 10*round+1 {
			t.Fatalf("round %d: second reply %v seq %d (%s), want the gate's reply", round, m.Kind, m.Seq, m.Err)
		}
	}
}

// TestConcurrentDispatchWorkersEndWithConn: closing the connection
// ends every dispatch worker it started — idle ones at once, and one
// still inside a procedure body as soon as that body returns.
func TestConcurrentDispatchWorkersEndWithConn(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	p, conn, served := pipeProcess(t, gateProgram(entered, release))
	for seq := uint32(1); seq <= 4; seq++ {
		if err := conn.Send(&wire.Message{Kind: wire.KPing, Seq: seq}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Send(gateCall(5)); err != nil {
		t.Fatal(err)
	}
	<-entered
	conn.Close()
	waitClosed(t, served, "serve after close")
	release <- struct{}{}
	workersDone := make(chan struct{})
	go func() {
		p.workers.Wait()
		close(workersDone)
	}()
	waitClosed(t, workersDone, "dispatch workers after close")
}
