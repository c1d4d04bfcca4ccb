package schooner

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"npss/internal/uts"
)

// settleConns polls the simulated network until the open-endpoint
// count stops changing and returns the settled value. Server-side
// endpoints close asynchronously (their serve goroutines notice the
// peer's close on the next receive), so an instantaneous reading right
// after teardown can still see them.
func settleConns(t *testing.T, d *deployment, want int, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	n := d.net.OpenConns()
	for n != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		n = d.net.OpenConns()
	}
	return n
}

// TestNoConnLeakAfterQuit churns a line with 64-way concurrent call
// traffic — pipelined calls, leased calls, and batches all at once —
// then quits the line and closes the client, and proves via the
// netsim endpoint accounting that every connection the churn opened is
// closed again: the pipelined conn, the leased pool, the batch server
// conns, and the manager conn.
func TestNoConnLeakAfterQuit(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))

	// Baseline: whatever standing infrastructure connections the
	// Manager and Servers keep among themselves.
	base := settleConns(t, d, 0, 500*time.Millisecond)

	c := &Client{Transport: d.tr, Host: "avs-sparc", ManagerHost: d.mgrHost}
	ln, err := c.ContactSchx("churn")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))

	const goroutines = 64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				var err error
				switch {
				case g%8 == 0:
					// A slice of the churn goes through host batches so
					// the client's shared server conns participate too.
					pends := c.GoBatchHosts([]CrossCall{
						{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(2)}},
						{Line: ln, Name: "add", Args: []uts.Value{uts.DoubleVal(3), uts.DoubleVal(4)}},
					})
					for _, p := range pends {
						if _, werr := p.Wait(); werr != nil {
							err = werr
						}
					}
				case g%8 == 1:
					pends := ln.GoBatch([]BatchCall{
						{Name: "add", Args: []uts.Value{uts.DoubleVal(1), uts.DoubleVal(2)}},
						{Name: "add", Args: []uts.Value{uts.DoubleVal(3), uts.DoubleVal(4)}},
					})
					for _, p := range pends {
						if _, werr := p.Wait(); werr != nil {
							err = werr
						}
					}
				default:
					_, err = ln.Call("add", uts.DoubleVal(float64(g)), uts.DoubleVal(float64(i)))
				}
				if err != nil {
					t.Errorf("churn goroutine %d iter %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if err := ln.IQuit(); err != nil {
		t.Fatalf("IQuit: %v", err)
	}
	c.Close()

	if got := settleConns(t, d, base, 2*time.Second); got != base {
		t.Errorf("%d connection endpoints still open after quit (baseline %d)", got, base)
	}
}

// TestLeasedPoolDrainedOnQuit runs the same leak check with
// pipelining disabled, so the leased idle pool — capped but nonempty
// after a burst — is what must be drained by the quit.
func TestLeasedPoolDrainedOnQuit(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	base := settleConns(t, d, 0, 500*time.Millisecond)

	c := &Client{Transport: d.tr, Host: "avs-sparc", ManagerHost: d.mgrHost}
	ln, err := c.ContactSchx("churn")
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
		t.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import add prog("a" val double, "b" val double, "sum" res double)`))
	ln.SetCallPolicy(CallPolicy{NoPipeline: true})

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := ln.Call("add", uts.DoubleVal(float64(g)), uts.DoubleVal(1)); err != nil {
				t.Errorf("leased call %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()

	// The burst must have left at most the cap in the pool.
	ln.mu.Lock()
	b := ln.bindings["add"]
	ln.mu.Unlock()
	if b != nil {
		b.mu.Lock()
		idle := len(b.idle)
		b.mu.Unlock()
		if idle > maxIdleConns {
			t.Errorf("idle pool %d exceeds cap %d", idle, maxIdleConns)
		}
	}

	if err := ln.IQuit(); err != nil {
		t.Fatalf("IQuit: %v", err)
	}
	c.Close()
	if got := settleConns(t, d, base, 2*time.Second); got != base {
		t.Errorf("%d connection endpoints still open after quit (baseline %d)", got, base)
	}
}

// TestServerForgetsStoppedProcesses: a Server drops each process from
// its table when the process stops, so 100 spawn/IQuit cycles leave
// the table empty instead of holding 100 dead processes.
func TestServerForgetsStoppedProcesses(t *testing.T) {
	d := newDeployment(t, "avs-sparc", ieeeHosts())
	d.reg.MustRegister(adderProgram("/npss/adder"))
	c := d.client("avs-sparc")
	for i := 0; i < 100; i++ {
		ln, err := c.ContactSchx(fmt.Sprintf("cycle-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ln.StartRemote("/npss/adder", "sgi-lerc"); err != nil {
			t.Fatal(err)
		}
		if err := ln.IQuit(); err != nil {
			t.Fatal(err)
		}
	}
	srv := d.servers["sgi-lerc"]
	tableSize := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.processes)
	}
	// A process stops just after acknowledging its shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for tableSize() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := tableSize(); n != 0 {
		t.Errorf("server still holds %d processes after 100 spawn/IQuit cycles", n)
	}
}
