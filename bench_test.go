package npss

// The benchmark suite regenerates the paper's evaluation artifacts
// (one benchmark per table and figure) and quantifies the ablations
// indexed in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Table/figure benches report, besides ns/op, the experiment's own
// metrics: rpcs/op (RPC count per simulation run) and simnet-ms/op
// (simulated network time per run), which carry the paper's
// latency-dominated cost structure: local Ethernet < multiple
// gateways < Internet for identical RPC counts.

import (
	"fmt"
	"testing"

	"npss/internal/core"
	"npss/internal/engine"
	"npss/internal/exper"
	"npss/internal/machine"
	"npss/internal/msgpass"
	"npss/internal/netsim"
	"npss/internal/schooner"
	"npss/internal/solver"
	"npss/internal/trace"
	"npss/internal/uts"
)

// benchSpec keeps the per-iteration simulation small: a balance plus a
// 50 ms throttle transient.
func benchSpec() exper.RunSpec {
	return exper.RunSpec{Transient: 0.05, Step: 5e-4, Throttle: true}
}

// benchSpecTimed is the spec for the sequential-vs-parallel Table 2
// comparison: shorter transient, but the simulated network actually
// sleeps 1% of its delays, so ns/op reflects the network shape and the
// overlap of the parallel scheduler is visible as wall clock.
func benchSpecTimed() exper.RunSpec {
	return exper.RunSpec{Transient: 0.02, Step: 5e-4, Throttle: true, TimeScale: 0.01}
}

// runRemoteBench measures repeated executive runs with the given
// placements on a fresh testbed.
func runRemoteBench(b *testing.B, avs string, placements map[string]string) {
	runRemoteBenchSpec(b, avs, placements, benchSpec())
}

func runRemoteBenchSpec(b *testing.B, avs string, placements map[string]string, spec exper.RunSpec) {
	b.Helper()
	tb, err := exper.NewTestbed(avs)
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Stop()
	tb.Net.SetTimeScale(spec.TimeScale)
	exec, err := tb.NewExecutive()
	if err != nil {
		b.Fatal(err)
	}
	defer exec.Destroy()
	if err := exec.Network.SetParam(core.InstSystem, "transient seconds", spec.Transient); err != nil {
		b.Fatal(err)
	}
	if err := exec.Network.SetParam(core.InstSystem, "time step", spec.Step); err != nil {
		b.Fatal(err)
	}
	sched := fmt.Sprintf("0:1.48, %g:1.33", spec.Transient/10)
	if err := exec.Network.SetParam(core.InstComb, "fuel schedule", sched); err != nil {
		b.Fatal(err)
	}
	for inst, m := range placements {
		if err := exec.SetRemote(inst, m, ""); err != nil {
			b.Fatal(err)
		}
	}
	opts := core.RunOptions{Parallel: spec.Parallel || spec.Batch, Batch: spec.Batch}
	// Warm up (starts the lines).
	if _, err := exec.Run(opts); err != nil {
		b.Fatal(err)
	}
	tb.Net.ResetStats()
	rpcs0 := trace.Get("schooner.client.rpcs")
	calls0 := trace.Get("schooner.client.calls")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// rpcs/op counts wire round trips — what batching saves; calls/op
	// counts procedure invocations — invariant under batching.
	rpcs := trace.Get("schooner.client.rpcs") - rpcs0
	calls := trace.Get("schooner.client.calls") - calls0
	b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/op")
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
	b.ReportMetric(float64(tb.Net.TotalSimDelay().Milliseconds())/float64(b.N), "simnet-ms/op")
}

// BenchmarkTable1 regenerates the paper's Table 1: one sub-benchmark
// per machine/network combination, each with one adapted module
// computing remotely.
func BenchmarkTable1(b *testing.B) {
	for _, c := range exper.Table1Combos() {
		name := fmt.Sprintf("%s_to_%s", c.AVS, c.Remote)
		b.Run(name, func(b *testing.B) {
			runRemoteBench(b, c.AVS, map[string]string{c.Module: c.Remote})
		})
	}
}

// BenchmarkTable2_Combined regenerates the paper's Table 2: the
// simulation on the Arizona Sparc with six remote computations across
// both sites, each RPC issued sequentially as the original NPSS did.
// Uses the timed spec so its wall clock is directly comparable to
// BenchmarkTable2_Parallel.
func BenchmarkTable2_Combined(b *testing.B) {
	spec := benchSpecTimed()
	runRemoteBenchSpec(b, exper.SparcUA, exper.Table2Placements(), spec)
}

// BenchmarkTable2_Parallel is the same workload with overlapped module
// calls: wavefront network execution plus concurrent adapted-hook RPCs
// via Line.Go. Per pass the wall clock approaches the slowest
// dependency chain (bleed -> combustor -> mixer -> nozzle) instead of
// the sum of all six remote calls.
func BenchmarkTable2_Parallel(b *testing.B) {
	spec := benchSpecTimed()
	spec.Parallel = true
	runRemoteBenchSpec(b, exper.SparcUA, exper.Table2Placements(), spec)
}

// BenchmarkTable2_Batched is the parallel workload with same-host call
// coalescing on top: the two shaft calls per evaluation pass ride one
// KBatch envelope to the RS/6000, and within each Newton iteration's
// Jacobian wavefront every remote call site sends all 16 columns'
// calls as one KBatch, so rpcs/op drops from the parallel path's 1416
// to 505 at identical calls/op — and identical simulation results.
func BenchmarkTable2_Batched(b *testing.B) {
	spec := benchSpecTimed()
	spec.Batch = true
	runRemoteBenchSpec(b, exper.SparcUA, exper.Table2Placements(), spec)
}

// BenchmarkTableBaseline_AllLocal is the local-compute-only reference
// for Tables 1 and 2.
func BenchmarkTableBaseline_AllLocal(b *testing.B) {
	runRemoteBench(b, exper.SparcUA, nil)
}

// BenchmarkFig1_ControlTransfer runs the Figure 1 program: sequential
// cross-machine control transfer with an encapsulated parallel
// procedure.
func BenchmarkFig1_ControlTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exper.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_NetworkBuild constructs the F100 network of Figure 2
// in the Network Editor.
func BenchmarkFig2_NetworkBuild(b *testing.B) {
	tb, err := exper.NewTestbed(exper.SparcUA)
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec, err := tb.NewExecutive()
		if err != nil {
			b.Fatal(err)
		}
		exec.Destroy()
	}
}

// --- Schooner microbenchmarks ---

type rpcRig struct {
	tb   *exper.Testbed
	line *schooner.Line
	args []uts.Value
}

func newRPCRig(b *testing.B, remote string) *rpcRig {
	b.Helper()
	tb, err := exper.NewTestbed(exper.SparcLerc)
	if err != nil {
		b.Fatal(err)
	}
	client := &schooner.Client{Transport: tb.Tr, Host: exper.SparcLerc, ManagerHost: exper.SparcLerc}
	ln, err := client.ContactSchx("bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := ln.StartRemote("/npss/npss-shaft", remote); err != nil {
		b.Fatal(err)
	}
	if err := ln.Import(uts.MustParseProc(`import shaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" val double, "xspool" val double, "xmyi" val double,
		"dxspl" res double)`)); err != nil {
		b.Fatal(err)
	}
	args := []uts.Value{
		uts.DoubleArray(1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleArray(1.1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleVal(1), uts.DoubleVal(1000), uts.DoubleVal(9),
	}
	rig := &rpcRig{tb: tb, line: ln, args: args}
	if _, err := ln.Call("shaft", args...); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ln.IQuit()
		tb.Stop()
	})
	return rig
}

// BenchmarkRPC_ShaftCall measures one full Schooner call (marshal,
// native conversion, simulated network, dispatch, reply) to an
// IEEE-format machine on the local Ethernet.
func BenchmarkRPC_ShaftCall(b *testing.B) {
	rig := newRPCRig(b, exper.SGI480Lerc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.line.Call("shaft", rig.args...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPC_ShaftCallCray is the same call against the Cray
// formats: the added cost is the non-IEEE native conversion.
func BenchmarkRPC_ShaftCallCray(b *testing.B) {
	rig := newRPCRig(b, exper.CrayLerc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rig.line.Call("shaft", rig.args...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPC_OverTCP runs the call over real loopback TCP sockets
// instead of the in-process simulated network.
func BenchmarkRPC_OverTCP(b *testing.B) {
	tr := schooner.NewTCPTransport(map[string]*machine.Arch{
		"ws": machine.SPARC, "remote": machine.SGI,
	})
	reg := schooner.NewRegistry()
	reg.MustRegister(&schooner.Program{
		Path: "/bench/echo", Language: schooner.LangC,
		Build: func() (*schooner.Instance, error) {
			p := &schooner.BoundProc{
				Spec: uts.MustParseProc(`export echo prog("x" val double, "y" res double)`),
				Fn: func(in []uts.Value) ([]uts.Value, error) {
					return []uts.Value{uts.DoubleVal(in[0].F)}, nil
				},
			}
			return schooner.NewInstance(p)
		},
	})
	mgr, err := schooner.StartManager(tr, "ws")
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Stop()
	srv, err := schooner.StartServer(tr, "remote", reg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Stop()
	client := &schooner.Client{Transport: tr, Host: "ws", ManagerHost: "ws"}
	ln, err := client.ContactSchx("bench-tcp")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.IQuit()
	if err := ln.StartRemote("/bench/echo", "remote"); err != nil {
		b.Fatal(err)
	}
	ln.Import(uts.MustParseProc(`import echo prog("x" val double, "y" res double)`))
	if _, err := ln.Call("echo", uts.DoubleVal(1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ln.Call("echo", uts.DoubleVal(float64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigration_Move measures a full migration: shut down the
// procedure process, respawn on the other machine, update the mapping
// tables, and recover the caller's stale cache on the next call.
func BenchmarkMigration_Move(b *testing.B) {
	rig := newRPCRig(b, exper.SGI480Lerc)
	targets := []string{exper.RS6000Lerc, exper.SGI480Lerc}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rig.line.Move("shaft", targets[i%2], false); err != nil {
			b.Fatal(err)
		}
		if _, err := rig.line.Call("shaft", rig.args...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLines_RegisterQuit measures line churn against the
// persistent Manager: register, start a remote procedure, call, quit.
func BenchmarkLines_RegisterQuit(b *testing.B) {
	tb, err := exper.NewTestbed(exper.SparcLerc)
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Stop()
	client := &schooner.Client{Transport: tb.Tr, Host: exper.SparcLerc, ManagerHost: exper.SparcLerc}
	imp := uts.MustParseProc(`import setduct prog(
		"wdes" val double, "pdes" val double, "tdes" val double,
		"fardes" val double, "dpdes" val double, "xkd" res double)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ln, err := client.ContactSchx("churn")
		if err != nil {
			b.Fatal(err)
		}
		if err := ln.StartRemote("/npss/npss-duct", exper.SGI480Lerc); err != nil {
			b.Fatal(err)
		}
		ln.Import(imp)
		if _, err := ln.Call("setduct", uts.DoubleVal(40), uts.DoubleVal(3e5),
			uts.DoubleVal(450), uts.DoubleVal(0), uts.DoubleVal(1e4)); err != nil {
			b.Fatal(err)
		}
		if err := ln.IQuit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLines_Lookup measures a Manager name lookup as the number
// of live lines grows: the cost of the per-line-database design
// (DESIGN.md decision 3). Each measured call flushes the client cache
// so every iteration pays one Manager lookup.
func BenchmarkLines_Lookup(b *testing.B) {
	for _, lines := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			tb, err := exper.NewTestbed(exper.SparcLerc)
			if err != nil {
				b.Fatal(err)
			}
			defer tb.Stop()
			client := &schooner.Client{Transport: tb.Tr, Host: exper.SparcLerc, ManagerHost: exper.SparcLerc}
			imp := uts.MustParseProc(`import setduct prog(
				"wdes" val double, "pdes" val double, "tdes" val double,
				"fardes" val double, "dpdes" val double, "xkd" res double)`)
			var last *schooner.Line
			for i := 0; i < lines; i++ {
				ln, err := client.ContactSchx(fmt.Sprintf("bulk-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				defer ln.IQuit()
				if err := ln.StartRemote("/npss/npss-duct", exper.SGI480Lerc); err != nil {
					b.Fatal(err)
				}
				ln.Import(imp)
				last = ln
			}
			call := func() error {
				_, err := last.Call("setduct", uts.DoubleVal(40), uts.DoubleVal(3e5),
					uts.DoubleVal(450), uts.DoubleVal(0), uts.DoubleVal(1e4))
				return err
			}
			if err := call(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last.FlushCache()
				if err := call(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks (DESIGN.md A1..A3) ---

// BenchmarkAblation_RPCvsMsgPass compares the Schooner RPC path with
// the PVM-style message-passing baseline for the same computation.
func BenchmarkAblation_RPCvsMsgPass(b *testing.B) {
	b.Run("SchoonerRPC", func(b *testing.B) {
		rig := newRPCRig(b, exper.SGI480Lerc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rig.line.Call("shaft", rig.args...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MsgPass", func(b *testing.B) {
		net := netsim.New()
		net.MustAddHost("a", machine.SPARC)
		net.MustAddHost("c", machine.SGI)
		tr := schooner.NewSimTransport(net)
		worker, err := msgpass.Spawn(tr, "c", "w")
		if err != nil {
			b.Fatal(err)
		}
		defer worker.Close()
		go func() {
			for {
				_, buf, err := worker.Recv(1)
				if err != nil {
					return
				}
				ecom, _ := buf.UnpackFloats()
				etur, _ := buf.UnpackFloats()
				ecorr, _ := buf.UnpackFloat64()
				xspool, _ := buf.UnpackFloat64()
				xmyi, _ := buf.UnpackFloat64()
				var pc, pt float64
				for _, v := range ecom {
					pc += v
				}
				for _, v := range etur {
					pt += v
				}
				worker.Send("a", "m", 2, msgpass.NewBuffer().PackFloat64(ecorr*(pt-pc)/(xmyi*xspool)))
			}
		}()
		master, err := msgpass.Spawn(tr, "a", "m")
		if err != nil {
			b.Fatal(err)
		}
		defer master.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf := msgpass.NewBuffer().
				PackFloats([]float64{1e6, 0, 0, 0}).
				PackFloats([]float64{1.1e6, 0, 0, 0}).
				PackFloat64(1).PackFloat64(1000).PackFloat64(9)
			if err := master.Send("c", "w", 1, buf); err != nil {
				b.Fatal(err)
			}
			if _, _, err := master.Recv(2); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_NameCache compares the client name cache with
// asking the Manager on every call.
func BenchmarkAblation_NameCache(b *testing.B) {
	b.Run("Cached", func(b *testing.B) {
		rig := newRPCRig(b, exper.SGI480Lerc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rig.line.Call("shaft", rig.args...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AskManagerEveryCall", func(b *testing.B) {
		rig := newRPCRig(b, exper.SGI480Lerc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rig.line.FlushCache()
			if _, err := rig.line.Call("shaft", rig.args...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_UTSvsNative compares marshaling through the UTS
// intermediate representation with a raw copy of the same bytes.
func BenchmarkAblation_UTSvsNative(b *testing.B) {
	spec := uts.MustParseProc(`import shaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" val double, "xspool" val double, "xmyi" val double,
		"dxspl" res double)`)
	ins := spec.InParams()
	args := []uts.Value{
		uts.DoubleArray(1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleArray(1.1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleVal(1), uts.DoubleVal(1000), uts.DoubleVal(9),
	}
	encoded, err := uts.EncodeParams(nil, ins, args)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("UTS", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, err = uts.EncodeParams(buf[:0], ins, args)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := uts.DecodeParams(buf, ins); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NativeCopy", func(b *testing.B) {
		dst := make([]byte, len(encoded))
		mid := make([]byte, len(encoded))
		for i := 0; i < b.N; i++ {
			copy(mid, encoded)
			copy(dst, mid)
		}
	})
}

// --- Substrate benchmarks ---

// BenchmarkUTS_EncodeShaftArgs isolates the marshal cost of the
// paper's shaft argument list.
func BenchmarkUTS_EncodeShaftArgs(b *testing.B) {
	spec := uts.MustParseProc(`import shaft prog(
		"ecom" val array[4] of double, "incom" val integer,
		"etur" val array[4] of double, "intur" val integer,
		"ecorr" val double, "xspool" val double, "xmyi" val double,
		"dxspl" res double)`)
	ins := spec.InParams()
	args := []uts.Value{
		uts.DoubleArray(1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleArray(1.1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleVal(1), uts.DoubleVal(1000), uts.DoubleVal(9),
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = uts.EncodeParams(buf[:0], ins, args)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUTS_ParseShaftSpec measures specification parsing (done
// once per bind in the runtime, so cheap enough to cache).
func BenchmarkUTS_ParseShaftSpec(b *testing.B) {
	src := `export shaft prog(
		"ecom" val array[4] of float, "incom" val integer,
		"etur" val array[4] of float, "intur" val integer,
		"ecorr" val float, "xspool" val float, "xmyi" val float,
		"dxspl" res float)`
	for i := 0; i < b.N; i++ {
		if _, err := uts.ParseProc(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachine_CrayRoundTrip measures the non-IEEE native format
// conversion of one double.
func BenchmarkMachine_CrayRoundTrip(b *testing.B) {
	v := uts.DoubleVal(3.14159265358979)
	for i := 0; i < b.N; i++ {
		if _, err := machine.CrayYMP.NativeRoundTrip(v); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine benchmarks ---

// BenchmarkEngine_Eval measures one full algebraic pass of the TESS
// engine (all components, local hooks).
func BenchmarkEngine_Eval(b *testing.B) {
	e, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		b.Fatal(err)
	}
	x := append([]float64(nil), e.DesignState...)
	dx := make([]float64, engine.NumStates)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Eval(0, x, dx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_NewtonBalance measures a full steady-state balance
// from the design state after a 5% throttle change.
func BenchmarkEngine_NewtonBalance(b *testing.B) {
	e, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		b.Fatal(err)
	}
	e.Fuel = engine.Constant(0.95 * e.DesignFuel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := append([]float64(nil), e.DesignState...)
		if _, _, err := e.Balance(x, engine.SteadyOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_TransientStep measures one Modified Euler step of
// the engine transient (two component-sweep evaluations).
func BenchmarkEngine_TransientStep(b *testing.B) {
	e, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		b.Fatal(err)
	}
	x := append([]float64(nil), e.DesignState...)
	integ, err := solver.New(solver.ModifiedEuler)
	if err != nil {
		b.Fatal(err)
	}
	sys := e.System()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := integ.Step(sys, 0, x, 5e-4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine_StageStackMap measures generating a zoomed
// component's map from the stage-stacking model.
func BenchmarkEngine_StageStackMap(b *testing.B) {
	s := engine.DefaultStageStack()
	speeds := []float64{0.5, 0.7, 0.9, 1.0, 1.1}
	for i := 0; i < b.N; i++ {
		if _, err := s.GenerateMap("bench", speeds, 9); err != nil {
			b.Fatal(err)
		}
	}
}
