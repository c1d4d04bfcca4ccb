package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"npss/internal/engine"
	"npss/internal/machine"
	"npss/internal/netsim"
	"npss/internal/npssproc"
	"npss/internal/schooner"
	"npss/internal/uts"
	"npss/internal/wire"
)

// unitCosts are the per-operation costs of single layers, each measured
// in isolation on the shaft call's signature.
type unitCosts struct {
	utsEncNS, utsDecNS     float64 // arguments and results of one call
	convCrayNS, convIEEENS float64 // arguments and results of one call
	wireEncNS, wireDecNS   float64 // the request and reply frames of one call
	wireBytes              float64 // bytes of those two frames
	sendRecvNS             float64 // one message over a zero-delay link
	callP50US, callTailUS  float64 // Line.Call over zero-delay links
	callTailPct            float64
	callN                  int
	engineEvalUS           float64 // one local Engine.Eval
	mgrUS                  [numCPOps]float64
	walAppendUS            float64
	recordsPerCPOp         float64
}

var shaftImport = uts.MustParseProc(`import shaft prog(
	"ecom" val array[4] of double, "incom" val integer,
	"etur" val array[4] of double, "intur" val integer,
	"ecorr" val double, "xspool" val double, "xmyi" val double,
	"dxspl" res double)`)

func shaftArgs() []uts.Value {
	return []uts.Value{
		uts.DoubleArray(1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleArray(1.1e6, 0, 0, 0), uts.MustInt(1),
		uts.DoubleVal(1), uts.DoubleVal(1000), uts.DoubleVal(9),
	}
}

// probe is one timed operation and where its cost is stored.
type probe struct {
	into *float64
	fn   func() error
}

// nsPerOp times fn: batches of about 5 ms, reporting the median batch's
// mean in nanoseconds, so a stray pause does not move the figure.
func nsPerOp(fn func() error) (float64, error) {
	n := 0
	for start := time.Now(); time.Since(start) < 2*time.Millisecond; n++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	per := make([]float64, 9)
	for b := range per {
		start := time.Now()
		for i := 0; i < 2*n+1; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(2*n+1)
	}
	return median(per), nil
}

// probeUnitCosts measures every layer's unit cost.
func probeUnitCosts(seed int64) (*unitCosts, error) {
	u := &unitCosts{}
	args := shaftArgs()
	results := []uts.Value{uts.DoubleVal(1234.5)}
	ins, outs := shaftImport.InParams(), shaftImport.OutParams()
	argBytes, err := uts.EncodeParams(nil, ins, args)
	if err != nil {
		return nil, err
	}
	resBytes, err := uts.EncodeParams(nil, outs, results)
	if err != nil {
		return nil, err
	}
	var buf []byte
	steps := []probe{
		{&u.utsEncNS, func() (err error) {
			if buf, err = uts.EncodeParams(buf[:0], ins, args); err == nil {
				buf, err = uts.EncodeParams(buf[:0], outs, results)
			}
			return err
		}},
		{&u.utsDecNS, func() error {
			if _, err := uts.DecodeParams(argBytes, ins); err != nil {
				return err
			}
			_, err := uts.DecodeParams(resBytes, outs)
			return err
		}},
		{&u.convCrayNS, convert(machine.CrayYMP, args, results)},
		{&u.convIEEENS, convert(machine.SGI, args, results)},
	}
	req := &wire.Message{Kind: wire.KCall, Seq: 1, Line: 1, Name: "shaft", Data: argBytes}
	rep := &wire.Message{Kind: wire.KReply, Seq: 1, Line: 1, Data: resBytes}
	reqFrame, err := req.Encode(nil)
	if err != nil {
		return nil, err
	}
	repFrame, err := rep.Encode(nil)
	if err != nil {
		return nil, err
	}
	u.wireBytes = float64(len(reqFrame) + len(repFrame))
	steps = append(steps,
		probe{&u.wireEncNS, func() (err error) {
			if buf, err = req.Encode(buf[:0]); err == nil {
				buf, err = rep.Encode(buf[:0])
			}
			return err
		}},
		probe{&u.wireDecNS, func() error {
			if _, err := wire.DecodeMessage(reqFrame); err != nil {
				return err
			}
			_, err := wire.DecodeMessage(repFrame)
			return err
		}},
	)
	for _, s := range steps {
		if *s.into, err = nsPerOp(s.fn); err != nil {
			return nil, err
		}
	}
	if u.sendRecvNS, err = probeSendRecv(req); err != nil {
		return nil, fmt.Errorf("netsim probe: %w", err)
	}
	if err := probeCall(u); err != nil {
		return nil, fmt.Errorf("call probe: %w", err)
	}
	eng, err := engine.NewF100(engine.DefaultF100())
	if err != nil {
		return nil, err
	}
	dx := make([]float64, engine.NumStates)
	ns, err := nsPerOp(func() error {
		_, err := eng.Eval(0, eng.DesignState, dx)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("engine probe: %w", err)
	}
	u.engineEvalUS = ns / 1e3
	if err := probeControlPlane(u, seed); err != nil {
		return nil, fmt.Errorf("control-plane probe: %w", err)
	}
	return u, nil
}

// convert is one call's native conversions on the server's
// architecture: the arguments in, the results out.
func convert(a *machine.Arch, args, results []uts.Value) func() error {
	return func() error {
		for _, v := range args {
			if _, err := a.NativeRoundTrip(v); err != nil {
				return err
			}
		}
		for _, v := range results {
			if _, err := a.NativeRoundTrip(v); err != nil {
				return err
			}
		}
		return nil
	}
}

// zeroNet is a two-host simulated network whose links add no delay.
func zeroNet() *netsim.Network {
	n := netsim.New()
	n.MustAddHost("ws", machine.SPARC)
	n.MustAddHost("remote", machine.SGI)
	n.SetDefaultLink(zeroDelay)
	return n
}

// probeSendRecv times one Send/Recv pair on a zero-delay link.
func probeSendRecv(m *wire.Message) (float64, error) {
	n := zeroNet()
	remote, err := n.Host("remote")
	if err != nil {
		return 0, err
	}
	l, err := remote.Listen("probe")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	ws, err := n.Host("ws")
	if err != nil {
		return 0, err
	}
	client, err := ws.Dial(l.Addr())
	if err != nil {
		return 0, err
	}
	defer client.Close()
	server, err := l.Accept()
	if err != nil {
		return 0, err
	}
	defer server.Close()
	return nsPerOp(func() error {
		if err := client.Send(m); err != nil {
			return err
		}
		_, err := server.Recv()
		return err
	})
}

// probeCall times Line.Call of the shaft procedure over zero-delay
// links, one call at a time.
func probeCall(u *unitCosts) error {
	n := zeroNet()
	tr := schooner.NewSimTransport(n)
	reg := schooner.NewRegistry()
	if err := npssproc.RegisterAll(reg); err != nil {
		return err
	}
	mgr, err := schooner.StartManager(tr, "ws")
	if err != nil {
		return err
	}
	defer mgr.Stop()
	srv, err := schooner.StartServer(tr, "remote", reg)
	if err != nil {
		return err
	}
	defer srv.Stop()
	client := &schooner.Client{Transport: tr, Host: "ws", ManagerHost: "ws"}
	defer client.Close()
	ln, err := client.ContactSchx("probe")
	if err != nil {
		return err
	}
	defer ln.IQuit()
	if err := ln.StartRemote(npssproc.ShaftPath, "remote"); err != nil {
		return err
	}
	if err := ln.Import(shaftImport); err != nil {
		return err
	}
	args := shaftArgs()
	var lat []float64
	for start := time.Now(); time.Since(start) < 300*time.Millisecond || len(lat) < 1000; {
		t := time.Now()
		if _, err := ln.Call("shaft", args...); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
	}
	lat = lat[100:] // the first calls fill the binding cache and pools
	sort.Float64s(lat)
	u.callP50US = median(lat)
	u.callTailUS, u.callTailPct = tailOf(lat)
	u.callN = len(lat)
	return nil
}

// probeControlPlane times the control-plane operations of the
// lines-churn iteration on zero-delay links with one client, and the
// journal append beneath them, to a file-backed log as lines-churn's.
func probeControlPlane(u *unitCosts, seed int64) error {
	e, err := setupChurn(seed, 1, zeroLinks)
	if err != nil {
		return err
	}
	defer e.stop()
	before := e.layers().cpOps // the warm-up iteration's
	seq0 := e.journal.LastSeq()
	iters := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond || iters < 50; iters++ {
		if err := e.unit(0); err != nil {
			return err
		}
	}
	for op, lat := range e.layers().cpOps {
		u.mgrUS[op] = median(lat[len(before[op]):]) * 1e6
	}
	u.recordsPerCPOp = float64(e.journal.LastSeq()-seq0) / float64(iters*numCPOps)

	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := openWAL(dir)
	if err != nil {
		return err
	}
	defer log.Close()
	payload := make([]byte, 96)
	ns, err := nsPerOp(func() error {
		_, err := log.Append(payload)
		return err
	})
	u.walAppendUS = ns / 1e3
	return err
}
