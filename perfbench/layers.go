package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"npss/internal/critpath"
	"npss/internal/trace"
)

// envLayers are a workload's own per-layer readings.
type envLayers struct {
	maxRelErr   float64             // largest deviation seen so far
	newtonIters int                 // balance iterations per run; 0 without a solver
	crayShare   float64             // share of calls served by Cray-format machines
	cpOps       [numCPOps][]float64 // latencies since set-up, in seconds, in order
}

func (e *table2Env) layers() envLayers {
	e.mu.Lock()
	defer e.mu.Unlock()
	return envLayers{maxRelErr: e.maxErr, newtonIters: e.iters, crayShare: e.crayShare}
}

func (e *churnEnv) layers() envLayers {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ops [numCPOps][]float64
	for op, lat := range e.cpLat {
		ops[op] = append([]float64(nil), lat...)
	}
	// The two clients start on opposite machines and swap them at the
	// Move, so half the calls go to the Cray.
	return envLayers{maxRelErr: e.maxErr, crayShare: 0.5, cpOps: ops}
}

// critTotals accumulates critical-path profiles over the traced phase.
type critTotals struct {
	critical time.Duration
	buckets  map[string]time.Duration
	spans    int
	dropped  int64
}

func (c *critTotals) add(p *critpath.Profile) {
	if c.buckets == nil {
		c.buckets = map[string]time.Duration{}
	}
	c.critical += p.Total.CriticalPath
	for b, d := range p.Total.Buckets {
		c.buckets[b] += d
	}
	c.spans += p.Spans
	c.dropped += p.Dropped
}

// runTraced is the per-layer run: the unit costs of single layers, an
// untraced phase for the workload's layer counts, and a traced phase
// whose spans give the critical-path buckets. Both phases run one unit
// at a time, so their latencies compare like for like.
func runTraced(w workload, seed int64, window time.Duration) (*report, error) {
	u, err := probeUnitCosts(seed)
	if err != nil {
		return nil, fmt.Errorf("unit-cost probes: %w", err)
	}
	e, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.stop()
	r := newReport(w.name)

	before := e.layers()
	plain := measure(w, e, window/2, func() {})
	lay := e.layers()

	var crit critTotals
	rec := trace.NewRecorder()
	trace.SetRecorder(rec)
	trace.Reset()
	last := e.traffic()
	traced := measure(w, e, window/2, func() {
		now := e.traffic()
		crit.add(critpath.Analyze(rec.Spans(), linkIO(now.minus(last)), rec.Dropped()))
		last = now
		rec = trace.NewRecorder()
		trace.SetRecorder(rec)
	})
	trace.SetRecorder(nil)
	callHist := trace.GlobalHistogram("schooner.client.call")

	r.Attempted = plain.units + traced.units
	r.Failed = plain.failed + traced.failed
	for _, p := range []*phase{plain, traced} {
		if err := p.check(w); err != nil {
			r.Correct = false
			r.note("output check failed: %v", err)
		}
	}

	r.add("uts.encode_ns", u.utsEncNS, "ns", "arguments and results of one shaft call")
	r.add("uts.decode_ns", u.utsDecNS, "ns", "arguments and results of one shaft call")
	r.add("machine.convert_ns.cray", u.convCrayNS, "ns", "NativeRoundTrip of one shaft call's values")
	r.add("machine.convert_ns.ieee", u.convIEEENS, "ns", "NativeRoundTrip of one shaft call's values")
	r.add("wire.encode_ns", u.wireEncNS, "ns", "request and reply frames")
	r.add("wire.decode_ns", u.wireDecNS, "ns", "request and reply frames")
	r.add("wire.bytes_per_call", u.wireBytes, "bytes", "request and reply frames")
	r.add("netsim.sendrecv_ns", u.sendRecvNS, "ns", "one message, zero-delay link")
	r.add("schooner.call_p50_us", u.callP50US, "us", fmt.Sprintf("Line.Call, zero-delay links, n=%d", u.callN))
	r.add("schooner.call_tail_us", u.callTailUS, "us", tailNote(u.callTailPct, u.callN))
	r.add("engine.eval_us", u.engineEvalUS, "us", "local Engine.Eval at the design point")
	for op, name := range cpOpNames {
		if op == opImport {
			continue // local to the client; its latency is in cp_op_*
		}
		r.add("schooner.mgr."+name+"_us", u.mgrUS[op], "us", "median, zero-delay links")
	}
	r.add("wal.append_us", u.walAppendUS, "us", "96-byte record, file-backed log without fsync")
	r.add("wal.records_per_cp_op", u.recordsPerCPOp, "count", "journal records per control-plane operation")

	runs := float64(plain.units)
	calls := float64(plain.calls) / runs
	msgs := float64(plain.traffic.msgs) / runs
	r.add("schooner.calls_per_rpc", float64(plain.calls)/math.Max(1, float64(plain.rpcs)), "ratio", "useful calls per round trip")
	r.add("netsim.msgs_per_run", msgs, "count", "")
	r.add("netsim.bytes_per_run", float64(plain.traffic.bytes)/runs, "bytes", "")
	r.add("solver.newton_iters", float64(lay.newtonIters), "count", "balance iterations per run; 0 when the workload runs no solver")
	r.add("schooner.retries", float64(plain.retries), "count", "in the untraced phase")
	r.add("schooner.call_failures", float64(plain.callFailures), "count", "in the untraced phase")
	r.add("netsim.dropped", float64(plain.traffic.dropped), "count", "in the untraced phase")
	r.add("max_rel_err", lay.maxRelErr, "ratio", "largest deviation from the in-process result")
	r.add("failed_ratio", float64(r.Failed)/math.Max(1, float64(r.Attempted)), "ratio", fmt.Sprintf("%d failed of %d attempted", r.Failed, r.Attempted))
	// The untraced phase's operations are those recorded after set-up.
	var cp []float64
	for op, lat := range lay.cpOps {
		cp = append(cp, lat[len(before.cpOps[op]):]...)
	}
	sort.Float64s(cp)
	cpTail, cpPct := tailOf(cp)
	r.add("cp_ops_per_s", float64(len(cp))/plain.elapsed.Seconds(), "1/s", "contact, start, import, move and quit; 0 when the workload makes none while measured")
	r.add("cp_op_p50_ms", median(cp)*1e3, "ms", fmt.Sprintf("n=%d", len(cp)))
	r.add("cp_op_tail_ms", cpTail*1e3, "ms", tailNote(cpPct, len(cp)))

	// The ledger: each codec and transport layer's unit cost times its
	// count per run.
	runP50 := median(plain.latencies)
	terms := []struct {
		name string
		s    float64
	}{
		{"uts", calls * (u.utsEncNS + u.utsDecNS) * 1e-9},
		{"machine", calls * (u.convIEEENS + lay.crayShare*u.convCrayNS + (1-lay.crayShare)*u.convIEEENS) * 1e-9},
		{"wire", msgs * (u.wireEncNS + u.wireDecNS) / 2 * 1e-9},
		{"netsim", msgs * u.sendRecvNS * 1e-9},
	}
	sum := 0.0
	for _, t := range terms {
		sum += t.s
		r.note("ledger %-8s %12.6f s per run", t.name, t.s)
	}
	r.note("ledger sum      %12.6f s per run beside run_p50_s %.6f s (%.1f%%)", sum, runP50, 100*sum/runP50)
	r.add("layers.sum_s", sum, "s", fmt.Sprintf("%.0f calls, %.0f messages per run", calls, msgs))
	r.add("layers.unexplained_s", runP50-sum, "s", "untraced run_p50_s minus layers.sum_s")

	n := float64(traced.units)
	r.add("critpath.critical_s", crit.critical.Seconds()/n, "s", fmt.Sprintf("per unit, %d spans, %d dropped", crit.spans, crit.dropped))
	for _, b := range []string{critpath.Network, critpath.Queueing, critpath.Compute, critpath.Conversion} {
		r.add("critpath."+b+"_s", crit.buckets[b].Seconds()/n, "s", "per unit")
	}
	r.add("schooner.client.call_p50_us", float64(callHist.Quantile(0.5).Nanoseconds())/1e3, "us", fmt.Sprintf("schooner.client.call histogram, traced phase, n=%d", callHist.Count()))
	tracedP50 := median(traced.latencies)
	r.add("trace.overhead_ratio", tracedP50/runP50, "ratio", fmt.Sprintf("traced run_p50_s %.6f s over untraced %.6f s", tracedP50, runP50))
	return r, nil
}

// linkIO converts the link counters to the analyzer's shape.
func linkIO(t traffic) map[string]critpath.LinkIO {
	out := make(map[string]critpath.LinkIO, len(t.links))
	for name, s := range t.links {
		out[name] = critpath.LinkIO{Messages: s.Messages, Bytes: s.Bytes, Delay: s.SimDelay, Dropped: s.Dropped}
	}
	return out
}
