package schooner

import (
	"fmt"
	"sync"
	"time"

	"npss/internal/flight"
	"npss/internal/machine"
	"npss/internal/trace"
	"npss/internal/tseries"
	"npss/internal/uts"
	"npss/internal/wire"
)

// ErrProcessTerminated is the exact error text a stopped procedure
// process answers with; the client library treats it (and transport
// failures) as a stale binding and re-asks the Manager. Application
// errors are never matched against it, so a procedure whose own error
// mentions "terminated" cannot trigger a spurious retry.
const ErrProcessTerminated = "schooner: procedure process terminated"

// process is a running instantiation of a Program on some host: the
// Schooner runtime's procedure process. It owns a listener, serves
// KCall/KStateGet/KStatePut/KShutdown, and marshals all data through
// the host architecture's native representation so that heterogeneity
// (precision, range, byte order) is exercised on every call.
type process struct {
	host     string
	arch     *machine.Arch
	program  *Program
	instance *Instance
	listener Listener

	mu sync.Mutex // serializes calls within this instance
	// sigCache caches parsed import signatures per procedure so the
	// per-call signature text is parsed once.
	sigCache map[string]*uts.ProcSpec

	// workers counts the dispatch workers of every connection.
	workers sync.WaitGroup

	onStop   func(*process)
	stopOnce sync.Once
	done     chan struct{}
}

// startProcess instantiates a program on a host and begins serving.
// onStop, when non-nil, runs once as the process stops.
func startProcess(t Transport, host string, prog *Program, onStop func(*process)) (*process, error) {
	arch, err := t.HostArch(host)
	if err != nil {
		return nil, err
	}
	inst, err := prog.Build()
	if err != nil {
		return nil, fmt.Errorf("schooner: building %q: %w", prog.Path, err)
	}
	l, err := t.Listen(host, "")
	if err != nil {
		return nil, err
	}
	p := &process{
		host:     host,
		arch:     arch,
		program:  prog,
		instance: inst,
		listener: l,
		sigCache: make(map[string]*uts.ProcSpec),
		onStop:   onStop,
		done:     make(chan struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// addr returns the process's dialable address.
func (p *process) addr() string { return p.listener.Addr() }

// stop terminates the process.
func (p *process) stop() {
	p.stopOnce.Do(func() {
		close(p.done)
		p.listener.Close()
		if p.onStop != nil {
			p.onStop(p)
		}
	})
}

func (p *process) stopped() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *process) acceptLoop() {
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return
		}
		go p.serve(conn)
	}
}

// serve reads requests off one connection and hands each to a
// dispatch worker, so a pipelined caller's in-flight requests overlap
// and replies return in completion order (the caller matches them by
// Seq). A worker that finishes a request stays on as an idle worker of
// the connection; a request starts a new one only when none is idle,
// so steady traffic reuses goroutines whose stacks have already grown
// to the dispatch path's depth. Procedure bodies still serialize on
// p.mu; the concurrency covers the marshaling halves and the reply
// ordering. KShutdown stays in the read loop because it ends the
// conversation.
func (p *process) serve(conn wire.Conn) {
	defer conn.Close()
	var sendMu sync.Mutex
	reply := func(req, resp *wire.Message) {
		resp.Seq = req.Seq
		// A failed reply means the connection died; the caller's
		// receive will fail and recovery happens on its side.
		sendMu.Lock()
		_ = conn.Send(resp)
		sendMu.Unlock()
	}
	// Unbuffered: a send succeeds only when a worker is idle. Closing
	// it when serve returns ends every worker once its request is done.
	work := make(chan *wire.Message)
	defer close(work)
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if p.stopped() {
			reply(m, &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated})
			return
		}
		if m.Kind == wire.KShutdown {
			reply(m, &wire.Message{Kind: wire.KShutdownOK})
			p.stop()
			return
		}
		select {
		case work <- m:
		default:
			p.workers.Add(1)
			go p.work(m, work, reply)
		}
	}
}

// work is a dispatch worker of one connection: it replies to m, then
// to each request handed to it while idle, until the connection's
// serve loop returns.
func (p *process) work(m *wire.Message, work <-chan *wire.Message, reply func(req, resp *wire.Message)) {
	defer p.workers.Done()
	for ; m != nil; m = <-work {
		reply(m, p.dispatch(m))
	}
}

// dispatch computes the reply for one request. It is the entry point
// both for requests read off a connection and for batch sub-requests a
// Server fans out in-memory; the caller assigns the reply Seq.
func (p *process) dispatch(m *wire.Message) *wire.Message {
	if p.stopped() {
		return &wire.Message{Kind: wire.KError, Err: ErrProcessTerminated}
	}
	switch m.Kind {
	case wire.KCall:
		return p.handleCall(m)
	case wire.KStateGet:
		return p.handleStateGet(m)
	case wire.KStatePut:
		return p.handleStatePut(m)
	case wire.KBatch:
		return p.dispatchBatch(m)
	case wire.KPing:
		return &wire.Message{Kind: wire.KPong}
	case wire.KMetrics:
		return metricsReply()
	case wire.KSeries:
		return seriesReply()
	case wire.KProfile:
		return profileReply()
	case wire.KFlightDump:
		return &wire.Message{Kind: wire.KFlightDumpOK, Data: []byte(flight.DumpString())}
	default:
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: procedure process cannot handle %v", m.Kind)}
	}
}

// dispatchBatch runs a batch envelope's sub-requests in order — batches
// may carry calls to stateful procedures, so sub-request order is
// execution order — and returns one KBatchOK with a reply sub-frame per
// sub-request. Address tags are ignored: a batch sent directly to a
// process is already at its destination.
func (p *process) dispatchBatch(env *wire.Message) *wire.Message {
	// Replies are roughly request-sized; start at the envelope's size
	// to avoid growth reallocations. Sub-frames are walked in place
	// rather than split into a slice first.
	data := make([]byte, 0, len(env.Data))
	for rest := env.Data; len(rest) > 0; {
		sub, r, err := wire.SplitSub(rest)
		if err != nil {
			return &wire.Message{Kind: wire.KError, Err: err.Error()}
		}
		rest = r
		resp := p.dispatch(sub.Msg)
		resp.Seq = sub.Msg.Seq
		if data, err = wire.AppendSub(data, "", resp); err != nil {
			return &wire.Message{Kind: wire.KError, Err: err.Error()}
		}
	}
	trace.Count("schooner.proc.batches")
	return &wire.Message{Kind: wire.KBatchOK, Data: data}
}

// importSpec resolves the caller's import signature for a procedure:
// either the cached parse or the signature text carried on the call.
func (p *process) importSpec(name, sig string) (*uts.ProcSpec, error) {
	key := name + "\x00" + sig
	p.mu.Lock()
	cached, ok := p.sigCache[key]
	p.mu.Unlock()
	if ok {
		return cached, nil
	}
	if sig == "" {
		return nil, fmt.Errorf("schooner: call to %q carries no signature", name)
	}
	spec, err := uts.ParseProc("import " + name + " " + sig)
	if err != nil {
		return nil, fmt.Errorf("schooner: bad signature on call to %q: %w", name, err)
	}
	p.mu.Lock()
	p.sigCache[key] = spec
	p.mu.Unlock()
	return spec, nil
}

func (p *process) handleCall(m *wire.Message) *wire.Message {
	// Remote half of the call's span tree: a traced request parents a
	// dispatch span on this host, with children for the decode half of
	// the conversion, the procedure body, and the encode half.
	var dispatch *trace.Span
	if m.Trace != 0 {
		dispatch = trace.StartChild(trace.SpanContext{Trace: m.Trace, Span: m.Span},
			"dispatch "+m.Name, p.host)
		defer dispatch.End()
	}
	flight.Record(flight.Event{Kind: flight.KindDispatch, Component: "process",
		Host: p.host, Line: m.Line, Trace: m.Trace, Span: m.Span, Name: m.Name})
	bp := p.instance.Find(m.Name, p.program.Language)
	if bp == nil {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: no procedure %q in %s", m.Name, p.program.Path)}
	}
	var decode *trace.Span
	if dispatch != nil {
		decode = dispatch.Child("decode", p.host)
	}
	imp, err := p.importSpec(m.Name, m.Str)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	// The import may be a subset of the export; re-verify here (the
	// Manager checked at bind time, but a direct caller could lie).
	if err := uts.CheckImport(imp, bp.Spec); err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	sent, err := uts.DecodeParams(m.Data, imp.InParams())
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	// Assemble the full in-parameter list of the export: parameters
	// omitted by a subset import take their zero values.
	byName := make(map[string]uts.Value, len(sent))
	for i, prm := range imp.InParams() {
		byName[prm.Name] = sent[i]
	}
	var in []uts.Value
	for _, prm := range bp.Spec.InParams() {
		if v, ok := byName[prm.Name]; ok {
			in = append(in, v)
		} else {
			in = append(in, uts.Zero(prm.Type))
		}
	}
	// Convert incoming values into this machine's native formats: the
	// UTS-to-native half of the conversion, with its range errors.
	for i := range in {
		nv, err := p.arch.NativeRoundTrip(in[i])
		if err != nil {
			return &wire.Message{Kind: wire.KError,
				Err: fmt.Sprintf("schooner: converting parameter to %s native format: %v", p.arch.Name, err)}
		}
		in[i] = nv
	}
	decode.End()

	// One line is sequential; distinct lines may call concurrently
	// into a shared procedure, so serialize at the instance.
	var body *trace.Span
	var bodyStart time.Time
	enabled := trace.Enabled()
	if enabled {
		if dispatch != nil {
			body = dispatch.Child("proc "+m.Name, p.host)
		}
		bodyStart = time.Now()
	}
	p.mu.Lock()
	out, err := bp.Fn(in)
	p.mu.Unlock()
	if enabled {
		d := time.Since(bodyStart)
		body.End()
		trace.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "proc", Value: m.Name}), d)
		trace.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "host", Value: p.host}), d)
		if tseries.Enabled() {
			ctx := body.Context()
			if ctx.Trace == 0 {
				ctx = trace.SpanContext{Trace: m.Trace, Span: m.Span}
			}
			tseries.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "proc", Value: m.Name}), d, ctx.Trace, ctx.Span)
			tseries.Observe(trace.LKey("schooner.proc.call", trace.Label{Key: "host", Value: p.host}), d, ctx.Trace, ctx.Span)
		}
	}
	trace.Count("schooner.proc.calls")
	if err != nil {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: %s: %v", m.Name, err)}
	}
	exportOut := bp.Spec.OutParams()
	if len(out) != len(exportOut) {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: %s returned %d results, export declares %d", m.Name, len(out), len(exportOut))}
	}
	// Native-to-UTS conversion of results, then keep only the
	// out-parameters the import asked for, in import order.
	var encode *trace.Span
	if dispatch != nil {
		encode = dispatch.Child("encode", p.host)
	}
	outByName := make(map[string]uts.Value, len(out))
	for i, prm := range exportOut {
		nv, err := p.arch.NativeRoundTrip(out[i])
		if err != nil {
			return &wire.Message{Kind: wire.KError,
				Err: fmt.Sprintf("schooner: converting result %q from %s native format: %v", prm.Name, p.arch.Name, err)}
		}
		outByName[prm.Name] = nv
	}
	impOut := imp.OutParams()
	results := make([]uts.Value, len(impOut))
	for i, prm := range impOut {
		results[i] = outByName[prm.Name]
	}
	data, err := uts.EncodeParams(nil, impOut, results)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	encode.End()
	return &wire.Message{Kind: wire.KReply, Data: data}
}

// stateFor finds the bound procedure by name and checks it supports
// state transfer.
func (p *process) stateFor(name string) (*BoundProc, error) {
	bp := p.instance.Find(name, p.program.Language)
	if bp == nil {
		return nil, fmt.Errorf("schooner: no procedure %q in %s", name, p.program.Path)
	}
	if bp.GetState == nil {
		return nil, fmt.Errorf("schooner: procedure %q is stateless (no state clause)", name)
	}
	return bp, nil
}

func (p *process) handleStateGet(m *wire.Message) *wire.Message {
	bp, err := p.stateFor(m.Name)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	p.mu.Lock()
	vals, err := bp.GetState()
	p.mu.Unlock()
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	params := stateParams(bp.Spec)
	data, err := uts.EncodeParams(nil, params, vals)
	if err != nil {
		return &wire.Message{Kind: wire.KError,
			Err: fmt.Sprintf("schooner: state of %q does not match its state clause: %v", m.Name, err)}
	}
	return &wire.Message{Kind: wire.KStateOK, Data: data}
}

func (p *process) handleStatePut(m *wire.Message) *wire.Message {
	bp, err := p.stateFor(m.Name)
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	vals, err := uts.DecodeParams(m.Data, stateParams(bp.Spec))
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	p.mu.Lock()
	err = bp.SetState(vals)
	p.mu.Unlock()
	if err != nil {
		return &wire.Message{Kind: wire.KError, Err: err.Error()}
	}
	return &wire.Message{Kind: wire.KStatePutOK}
}

// stateParams views a spec's state clause as a parameter list for
// marshaling.
func stateParams(s *uts.ProcSpec) []uts.Param {
	params := make([]uts.Param, len(s.State))
	for i, f := range s.State {
		params[i] = uts.Param{Name: f.Name, Mode: uts.Var, Type: f.Type}
	}
	return params
}
