// Command perfbench is the repository benchmark. It deploys one named
// workload, drives it in a closed loop for a fixed wall-clock window,
// checks every output, and prints each end-to-end metric by name and
// unit. With -trace 1 it prints the per-layer metrics instead: the unit
// costs of the codec and transport layers, the layer counts of an
// untraced phase, the critical-path buckets of a traced phase, and the
// layer ledger. The last line of standard output is one JSON object.
//
// Run it from the repository root through the wrapper, which builds it
// inside the checkout:
//
//	bash perfbench/run.sh --workload table2-cpu --seed 1 --seconds 25 --trace 0
//
// It drives the system only through the public functions of its
// packages; every timing is taken around those calls in this
// directory's files.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"npss/internal/netsim"
	"npss/internal/trace"
)

// env is one deployed workload: clients that each run units of work in
// a closed loop, over simulated networks whose traffic is counted.
type env interface {
	// unit runs one unit of work on client c and checks its output.
	unit(c int) error
	// traffic sums the counted traffic of the workload's networks.
	traffic() traffic
	// layers reports the workload's own per-layer readings.
	layers() envLayers
	// stop tears the deployment down.
	stop()
}

// workload names a benchmark workload and how to deploy it.
type workload struct {
	name    string
	clients int
	// callsPerUnit is the fixed number of procedure calls one unit of
	// work makes; the window's call count is checked against it.
	callsPerUnit int64
	// heapUnits, when not 0, ends the heap-peak sample after that many
	// units of a window, so the peak does not depend on how many units
	// the window holds.
	heapUnits int64
	// setup deploys the workload and finishes its warm-up.
	setup func(seed int64) (env, error)
}

var workloads = []workload{table2WAN, table2CPU, linesChurn}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// checkError marks a wrong output, as opposed to an operation that
// failed to complete.
type checkError struct{ msg string }

func (e *checkError) Error() string { return e.msg }

func checkf(format string, args ...any) error {
	return &checkError{fmt.Sprintf(format, args...)}
}

// deployments is how many fresh deployments an untraced run measures
// in turn, each for an equal share of the window. A deployment's
// goroutine placement shifts its speed by several percent, so pooling
// several steadies the run's figures; setup_s is their median set-up
// time.
const deployments = 5

// tailSamples is how many samples each deployment needs before
// run_tail_s is taken per deployment rather than over the pooled
// samples: with 100, each deployment's tail is at least its p90.
const tailSamples = 100

func main() {
	name := flag.String("workload", "", "workload name: table2-wan, table2-cpu or lines-churn")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 25, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of table2-wan, table2-cpu, lines-churn), -seconds >= 1 and -trace 0 or 1\n")
		os.Exit(2)
	}
	window := time.Duration(*seconds) * time.Second
	var out *report
	var err error
	if *traced == 1 {
		out, err = runTraced(w, *seed, window)
	} else {
		out, err = runPlain(w, *seed, window)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out.print(os.Stdout)
	if !out.Correct {
		os.Exit(1)
	}
}

// report is the benchmark's result: the human-readable metric lines and
// the closing JSON object.
type report struct {
	workload  string
	lines     []string
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(name string) *report {
	return &report{workload: name, Correct: true, Metrics: map[string]metric{}}
}

// add records a metric; note, when not empty, is printed beside it.
func (r *report) add(name string, value float64, unit, note string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
	line := fmt.Sprintf("%s %-28s %14.6g %s", r.workload, name, value, unit)
	if note != "" {
		line += "  (" + note + ")"
	}
	r.lines = append(r.lines, line)
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, r.workload+" # "+fmt.Sprintf(format, args...))
}

func (r *report) print(f *os.File) {
	for _, l := range r.lines {
		fmt.Fprintln(f, l)
	}
	data, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(data))
}

// phase is the outcome of one measured window.
type phase struct {
	units, failed int64
	checkErr      error     // the first failed output check
	failErr       error     // the first unit that failed to complete
	latencies     []float64 // seconds per successful unit
	elapsed       time.Duration
	calls, rpcs   int64
	retries       int64
	callFailures  int64
	traffic       traffic
	allocs        uint64
	heapPeak      uint64
	heapUnits     int64 // units the heap-peak sample covers
}

// measure runs every client in a closed loop until the window closes,
// then waits for each client's unit in flight. Counter deltas cover
// exactly the units counted. With after set, the clients instead take
// turns, one unit in flight at a time, and after runs between units:
// the traced run analyzes each unit's spans there, so no unit's spans
// overlap another's.
func measure(w workload, e env, window time.Duration, after func()) *phase {
	p := &phase{}
	runtime.GC() // set-up garbage does not count toward the heap peak
	calls0, rpcs0 := trace.Get("schooner.client.calls"), trace.Get("schooner.client.rpcs")
	retries0, cf0 := trace.Get("schooner.client.retries"), trace.Get("schooner.client.call_failures")
	tr0 := e.traffic()
	heap := startHeapSampler()
	allocs0 := readAllocs()
	var mu sync.Mutex
	record := func(d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		p.units++
		var ce *checkError
		switch {
		case errors.As(err, &ce):
			p.failed++
			if p.checkErr == nil {
				p.checkErr = err
			}
		case err != nil:
			p.failed++
			if p.failErr == nil {
				p.failErr = err
			}
		default:
			p.latencies = append(p.latencies, d.Seconds())
		}
		if p.units == w.heapUnits {
			p.heapPeak, p.heapUnits = heap.stop(), p.units
		}
	}
	start := time.Now()
	deadline := start.Add(window)
	runOne := func(c int) {
		// A container span brackets the unit, so the analyzer treats
		// it as one phase (nil when tracing is off).
		sp := trace.StartSpan("phase "+w.name, "perfbench")
		t := time.Now()
		err := e.unit(c)
		d := time.Since(t)
		sp.End()
		record(d, err)
	}
	if after == nil {
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					runOne(c)
				}
			}(c)
		}
		wg.Wait()
	} else {
		for c := 0; time.Now().Before(deadline); c = (c + 1) % w.clients {
			runOne(c)
			after()
		}
	}
	p.elapsed = time.Since(start)
	p.allocs = readAllocs() - allocs0
	if p.heapUnits == 0 {
		p.heapPeak, p.heapUnits = heap.stop(), p.units
	}
	p.calls = trace.Get("schooner.client.calls") - calls0
	p.rpcs = trace.Get("schooner.client.rpcs") - rpcs0
	p.retries = trace.Get("schooner.client.retries") - retries0
	p.callFailures = trace.Get("schooner.client.call_failures") - cf0
	p.traffic = e.traffic().minus(tr0)
	sort.Float64s(p.latencies)
	return p
}

// check applies the window-level output checks: a failed output check
// in any unit, a unit that failed to complete (its output cannot be
// checked, and the workloads are chosen so that none fails), and the
// fixed per-unit call count.
func (p *phase) check(w workload) error {
	if p.checkErr != nil {
		return p.checkErr
	}
	if p.failErr != nil {
		return fmt.Errorf("%d of %d units failed; the first: %w", p.failed, p.units, p.failErr)
	}
	if p.calls != p.units*w.callsPerUnit {
		return checkf("%d calls in %d units, want %d per unit", p.calls, p.units, w.callsPerUnit)
	}
	return nil
}

// runPlain is the untraced run: it reports every end-to-end metric.
func runPlain(w workload, seed int64, window time.Duration) (*report, error) {
	r := newReport(w.name)
	// Rates and peaks are taken per deployment and reported as their
	// median, so one disturbed deployment does not move them; latencies
	// and counts are pooled. So is the tail, unless every deployment
	// has tailSamples or more: then each deployment's tail is at least
	// its p90, and the run reports their median, as a pooled tail of
	// thousands of samples lies among the host's rare stalls.
	var setups, rates, peaks, latencies, tails, pcts []float64
	minSamples := math.MaxInt
	var units, failed, calls, rpcs, heapUnits int64
	var allocs uint64
	var simDelay time.Duration
	for i := 0; i < deployments; i++ {
		start := time.Now()
		e, err := w.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		q := measure(w, e, window/deployments, nil)
		e.stop()
		if err := q.check(w); err != nil && r.Correct {
			r.Correct = false
			r.note("output check failed: %v", err)
		}
		units, failed, calls, rpcs = units+q.units, failed+q.failed, calls+q.calls, rpcs+q.rpcs
		allocs += q.allocs
		simDelay += q.traffic.simDelay
		latencies = append(latencies, q.latencies...)
		rates = append(rates, float64(q.calls)/q.elapsed.Seconds())
		tail, pct := tailOf(q.latencies)
		tails, pcts = append(tails, tail), append(pcts, pct)
		minSamples = min(minSamples, len(q.latencies))
		peaks = append(peaks, float64(q.heapPeak)/(1<<20))
		heapUnits += q.heapUnits
	}
	r.Attempted, r.Failed = units, failed
	perUnit := func(v float64) float64 { return v / math.Max(1, float64(units)) }
	perDeployment := fmt.Sprintf("median over %d deployments", deployments)
	sort.Float64s(latencies)
	tail, pct := tailOf(latencies)
	tailDesc := tailNote(pct, len(latencies))
	if minSamples >= tailSamples {
		tail = median(tails)
		tailDesc = fmt.Sprintf("%s of each one's p%.4g; at least %d samples each, %d in all", perDeployment, median(pcts), minSamples, len(latencies))
	}
	r.add("setup_s", median(setups), "s", perDeployment)
	r.add("run_p50_s", median(latencies), "s", fmt.Sprintf("n=%d", len(latencies)))
	r.add("run_tail_s", tail, "s", tailDesc)
	r.add("calls_per_s", median(rates), "1/s", fmt.Sprintf("%s; %d calls in all", perDeployment, calls))
	r.add("rpcs_per_run", perUnit(float64(rpcs)), "count", fmt.Sprintf("%d round trips in %d units", rpcs, units))
	r.add("simnet_s_per_run", perUnit(simDelay.Seconds()), "s", "")
	r.add("allocs_per_call", float64(allocs)/math.Max(1, float64(calls)), "count", "")
	heapNote := perDeployment + " of each one's peak"
	if w.heapUnits > 0 {
		heapNote += fmt.Sprintf(" over its first %d units; %d units sampled in all", w.heapUnits, heapUnits)
	}
	r.add("heap_peak_mb", median(peaks), "MiB", heapNote)
	r.note("attempted=%d failed=%d", units, failed)
	return r, nil
}

// traffic is the counted traffic of a workload's simulated networks.
type traffic struct {
	msgs, bytes, dropped int64
	simDelay             time.Duration
	links                map[string]netsim.LinkStats
}

func (t traffic) minus(o traffic) traffic {
	d := traffic{
		msgs: t.msgs - o.msgs, bytes: t.bytes - o.bytes, dropped: t.dropped - o.dropped,
		simDelay: t.simDelay - o.simDelay, links: map[string]netsim.LinkStats{},
	}
	for name, s := range t.links {
		b := o.links[name]
		d.links[name] = netsim.LinkStats{
			Messages: s.Messages - b.Messages, Bytes: s.Bytes - b.Bytes,
			SimDelay: s.SimDelay - b.SimDelay, Dropped: s.Dropped - b.Dropped,
		}
	}
	return d
}

// countTraffic sums the links of the given networks, skipping links
// named in exclude (background traffic that no unit of work causes).
func countTraffic(nets []*netsim.Network, exclude string) traffic {
	t := traffic{links: map[string]netsim.LinkStats{}}
	for _, n := range nets {
		for name, s := range n.Stats() {
			if name == exclude {
				continue
			}
			t.msgs += s.Messages
			t.bytes += s.Bytes
			t.dropped += s.Dropped
			t.simDelay += s.SimDelay
			agg := t.links[name]
			agg.Messages += s.Messages
			agg.Bytes += s.Bytes
			agg.SimDelay += s.SimDelay
			agg.Dropped += s.Dropped
			t.links[name] = agg
		}
	}
	return t
}

// --- statistics ---

func median(sorted []float64) float64 {
	s := append([]float64(nil), sorted...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailOf returns the highest percentile of the sorted samples that has
// at least ten samples beyond it, and that percentile. With fewer than
// eleven samples no such percentile exists and the maximum is returned
// as percentile 100.
func tailOf(sorted []float64) (float64, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

func tailNote(pct float64, n int) string {
	if n < 11 {
		return fmt.Sprintf("maximum: only n=%d samples", n)
	}
	return fmt.Sprintf("p%.4g, n=%d, 10 samples beyond", pct, n)
}

// --- heap and allocation counters ---

func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler records the peak live-object heap size while it runs.
type heapSampler struct {
	done   chan struct{}
	peak   chan uint64
	once   sync.Once
	result uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{}), peak: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-tick.C:
			case <-h.done:
				h.peak <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak; later calls return it again.
func (h *heapSampler) stop() uint64 {
	h.once.Do(func() {
		close(h.done)
		h.result = <-h.peak
	})
	return h.result
}
