package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"npss/internal/core"
	"npss/internal/dst"
	"npss/internal/trace"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkReport asserts that the report prints exactly the listed
// metrics, each with a well-formed name and the listed unit, and that
// every metric line names one of them.
func checkReport(t *testing.T, r *report, want []jsonMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
	}
	for name, m := range r.Metrics {
		if !namePattern.MatchString(name) {
			t.Errorf("%s: metric name %q does not match %s", r.workload, name, namePattern)
		}
		unit, ok := units[name]
		if !ok {
			t.Errorf("%s: printed metric %q is not in BENCHMARK.json", r.workload, name)
		} else if unit != m.Unit {
			t.Errorf("%s: metric %q printed in %q, BENCHMARK.json says %q", r.workload, name, m.Unit, unit)
		}
	}
	for name := range units {
		if _, ok := r.Metrics[name]; !ok {
			t.Errorf("%s: BENCHMARK.json metric %q was not printed", r.workload, name)
		}
	}
	for _, line := range r.lines {
		fields := strings.Fields(line)
		if len(fields) < 2 || fields[1] == "#" {
			continue
		}
		if _, ok := units[fields[1]]; !ok {
			t.Errorf("%s: line %q names no BENCHMARK.json metric", r.workload, line)
		}
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", r.workload, r.Correct, r.Attempted, r.Failed)
	}
}

// TestPrintedNamesInBenchmarkJSON runs every workload briefly, untraced
// and traced, and checks each printed name against BENCHMARK.json.
func TestPrintedNamesInBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := loadBenchmarkJSON(t)
	var listed, built []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		built = append(built, w.name)
	}
	sort.Strings(listed)
	sort.Strings(built)
	if strings.Join(listed, ",") != strings.Join(built, ",") {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %v", listed, built)
	}
	for _, w := range workloads {
		plain, err := runPlain(w, 1, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkReport(t, plain, b.EndToEnd)
		for _, m := range b.EndToEnd {
			if v := plain.Metrics[m.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, m.Name, v)
			}
		}
		traced, err := runTraced(w, 1, 2*time.Second)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkReport(t, traced, b.PerLayer)
	}
}

// TestLegacyContinuity runs Table 2 at the spec of the legacy BENCH_8
// Table2_* rows (0.02 s transient, no network sleep) through the
// benchmark's own set-up, and expects the counts those rows recorded:
// 1416 calls per run in every mode, 1180 round trips batched and 1416
// unbatched, and the same simulated network time.
func TestLegacyContinuity(t *testing.T) {
	for _, tc := range []struct {
		row      string
		opts     core.RunOptions
		rpcs     int64
		simnetMS int64
	}{
		{"Table2_Combined", core.RunOptions{}, 1416, 109106},
		{"Table2_Parallel", core.RunOptions{Parallel: true}, 1416, 109106},
		{"Table2_Batched", core.RunOptions{Parallel: true, Batch: true}, 1180, 88086},
	} {
		e, err := setupTable2(table2Spec{transient: 0.02, opts: tc.opts}, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.row, err)
		}
		calls0, rpcs0 := trace.Get("schooner.client.calls"), trace.Get("schooner.client.rpcs")
		tr0 := e.traffic()
		if err := e.unit(0); err != nil {
			t.Errorf("%s: %v", tc.row, err)
		}
		calls := trace.Get("schooner.client.calls") - calls0
		rpcs := trace.Get("schooner.client.rpcs") - rpcs0
		simnet := e.traffic().minus(tr0).simDelay.Milliseconds()
		e.stop()
		if calls != 1416 || rpcs != tc.rpcs || simnet != tc.simnetMS {
			t.Errorf("%s: calls=%d rpcs=%d simnet=%dms per run, want calls=1416 rpcs=%d simnet=%dms",
				tc.row, calls, rpcs, simnet, tc.rpcs, tc.simnetMS)
		}
	}
}

func TestTail(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v, pct := tailOf(s); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %g at p%g, want 90 at p90", v, pct)
	}
	if v, pct := tailOf(s[:5]); v != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %g at p%g, want the maximum", v, pct)
	}
}

// TestChurnCallsFollowDSTMix derives lines-churn's calls per iteration
// from the randomized cluster workload's line traffic: the calls made
// on the lines dst.Generate spawns, starts, moves and quits, per such
// name-database write, times the four writes of an iteration. Long
// sequences are needed: the first few thousand ops of a sequence make
// fewer calls per write than the steady mix.
func TestChurnCallsFollowDSTMix(t *testing.T) {
	var calls, writes int
	for seed := int64(1); seed <= 4; seed++ {
		for _, op := range dst.Generate(seed, 100000, []string{"h1", "h2", "h3"}) {
			switch op.Kind {
			case dst.OpCall:
				calls += op.N
			case dst.OpSlow:
				calls++
			case dst.OpSpawnLine, dst.OpStartProc, dst.OpMove, dst.OpQuitLine:
				writes++
			}
		}
	}
	perWrite := float64(calls) / float64(writes)
	const iterWrites = 4 // contact, start, move, quit
	if got := int(math.Round(perWrite * iterWrites)); got != churnCalls {
		t.Errorf("dst.Generate makes %.3f calls per line write, so %d calls per iteration; churnCalls = %d",
			perWrite, got, churnCalls)
	}
}

// TestFailedUnitFailsCheck holds that a unit which fails to complete
// marks the window incorrect, even when the calls it made before
// failing are not a whole unit's.
func TestFailedUnitFailsCheck(t *testing.T) {
	w := workload{name: "w", callsPerUnit: 10}
	ok := &phase{units: 3, calls: 30}
	if err := ok.check(w); err != nil {
		t.Errorf("healthy window: %v", err)
	}
	failed := &phase{units: 3, failed: 1, failErr: errors.New("timed out"), calls: 24}
	if err := failed.check(w); err == nil {
		t.Error("a window with a failed unit passes its check")
	}
	short := &phase{units: 3, calls: 29}
	if err := short.check(w); err == nil {
		t.Error("a window one call short passes its check")
	}
}
