package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"npss/internal/critpath"
)

// tableProfile builds a Table-2-shaped profile: a network-dominated
// total with small compute/conversion/queueing/retry shares.
func tableProfile(networkScale float64) *critpath.Profile {
	network := time.Duration(networkScale * float64(3600*time.Millisecond))
	buckets := map[string]time.Duration{
		critpath.Compute:    20 * time.Millisecond,
		critpath.Network:    network,
		critpath.Queueing:   60 * time.Millisecond,
		critpath.Retry:      17 * time.Millisecond,
		critpath.Conversion: 15 * time.Millisecond,
	}
	total := time.Duration(0)
	for _, v := range buckets {
		total += v
	}
	return &critpath.Profile{
		Total: critpath.Totals{CriticalPath: total, Buckets: buckets},
		Spans: 7000,
	}
}

func writeProfile(t *testing.T, dir, name string, p *critpath.Profile) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, p.EncodeJSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareCatchesNetworkInjection is the gate's reason to exist: a
// 2× network-delay injection must fail the comparison against the
// golden profile.
func TestCompareCatchesNetworkInjection(t *testing.T) {
	dir := t.TempDir()
	golden := writeProfile(t, dir, "PROFILE_1.json", tableProfile(1))
	injected := writeProfile(t, dir, "injected.json", tableProfile(2))
	var out strings.Builder
	drifted, err := compare(golden, injected, critpath.DefaultThreshold, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !drifted {
		t.Fatalf("2× network injection not flagged; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "bucket network") || !strings.Contains(out.String(), "critical path") {
		t.Errorf("report names neither the network bucket nor the critical path:\n%s", out.String())
	}
}

// TestCompareToleratesSmallBucketJitter: a small bucket halving moves
// almost none of the end-to-end latency and must not trip the gate
// (run-to-run scheduler noise on queueing is ~2× in practice).
func TestCompareToleratesSmallBucketJitter(t *testing.T) {
	dir := t.TempDir()
	base := tableProfile(1)
	jittered := tableProfile(1.02) // 2% network wobble
	jittered.Total.Buckets[critpath.Queueing] /= 2
	jittered.Total.CriticalPath -= 30 * time.Millisecond
	golden := writeProfile(t, dir, "PROFILE_1.json", base)
	cur := writeProfile(t, dir, "cur.json", jittered)
	var out strings.Builder
	drifted, err := compare(golden, cur, critpath.DefaultThreshold, &out)
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatalf("small-bucket jitter flagged as drift:\n%s", out.String())
	}
}

func TestCompareMissingGolden(t *testing.T) {
	dir := t.TempDir()
	cur := writeProfile(t, dir, "cur.json", tableProfile(1))
	var out strings.Builder
	drifted, err := compare(filepath.Join(dir, "absent.json"), cur, critpath.DefaultThreshold, &out)
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Fatal("missing golden reported a drift")
	}
	if !strings.Contains(out.String(), "no golden profile") {
		t.Errorf("missing-golden notice absent:\n%s", out.String())
	}
}

// TestCompactKeepsWhatTheGateReads: a compacted golden drops the
// per-phase critical paths but compares exactly like the full profile.
func TestCompactKeepsWhatTheGateReads(t *testing.T) {
	dir := t.TempDir()
	full := tableProfile(1)
	full.Phases = []critpath.Phase{{Name: "remote run", Dur: full.Total.CriticalPath,
		Path: []critpath.Edge{{Name: "call", Bucket: critpath.Network, Dur: full.Total.CriticalPath}}}}
	full.Hosts = []critpath.HostProfile{{Host: "cray", Spans: 3, Busy: time.Second}}
	fullPath := writeProfile(t, dir, "full.json", full)
	golden := filepath.Join(dir, "PROFILE_1.json")
	if err := compact(fullPath, golden); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "phases") || !strings.Contains(string(data), "cray") {
		t.Errorf("compact golden should hold hosts but no phases:\n%s", data)
	}
	for _, cur := range []*critpath.Profile{tableProfile(1), tableProfile(2)} {
		curPath := writeProfile(t, dir, "cur.json", cur)
		var a, b strings.Builder
		da, err := compare(fullPath, curPath, critpath.DefaultThreshold, &a)
		if err != nil {
			t.Fatal(err)
		}
		db, err := compare(golden, curPath, critpath.DefaultThreshold, &b)
		if err != nil {
			t.Fatal(err)
		}
		if da != db || a.String() != b.String() {
			t.Errorf("full and compact goldens disagree:\n%s\nvs\n%s", a.String(), b.String())
		}
	}
}

func TestLatestPicksNumericMax(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		"PROFILE_2.json", "PROFILE_9.json", "PROFILE_10.json", "PROFILE_11.json",
		"PROFILE_x.json", "PROFILE_3.txt", "BENCH_12.json",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latest(dir, "PROFILE_11.json")
	if err != nil {
		t.Fatal(err)
	}
	// PROFILE_11 is being written; PROFILE_10 must beat PROFILE_9
	// despite sorting before it lexicographically.
	if got != "PROFILE_10.json" {
		t.Fatalf("latest = %q, want PROFILE_10.json", got)
	}
}

func TestLatestEmptyDir(t *testing.T) {
	got, err := latest(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if got != "" {
		t.Fatalf("latest in empty dir = %q, want empty", got)
	}
}
