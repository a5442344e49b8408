package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeWorkload is a workload sized for the smoke test by its own fields:
// a population that boots in a moment, one set-up, and rates that make a
// pass of 200 ops at --seconds 2 (a whole-population pass is the
// population, which must still outnumber the result cache).
func smokeWorkload(name string) *workload {
	w := smallWorkload(name, 1500)
	w.SetupRepeats = 1
	switch {
	case w.WholePopulation:
		// More people than the result cache holds means 3 120 queries in
		// the run; a two-day horizon makes them cheap ones.
		w.People, w.Days, w.Passes = resultCacheEntries+8, 2, 5
	case w.OpenRate > 0:
		w.OpenRate = 500
	default:
		w.OpsPerSecond = 500
	}
	return w
}

// TestSmoke boots the real binaries at 1 500 people (520 for the
// whole-population workload) and takes every workload through a whole
// untraced run of short passes — warm-up barrier, five measured passes,
// oracle, and for write_heavy the SIGKILL restart — and one workload
// through the traced run. It checks what the runs emit
// against BENCHMARK.json, so a metric renamed on one side only fails here.
// Children die with the run that started them (deferred kill of their
// process groups) or, should the test binary itself be killed, by their
// parent-death signal.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots child processes")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the daemons with")
	}
	root := filepath.Join("..", "..")
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	work := t.TempDir()
	cfg := runConfig{BinDir: filepath.Join(work, "bin"), WorkDir: filepath.Join(work, "run"),
		Seed: 1, Seconds: 2}
	if err := buildDaemons(ctx, root, cfg.BinDir); err != nil {
		t.Fatal(err)
	}
	runs := filepath.Join(work, "runs.jsonl")
	check := func(rec *runRecord, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range rec.Notes {
			t.Log(n)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("%s trace=%d: correct=%t, %d of %d ops failed", rec.Workload, rec.Trace, rec.Correct, rec.Failed, rec.Attempted)
		}
		if err := sp.checkNames(rec); err != nil {
			t.Error(err)
		}
		for name, m := range rec.Metrics {
			// A self time is a difference of two timings and may dip below
			// zero (under -race the in-process mirror is slower than the
			// server it is subtracted from); nothing may be NaN or infinite.
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", rec.Workload, name, m.Value)
			}
		}
		if err := appendRecord(runs, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := range workloads {
		w := smokeWorkload(workloads[i].Name)
		rec, err := runUntraced(ctx, w, cfg)
		check(rec, err)
		if err == nil && rec.Attempted != w.Passes*w.opsPerPass(cfg.Seconds) {
			t.Errorf("%s: %d ops measured, want %d passes of %d", w.Name, rec.Attempted, w.Passes, w.opsPerPass(cfg.Seconds))
		}
	}
	out := filepath.Join(work, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	check(runTraced(ctx, smokeWorkload("write_heavy_10k"), cfg, out))
	if traces, _ := filepath.Glob(filepath.Join(out, "trace-*.json")); len(traces) != 1 {
		t.Errorf("traced run left %d trace files, want 1", len(traces))
	}

	// The result file reads back, and a set of runs never regresses
	// against itself.
	back, err := readRuns(runs)
	if err != nil || len(back) != len(workloads)+1 {
		t.Fatalf("runs.jsonl: %d records, %v", len(back), err)
	}
	var table bytes.Buffer
	if code := compareRuns(&table, sp, back, back); code != 0 {
		t.Errorf("compare of the runs with themselves exits %d\n%s", code, table.String())
	}
}

// The population every recorded baseline number was measured on. A change
// to dataset.Synthetic fails here, in tier 1, before it can pass for a
// performance change.
func TestRecordedFingerprints(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.People > 10_000 && testing.Short() {
			continue
		}
		if !strings.Contains(string(recordedFingerprintsJSON), `"`+fingerprintKey(w)+`"`) {
			t.Errorf("fingerprints.json has no entry %q; this population is %+v", fingerprintKey(w), fingerprintOf(buildDataset(w)))
		} else if err := checkFingerprint(w, buildDataset(w)); err != nil {
			t.Error(err)
		}
	}
}

func TestBenchmarkJSONDeclaresTheWorkloads(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
