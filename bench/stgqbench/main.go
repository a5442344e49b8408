// Command stgqbench is the repository's benchmark: it builds stgqd and
// stgqgw, boots a leader, a follower and a gateway as child processes,
// drives one of four workloads over HTTP with at most two requests in
// flight, checks the answers against an in-process oracle, and prints the
// end-to-end metrics (-trace 0) or the per-layer metrics of a separate
// traced run (-trace 1). BENCHMARK.json at the repository root names the
// workloads, the metrics and their regression bounds; README.md beside
// this file is the manual.
//
//	bash bench/stgqbench/run.sh --workload write_heavy_10k --seed 1 --seconds 10 --trace 0
//	go run ./bench/stgqbench -workload all -seed 1 -out /tmp/a
//	go run ./bench/stgqbench compare /tmp/a/runs.jsonl /tmp/b/runs.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when a correctness check failed or more than 0.1 % of the ops did.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the op lists (the populations are fixed)")
		seconds = flag.Int("seconds", 0, "run length the op counts are sized for (0: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		work    = flag.String("work", ".bench_build/stgqbench", "directory for built binaries and cluster data")
		out     = flag.String("out", "", "directory for runs.jsonl and trace files (default <work>/out)")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: stgqbench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out dir] | compare A B")
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace, *work, *out); err != nil {
		fmt.Fprintln(os.Stderr, "stgqbench:", err)
		os.Exit(1)
	}
}

// specFile is the benchmark's definition, relative to the repository
// root, which is where the command runs.
const specFile = "BENCHMARK.json"

func run(name string, seed int64, seconds, trace int, work, out string) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = sp.RunSeconds
	}
	var todo []*workload
	for i := range workloads {
		if name == "all" || name == workloads[i].Name {
			todo = append(todo, &workloads[i])
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	if out == "" {
		out = filepath.Join(work, "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := runConfig{BinDir: filepath.Join(work, "bin"), WorkDir: filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())),
		Seed: seed, Seconds: seconds}
	if err := buildDaemons(ctx, ".", cfg.BinDir); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.WorkDir) //nolint:errcheck // scratch data; nothing to do about a leftover

	bad := false
	for _, w := range todo {
		var rec *runRecord
		if trace == 1 {
			rec, err = runTraced(ctx, w, cfg, out)
		} else {
			rec, err = runUntraced(ctx, w, cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if err := sp.checkNames(rec); err != nil {
			return err
		}
		if err := appendRecord(filepath.Join(out, "runs.jsonl"), rec); err != nil {
			return err
		}
		printRecord(os.Stdout, rec)
		if !rec.Correct || rec.failedRatio() > maxFailedRatio {
			bad = true
		}
	}
	if bad {
		return fmt.Errorf("a correctness check failed or more than %.1f%% of the ops did (see CHECK FAILED and failed_ratio above)", maxFailedRatio*100)
	}
	return nil
}

// printRecord writes the human-readable block — every metric as
// "name value unit", then the notes — followed by the driver's result
// line.
func printRecord(w *os.File, rec *runRecord) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%d trace=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, n := range sortedNames(rec.Metrics) {
		fmt.Fprintf(w, "%s %v %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	for _, n := range sortedNames(rec.Watched) {
		fmt.Fprintf(w, "%s %v %s (watched: bounded by compare, not by BENCHMARK.json)\n", n, rec.Watched[n].Value, rec.Watched[n].Unit)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	line, _ := json.Marshal(struct { // a map of plain numbers and strings cannot fail to marshal
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func appendRecord(path string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spec is BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w (run from the repository root)", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	declared := map[string]bool{}
	for _, w := range sp.Workloads {
		declared[w.Name] = true
	}
	for i := range workloads {
		if !declared[workloads[i].Name] {
			return nil, fmt.Errorf("%s does not declare workload %s", path, workloads[i].Name)
		}
	}
	if len(declared) != len(workloads) {
		return nil, fmt.Errorf("%s declares %d workloads, the benchmark has %d", path, len(declared), len(workloads))
	}
	return &sp, nil
}

// checkNames holds a run to the contract: exactly the declared metrics of
// its kind, each with the declared unit.
func (sp *spec) checkNames(rec *runRecord) error {
	want := sp.EndToEnd
	if rec.Trace == 1 {
		want = sp.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := rec.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s is declared in BENCHMARK.json but was not measured", rec.Workload, m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	for n := range rec.Metrics {
		if !declared[n] {
			return fmt.Errorf("%s: metric %s was measured but is not declared in BENCHMARK.json", rec.Workload, n)
		}
	}
	return nil
}
