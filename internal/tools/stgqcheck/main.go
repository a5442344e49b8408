// Command stgqcheck is the repository's project-invariant static-analysis
// gate (make lint, wired into CI). Where go vet checks generic Go
// mistakes and docscheck checks documentation, stgqcheck machine-checks
// the invariants that have actually cost this project incidents —
// invariant drift that no general-purpose tool can know about:
//
//   - lockio: no sync.Mutex/RWMutex held across blocking I/O (os.File
//     writes/fsync, net/http calls) in the journal, gateway and replica
//     packages — the group-commit path is the hot one.
//   - seqepoch: no raw <,>,<=,>= comparison of durable-seq values in
//     gateway/replica; cross-history ordering must go through the
//     epoch-qualified replica.CompareSeq. PR 4's split-brain came from
//     ranking leaders by bare durable seq.
//   - ctxflow: context.Background()/context.TODO() and context-less
//     net/http helpers (http.Get, ...) are forbidden in request-path
//     packages; handlers and dial loops must propagate a caller's
//     context so shutdown cancels in-flight work.
//   - metricnames: obsv metric registrations use string literals that
//     are stgq_-prefixed, Prometheus-valid and unique across packages —
//     an invalid or duplicate name panics at runtime; this moves the
//     failure to CI.
//
// Like docscheck, it is stdlib-only (go/ast + go/parser + go/token) so
// the module keeps zero dependencies and builds offline. The analyses
// are deliberately syntactic and tuned to this repository's idioms; the
// golden corpora under testdata/ pin exactly what each analyzer flags.
//
// Usage:
//
//	stgqcheck [-only a,b] [-skip a,b] [-suppressions] [root]
//
// A finding can be silenced with an inline directive on the flagged line
// or the line above it:
//
//	//stgqcheck:ignore <analyzer> <reason>
//
// The reason is mandatory, unknown analyzer names are themselves
// violations, and a directive that no longer suppresses anything is
// reported as stale — suppressions cannot accumulate silently. The
// -suppressions flag prints every active suppression with its reason and
// exits without running the gate, so reviews can audit the list.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// analyzer is one invariant check over the parsed repository.
type analyzer struct {
	name string
	desc string
	run  func(r *repoTree) []finding
}

// analyzers is the registry, in report order.
var analyzers = []*analyzer{
	anaLockIO,
	anaSeqEpoch,
	anaCtxFlow,
	anaMetricNames,
}

func analyzerNames() []string {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.name
	}
	return names
}

// selectAnalyzers resolves -only/-skip into the set to run.
func selectAnalyzers(only, skip string) ([]*analyzer, error) {
	byName := map[string]*analyzer{}
	for _, a := range analyzers {
		byName[a.name] = a
	}
	parse := func(list string) ([]*analyzer, error) {
		var out []*analyzer
		for _, n := range strings.Split(list, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			a, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q (have: %s)", n, strings.Join(analyzerNames(), ", "))
			}
			out = append(out, a)
		}
		return out, nil
	}
	if only != "" {
		return parse(only)
	}
	selected, err := parse(skip)
	if err != nil {
		return nil, err
	}
	skipped := map[*analyzer]bool{}
	for _, a := range selected {
		skipped[a] = true
	}
	var out []*analyzer
	for _, a := range analyzers {
		if !skipped[a] {
			out = append(out, a)
		}
	}
	return out, nil
}

// check loads the repository at root, runs the selected analyzers, and
// applies suppression directives. It returns the surviving findings
// (stable order) and the directives that were used.
func check(root string, run []*analyzer) ([]finding, []directive, error) {
	r, err := loadRepo(root)
	if err != nil {
		return nil, nil, err
	}
	var fs []finding
	for _, a := range run {
		fs = append(fs, a.run(r)...)
	}
	names := make([]string, len(run))
	for i, a := range run {
		names[i] = a.name
	}
	fs, used := applySuppressions(r, fs, names)
	sortFindings(fs)
	return fs, used, nil
}

func main() {
	only := flag.String("only", "", "comma-separated analyzers to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzers to skip")
	listSup := flag.Bool("suppressions", false, "list every active //stgqcheck:ignore directive and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: stgqcheck [-only a,b] [-skip a,b] [-suppressions] [root]\n\nanalyzers: %s\n", strings.Join(analyzerNames(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	run, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stgqcheck: %v\n", err)
		os.Exit(2)
	}
	if *listSup {
		r, err := loadRepo(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stgqcheck: %v\n", err)
			os.Exit(2)
		}
		ds := collectDirectives(r)
		for _, d := range ds {
			fmt.Printf("%s:%d: [%s] %s\n", d.pos.Filename, d.pos.Line, d.analyzer, d.reason)
		}
		fmt.Printf("stgqcheck: %d active suppression(s)\n", len(ds))
		return
	}
	fs, _, err := check(root, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stgqcheck: %v\n", err)
		os.Exit(2)
	}
	if len(fs) > 0 {
		for _, f := range fs {
			fmt.Println(f.String())
		}
		fmt.Printf("stgqcheck: %d problem(s)\n", len(fs))
		os.Exit(1)
	}
	fmt.Printf("stgqcheck: %d analyzer(s) clean\n", len(run))
}
