package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// runCorpus runs one analyzer (or several) over a testdata tree and
// returns the surviving findings and used directives.
func runCorpus(t *testing.T, root string, names ...string) ([]finding, []directive) {
	t.Helper()
	run, err := selectAnalyzers(strings.Join(names, ","), "")
	if err != nil {
		t.Fatal(err)
	}
	fs, used, err := check(filepath.FromSlash(root), run)
	if err != nil {
		t.Fatal(err)
	}
	return fs, used
}

// wantFindings asserts the exact finding count and that each expected
// substring appears in some finding.
func wantFindings(t *testing.T, fs []finding, n int, substrings ...string) {
	t.Helper()
	if len(fs) != n {
		for _, f := range fs {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(fs), n)
	}
	for _, want := range substrings {
		found := false
		for _, f := range fs {
			if strings.Contains(f.String(), want) {
				found = true
				break
			}
		}
		if !found {
			for _, f := range fs {
				t.Logf("finding: %s", f)
			}
			t.Fatalf("no finding contains %q", want)
		}
	}
}

// TestLockIOCorpus pins the held-lock I/O class: a write, an fsync, an
// unlink and an HTTP round-trip inside critical sections are four
// findings; the same operations outside the lock are clean.
func TestLockIOCorpus(t *testing.T) {
	fs, _ := runCorpus(t, "testdata/lockio/bad", "lockio")
	wantFindings(t, fs, 4,
		"l.active.Write while holding l.mu",
		"l.active.Sync while holding l.mu",
		"os.Remove call while holding l.mu",
		"HTTP round-trip p.client.Get while holding p.mu")

	fs, _ = runCorpus(t, "testdata/lockio/good", "lockio")
	wantFindings(t, fs, 0)
}

// TestCtxFlowCorpus pins the uncancellable-work class:
// context.Background/TODO and the context-less http.Get are findings;
// NewRequestWithContext and .Get on non-http receivers are clean.
func TestCtxFlowCorpus(t *testing.T) {
	fs, _ := runCorpus(t, "testdata/ctxflow/bad", "ctxflow")
	wantFindings(t, fs, 3,
		"context.Background()",
		"context.TODO()",
		"http.Get has no context")

	fs, _ = runCorpus(t, "testdata/ctxflow/good", "ctxflow")
	wantFindings(t, fs, 0)
}

// TestMetricNamesCorpus pins the runtime-panic-to-CI move: unprefixed,
// invalid, duplicate and computed registration names are findings;
// valid unique literals are clean.
func TestMetricNamesCorpus(t *testing.T) {
	fs, _ := runCorpus(t, "testdata/metricnames/bad", "metricnames")
	wantFindings(t, fs, 4,
		`"requests_total" is not stgq_-prefixed`,
		`"stgq_bad-name" is not a valid Prometheus name`,
		`duplicate metric name "stgq_queue_depth"`,
		"must be a string literal")

	fs, _ = runCorpus(t, "testdata/metricnames/good", "metricnames")
	wantFindings(t, fs, 0)
}

// TestSuppressionDirectives covers the //stgqcheck:ignore lifecycle: a
// reasoned directive on the line above a finding suppresses it and is
// reported as used; stale, bare, unknown-analyzer and reason-less
// directives are themselves findings.
func TestSuppressionDirectives(t *testing.T) {
	fs, used := runCorpus(t, "testdata/directive/good", "lockio")
	wantFindings(t, fs, 0)
	if len(used) != 2 {
		t.Fatalf("got %d used directives, want 2", len(used))
	}
	for _, d := range used {
		if d.analyzer != "lockio" || d.reason == "" {
			t.Fatalf("used directive %+v lacks analyzer or reason", d)
		}
	}

	fs, used = runCorpus(t, "testdata/directive/bad", "lockio")
	wantFindings(t, fs, 4,
		"stale suppression",
		"malformed suppression",
		"unknown analyzer nosuchanalyzer",
		"has no reason")
	if len(used) != 0 {
		t.Fatalf("got %d used directives, want 0", len(used))
	}
}

// TestStaleDirectiveOnlyForRanAnalyzers: a directive for an analyzer
// that did not run this invocation must not be reported stale, or
// -only runs would flag every suppression for the skipped analyzers.
func TestStaleDirectiveOnlyForRanAnalyzers(t *testing.T) {
	fs, _ := runCorpus(t, "testdata/directive/good", "ctxflow")
	wantFindings(t, fs, 0)
}

// TestSelectAnalyzers covers -only/-skip resolution.
func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers("", "")
	if err != nil || len(all) != len(analyzers) {
		t.Fatalf("default selection: %v, %d analyzers", err, len(all))
	}
	only, err := selectAnalyzers("lockio,ctxflow", "")
	if err != nil || len(only) != 2 {
		t.Fatalf("-only: %v, %d analyzers", err, len(only))
	}
	skip, err := selectAnalyzers("", "metricnames")
	if err != nil || len(skip) != len(analyzers)-1 {
		t.Fatalf("-skip: %v, %d analyzers", err, len(skip))
	}
	if _, err := selectAnalyzers("nosuch", ""); err == nil {
		t.Fatal("unknown analyzer name did not error")
	}
}

// TestRepoClean runs every analyzer over the real repository and
// asserts the gate is green: this is the test that fails when someone
// holds a lock across an fsync or drops a request's context.
func TestRepoClean(t *testing.T) {
	fs, _, err := check(filepath.FromSlash("../../.."), analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("finding: %s", f)
	}
}
