package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of compare, per (end-to-end metric, workload).
const (
	verdictImproved   = "improved"
	verdictCandidate  = "candidate" // a gain by the numbers, but not measured as alternating pairs
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// exactCounts are the per-layer metrics that are counts made by the
// program and must repeat exactly for a given seed; compare reports
// whether they do.
var exactCounts = []string{
	"core.nodes_expanded_per_query", "core.vertices_examined_per_query", "core.pivots_processed_per_query",
	"core.feasible_ratio", "socialgraph.ball_vertices_p50",
}

// readRuns loads a runs.jsonl file.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// sample is one untraced run's value of one metric.
type sample struct {
	seed    int64
	started int64
	value   float64
}

// samples collects one metric, bounded or watched, of one workload's
// untraced runs, in file order.
func samples(runs []runRecord, workload, name string) []sample {
	var out []sample
	for i := range runs {
		if runs[i].Workload == workload && runs[i].Trace == 0 {
			m, ok := runs[i].Metrics[name]
			if !ok {
				m, ok = runs[i].Watched[name]
			}
			if ok {
				out = append(out, sample{runs[i].Seed, runs[i].Started, m.Value})
			}
		}
	}
	return out
}

// watchedNames lists the watched metrics the runs of one workload carry.
// All of them are times: lower is better.
func watchedNames(runs []runRecord, workload string) []string {
	set := map[string]metric{}
	for i := range runs {
		if runs[i].Workload == workload && runs[i].Trace == 0 {
			for n, m := range runs[i].Watched {
				set[n] = m
			}
		}
	}
	return sortedNames(set)
}

// watchedFloor is the least bound of a watched metric; its bound is twice
// the parent's own spread when that is wider (ISSUE 11's rule).
const watchedFloor = 0.10

func valuesOf(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ss[i].value
	}
	return out
}

// pairs matches the runs of the two sides by seed: the same seed is the
// same op lists, so a pair differs only in the commit and the moment. A
// seed run more than once pairs its last run.
func pairs(a, b []sample) [][2]sample {
	last := map[int64]sample{}
	for _, x := range b {
		last[x.seed] = x
	}
	bySeed := map[int64][2]sample{}
	for _, x := range a {
		if y, ok := last[x.seed]; ok {
			bySeed[x.seed] = [2]sample{x, y}
		}
	}
	out := make([][2]sample, 0, len(bySeed))
	for _, p := range bySeed {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].seed < out[j][0].seed })
	return out
}

// alternating reports whether the pairs were measured the way a claim of
// a gain needs: the two runs of a pair one right after the other, no other
// run of either side between them, and neither side first in more than
// two thirds of the pairs. Sets measured one after the other — twenty
// minutes apart on a box whose speed drifts by more than that — are not.
func alternating(a, b []sample, ps [][2]sample) bool {
	var all []int64
	for _, x := range append(append([]sample(nil), a...), b...) {
		if x.started == 0 {
			return false
		}
		all = append(all, x.started)
	}
	aFirst := 0
	for _, p := range ps {
		lo, hi := p[0].started, p[1].started
		if lo < hi {
			aFirst++
		} else {
			lo, hi = hi, lo
		}
		for _, t := range all {
			if t > lo && t < hi {
				return false
			}
		}
	}
	return len(ps) > 0 && aFirst*3 <= len(ps)*2 && (len(ps)-aFirst)*3 <= len(ps)*2
}

// judge applies the guide's rule to one metric's runs on the parent (a)
// and the change (b). worse is how much worse b's median is than a's, as
// a share of a's (negative: better). The order of the tests matters: a
// spread wider than the bound means the bound cannot be checked at all.
func judge(a, b []sample, lowerIsBetter bool, bound float64) (verdict string, worse float64) {
	va, vb := valuesOf(a), valuesOf(b)
	ma, mb := median(va), median(vb)
	worse = (mb - ma) / ma
	if !lowerIsBetter {
		worse = -worse
	}
	if iqrShare(va) > bound || iqrShare(vb) > bound {
		return verdictUnresolved, worse
	}
	if worse > bound {
		return verdictRegressed, worse
	}
	// A gain needs the medians apart by more than the parent's own
	// quartile distance, and the change ahead in nine tenths of the pairs
	// (ties count for neither). Without alternating pairs it is a
	// candidate for one: the box can drift that far between two sets.
	q1, q3 := quartiles(va)
	ps := pairs(a, b)
	wins, losses := 0, 0
	for _, p := range ps {
		switch {
		case p[0].value == p[1].value:
		case (p[1].value < p[0].value) == lowerIsBetter:
			wins++
		default:
			losses++
		}
	}
	if worse < 0 && math.Abs(ma-mb) > q3-q1 && wins*10 >= 9*(wins+losses) && wins > 0 {
		if alternating(a, b, ps) {
			return verdictImproved, worse
		}
		return verdictCandidate, worse
	}
	return verdictUnchanged, worse
}

// compareMain implements "stgqbench compare A B": A is the parent's
// runs.jsonl, B the change's. It exits 1 when any pair regressed.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: stgqbench compare A/runs.jsonl B/runs.jsonl")
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stgqbench compare:", err)
		return 2
	}
	a, err := readRuns(args[0])
	if err == nil {
		var b []runRecord
		if b, err = readRuns(args[1]); err == nil {
			return compareRuns(w, sp, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "stgqbench compare:", err)
	return 2
}

func compareRuns(w io.Writer, sp *spec, a, b []runRecord) int {
	regressed := false
	fmt.Fprintf(w, "%-16s %-18s %5s %12s %12s %12s %12s %12s %12s %7s %8s  %s\n",
		"workload", "metric", "runs", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "bound", "worse", "verdict")
	for _, wl := range sp.Workloads {
		// Failures are bounded absolutely: the share of failed ops may not
		// rise by more than maxFailedRatio. A gain does not count when more
		// ops failed than on the parent.
		fa, fb := failedShare(a, wl.Name), failedShare(b, wl.Name)
		metrics := append([]specMetric(nil), sp.EndToEnd...)
		for _, n := range watchedNames(a, wl.Name) {
			metrics = append(metrics, specMetric{Name: n, Better: "lower"})
		}
		for _, m := range metrics {
			sa, sb := samples(a, wl.Name, m.Name), samples(b, wl.Name, m.Name)
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			if m.Bound == 0 {
				m.Bound = math.Max(watchedFloor, 2*iqrShare(valuesOf(sa)))
			}
			verdict, worse := judge(sa, sb, m.Better == "lower", m.Bound)
			regressed = regressed || verdict == verdictRegressed
			if (verdict == verdictImproved || verdict == verdictCandidate) && fb > fa {
				verdict = verdictUnchanged + " (gain withheld: more ops failed)"
			}
			va, vb := valuesOf(sa), valuesOf(sb)
			aq1, aq3 := quartiles(va)
			bq1, bq3 := quartiles(vb)
			fmt.Fprintf(w, "%-16s %-18s %2d/%-2d %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f %6.0f%% %+7.1f%%  %s\n",
				wl.Name, m.Name, len(va), len(vb), aq1, median(va), aq3, bq1, median(vb), bq3, m.Bound*100, worse*100, verdict)
		}
		verdict := verdictUnchanged
		if fb > fa+maxFailedRatio {
			verdict, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "%-16s %-18s %5s %12s %12.5f %12s %12s %12.5f %12s %7s %8s  %s\n", wl.Name, "failed_ratio", "", "", fa, "", "", fb, "", "+0.001", "", verdict)
	}
	for _, wl := range sp.Workloads {
		for _, name := range exactCounts {
			ca, cb := countsBySeed(a, wl.Name, name), countsBySeed(b, wl.Name, name)
			seeds := make([]int64, 0, len(ca))
			for s := range ca {
				if _, ok := cb[s]; ok {
					seeds = append(seeds, s)
				}
			}
			sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
			for _, s := range seeds {
				same := "identical"
				if ca[s] != cb[s] {
					same = "DIFFERS"
				}
				fmt.Fprintf(w, "%-16s %-34s seed %-4d A %-14v B %-14v %s\n", wl.Name, name, s, ca[s], cb[s], same)
			}
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func failedShare(runs []runRecord, workload string) float64 {
	attempted, failed := 0, 0
	for i := range runs {
		if runs[i].Workload == workload && runs[i].Trace == 0 {
			attempted += runs[i].Attempted
			failed += runs[i].Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// countsBySeed maps seed → the value of an exact-count metric in the
// traced runs (the last run of a seed wins).
func countsBySeed(runs []runRecord, workload, name string) map[int64]float64 {
	out := map[int64]float64{}
	for i := range runs {
		if runs[i].Workload == workload && runs[i].Trace == 1 {
			if m, ok := runs[i].Metrics[name]; ok {
				out[runs[i].Seed] = m.Value
			}
		}
	}
	return out
}
