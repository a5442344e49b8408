package main

import (
	"bytes"
	"strings"
	"testing"
)

// asPairs turns two value lists into the samples of alternating pairs:
// run i of each side has seed i and the two start one right after the
// other, the side that goes first changing from pair to pair.
func asPairs(a, b []float64) (sa, sb []sample) {
	for i := range a {
		sa = append(sa, sample{seed: int64(i), started: int64(10*i + 1 + i%2), value: a[i]})
	}
	for i := range b {
		sb = append(sb, sample{seed: int64(i), started: int64(10*i + 2 - i%2), value: b[i]})
	}
	return sa, sb
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * by
		}
		return out
	}
	noisy := []float64{60, 140, 75, 125, 100, 90, 110, 65, 135, 100}
	for _, tc := range []struct {
		name          string
		a, b          []float64
		lowerIsBetter bool
		bound         float64
		want          string
	}{
		{"same runs", base, base, true, 0.10, verdictUnchanged},
		{"latency up 5% inside a 10% bound", base, shift(1.05), true, 0.10, verdictUnchanged},
		{"latency up 20%", base, shift(1.20), true, 0.10, verdictRegressed},
		{"latency down 20%", base, shift(0.80), true, 0.10, verdictImproved},
		{"throughput down 20%", base, shift(0.80), false, 0.10, verdictRegressed},
		{"throughput up 20%", base, shift(1.20), false, 0.10, verdictImproved},
		{"a gain smaller than the parent's own quartile distance", base, shift(0.995), true, 0.10, verdictUnchanged},
		{"parent spread wider than the bound", noisy, shift(1.30), true, 0.10, verdictUnresolved},
		{"change spread wider than the bound", base, noisy, true, 0.10, verdictUnresolved},
	} {
		sa, sb := asPairs(tc.a, tc.b)
		if got, worse := judge(sa, sb, tc.lowerIsBetter, tc.bound); got != tc.want {
			t.Errorf("%s: %s (worse by %+.3f), want %s", tc.name, got, worse, tc.want)
		}
	}
}

// Two sets measured one after the other, on a box that drifts, can differ
// by more than a real gain does: the numbers alone make a candidate.
func TestAGainNeedsAlternatingPairs(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	b := make([]float64, len(a))
	for i := range a {
		b[i] = a[i] * 0.8
	}
	sa, sb := asPairs(a, b)
	for i := range sb {
		sb[i].started += 1000 // the whole of B after the whole of A
	}
	if got, _ := judge(sa, sb, true, 0.10); got != verdictCandidate {
		t.Errorf("set after set: %s, want %s", got, verdictCandidate)
	}
	sa, sb = asPairs(a, b)
	for i := range sa {
		sa[i].started, sb[i].started = int64(10*i+1), int64(10*i+2) // A always first
	}
	if got, _ := judge(sa, sb, true, 0.10); got != verdictCandidate {
		t.Errorf("the parent first in every pair: %s, want %s", got, verdictCandidate)
	}
	sa, sb = asPairs(a, b)
	for i := range sa {
		sa[i].started, sb[i].started = 0, 0 // records without a start time
	}
	if got, _ := judge(sa, sb, true, 0.10); got != verdictCandidate {
		t.Errorf("no start times: %s, want %s", got, verdictCandidate)
	}
}

func TestPairsMatchBySeedNotByFileOrder(t *testing.T) {
	a := []sample{{seed: 1, value: 10}, {seed: 2, value: 20}, {seed: 3, value: 30}}
	b := []sample{{seed: 3, value: 31}, {seed: 1, value: 11}, {seed: 9, value: 99}}
	ps := pairs(a, b)
	if len(ps) != 2 || ps[0][0].value != 10 || ps[0][1].value != 11 || ps[1][0].value != 30 || ps[1][1].value != 31 {
		t.Errorf("pairs = %+v, want seeds 1 and 3 matched", ps)
	}
}

func TestJudgeNeedsNineTenthsOfThePairs(t *testing.T) {
	a := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100.5}
	// The median drops by 10 %, but three of ten pairs lose.
	b := []float64{90, 90, 90, 90, 90, 90, 90, 104, 104, 104}
	sa, sb := asPairs(a, b)
	if got, _ := judge(sa, sb, true, 0.25); got != verdictUnchanged {
		t.Errorf("7 wins of 10 judged %s, want %s", got, verdictUnchanged)
	}
	b = []float64{90, 90, 90, 90, 90, 90, 90, 90, 90, 104}
	sa, sb = asPairs(a, b)
	if got, _ := judge(sa, sb, true, 0.25); got != verdictImproved {
		t.Errorf("9 wins of 10 judged %s, want %s", got, verdictImproved)
	}
}

func rec(workload string, trace int, seed int64, failed int, kv ...any) runRecord {
	r := runRecord{Workload: workload, Trace: trace, Seed: seed, Correct: true, Attempted: 1000, Failed: failed, Metrics: map[string]metric{}}
	for i := 0; i < len(kv); i += 2 {
		r.Metrics[kv[i].(string)] = metric{Value: kv[i+1].(float64)}
	}
	return r
}

func TestCompareRunsExitsNonZeroOnlyOnRegression(t *testing.T) {
	sp := &spec{
		Workloads: []struct {
			Name string `json:"name"`
		}{{"w1"}, {"w2"}},
		EndToEnd: []specMetric{{Name: "lat_ms", Better: "lower", Bound: 0.1}, {Name: "tput", Better: "higher", Bound: 0.1}},
	}
	var a, slow, fast, fastFailing, failing []runRecord
	for i := 0; i < 10; i++ {
		j := float64(i%3) * 0.1
		a = append(a, rec("w1", 0, int64(i), 0, "lat_ms", 10+j, "tput", 500-j), rec("w2", 0, int64(i), 0, "lat_ms", 20+j, "tput", 200-j))
		slow = append(slow, rec("w1", 0, int64(i), 0, "lat_ms", 10+j, "tput", 500-j), rec("w2", 0, int64(i), 0, "lat_ms", 25+j, "tput", 200-j))
		fast = append(fast, rec("w1", 0, int64(i), 0, "lat_ms", 8+j, "tput", 500-j), rec("w2", 0, int64(i), 0, "lat_ms", 20+j, "tput", 200-j))
		fastFailing = append(fastFailing, rec("w1", 0, int64(i), 1, "lat_ms", 8+j, "tput", 500-j), rec("w2", 0, int64(i), 0, "lat_ms", 20+j, "tput", 200-j))
		failing = append(failing, rec("w1", 0, int64(i), 2, "lat_ms", 10+j, "tput", 500-j), rec("w2", 0, int64(i), 0, "lat_ms", 20+j, "tput", 200-j))
	}
	a = append(a, rec("w1", 1, 1, 0, "core.nodes_expanded_per_query", 12.5))
	fast = append(fast, rec("w1", 1, 1, 0, "core.nodes_expanded_per_query", 12.5))
	slow = append(slow, rec("w1", 1, 1, 0, "core.nodes_expanded_per_query", 13.0))

	var out bytes.Buffer
	if code := compareRuns(&out, sp, a, a); code != 0 || strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a set against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	// These records carry no start times, so a gain is a candidate for one.
	if code := compareRuns(&out, sp, a, fast); code != 0 || !strings.Contains(out.String(), verdictCandidate) || !strings.Contains(out.String(), "identical") {
		t.Errorf("a gain on w1: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(&out, sp, a, fastFailing); code != 0 || strings.Contains(out.String(), verdictCandidate) || !strings.Contains(out.String(), "gain withheld") {
		t.Errorf("a gain on w1 with 0.1%% of its ops failing: exit %d\n%s", code, out.String())
	}
	out.Reset()
	code := compareRuns(&out, sp, a, slow)
	if code != 1 || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("w2 latency +25%%: exit %d\n%s", code, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, verdictRegressed) && !(strings.HasPrefix(line, "w2") && strings.Contains(line, "lat_ms")) {
			t.Errorf("only w2 lat_ms regressed, but: %s", line)
		}
	}
	out.Reset()
	if code := compareRuns(&out, sp, a, failing); code != 1 {
		t.Errorf("0.2%% of w1's ops failing: exit %d\n%s", code, out.String())
	}
}

// A watched metric is bounded by twice the parent's own spread, and by
// 10 % when the parent is steadier than that.
func TestCompareBoundsWatchedMetricsByTheParentsSpread(t *testing.T) {
	sp := &spec{Workloads: []struct {
		Name string `json:"name"`
	}{{"w1"}}}
	set := func(steady, noisy func(i int) float64) []runRecord {
		var out []runRecord
		for i := 0; i < 10; i++ {
			r := rec("w1", 0, int64(i), 0)
			r.Watched = map[string]metric{"steady_p95_ms": {Value: steady(i)}, "noisy_p95_ms": {Value: noisy(i)}}
			out = append(out, r)
		}
		return out
	}
	steady := func(i int) float64 { return 10 + float64(i%3)*0.1 }
	noisy := func(i int) float64 { return 10 + float64(i%5)*2 } // IQR/median about 0.36
	a := set(steady, noisy)
	b := set(func(i int) float64 { return 1.3 * steady(i) }, func(i int) float64 { return 1.3 * noisy(i) })

	var out bytes.Buffer
	if code := compareRuns(&out, sp, a, b); code != 1 {
		t.Errorf("a steady watched metric 30%% worse: exit %d\n%s", code, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		switch {
		case strings.Contains(line, "steady_p95_ms") && !strings.Contains(line, verdictRegressed):
			t.Errorf("30%% worse against a spread of 2%%: %s", line)
		case strings.Contains(line, "noisy_p95_ms") && !strings.Contains(line, verdictUnchanged):
			t.Errorf("30%% worse against a spread of 36%%: %s", line)
		}
	}
}
