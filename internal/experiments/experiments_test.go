package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func quickCfg() Config {
	return Config{Seed: 42, Trials: 1, Quick: true}
}

var (
	quickOnce sync.Once
	quickFigs []Figure
)

// quickFigures runs the quick sweep of every figure once per package; the
// shape tests below all assert on its figures.
func quickFigures(t *testing.T) []Figure {
	t.Helper()
	if testing.Short() {
		t.Skip("full harness sweep")
	}
	quickOnce.Do(func() { quickFigs = All(quickCfg()) })
	return quickFigs
}

// quickFigure returns the quick sweep's figure id.
func quickFigure(t *testing.T, id string) Figure {
	t.Helper()
	for _, f := range quickFigures(t) {
		if f.ID == id {
			return f
		}
	}
	t.Fatalf("no figure %s in the quick sweep", id)
	return Figure{}
}

func TestFig1aShape(t *testing.T) {
	fig := quickFigure(t, "1a")
	if len(fig.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range fig.Rows {
		for _, s := range fig.Series {
			if _, ok := r.Values[s]; !ok {
				t.Errorf("%s: missing series %s", r.X, s)
			}
		}
	}
	// The headline claim: at the largest p of the sweep the baseline is
	// slower than SGSelect.
	last := fig.Rows[len(fig.Rows)-1]
	if last.Values["Baseline"] <= last.Values["SGSelect"] {
		t.Errorf("at %s baseline (%v) should exceed SGSelect (%v)",
			last.X, last.Values["Baseline"], last.Values["SGSelect"])
	}
}

func TestFig1eShape(t *testing.T) {
	fig := quickFigure(t, "1e")
	for _, r := range fig.Rows {
		if r.Values["Baseline"] <= r.Values["STGSelect"] {
			t.Errorf("%s: baseline (%v) should exceed STGSelect (%v)",
				r.X, r.Values["Baseline"], r.Values["STGSelect"])
		}
	}
}

// TestQualityShape reads the Quality sweep through Figures 1(g) and 1(h):
// a row carries a series exactly when that arrangement succeeded.
func TestQualityShape(t *testing.T) {
	k, dist := quickFigure(t, "1g"), quickFigure(t, "1h")
	if len(k.Rows) != len(dist.Rows) {
		t.Fatalf("1g has %d rows, 1h %d", len(k.Rows), len(dist.Rows))
	}
	anyManual := false
	for i, kr := range k.Rows {
		manualK, manualOK := kr.Values["PCArrange k_h"]
		if !manualOK {
			continue
		}
		anyManual = true
		arrangeK, arrangeOK := kr.Values["STGArrange k"]
		if !arrangeOK {
			t.Errorf("%s: STGArrange failed though PCArrange succeeded", kr.X)
			continue
		}
		// Figure 1(g): the automatic planner needs at most the manual k_h.
		if arrangeK > manualK {
			t.Errorf("%s: STGArrange k=%v exceeds PCArrange k_h=%v", kr.X, arrangeK, manualK)
		}
		// Figure 1(h): and is no farther socially.
		dr := dist.Rows[i]
		if dr.Values["STGArrange"] > dr.Values["PCArrange"] {
			t.Errorf("%s: STGArrange distance %v exceeds PCArrange %v",
				dr.X, dr.Values["STGArrange"], dr.Values["PCArrange"])
		}
	}
	if !anyManual {
		t.Error("PCArrange never succeeded; dataset too hostile")
	}
}

// TestAllFiguresRun smoke-tests every runner end to end in quick mode.
func TestAllFiguresRun(t *testing.T) {
	figs := quickFigures(t)
	if len(figs) != 9 {
		t.Fatalf("All returned %d figures, want 9 (1a..1h and the ablation)", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) == 0 {
			t.Errorf("figure %s has no rows", f.ID)
		}
		if out := f.String(); len(out) == 0 {
			t.Errorf("figure %s renders empty", f.ID)
		}
		if out := f.Chart(70); len(out) == 0 {
			t.Errorf("figure %s chart renders empty", f.ID)
		}
	}
}

func TestFigureString(t *testing.T) {
	fig := Figure{
		ID: "x", Title: "test", XLabel: "p", Unit: "ns",
		Series: []string{"A"},
		Rows:   []Row{{X: "p=3", Values: map[string]float64{"A": 1500}}},
	}
	out := fig.String()
	if !strings.Contains(out, "Figure x") || !strings.Contains(out, "1.5µs") {
		t.Errorf("render wrong:\n%s", out)
	}
}

func TestChartRendering(t *testing.T) {
	fig := Figure{
		ID: "x", Title: "chart test", XLabel: "p", Unit: "ns",
		Series: []string{"A", "B"},
		Rows: []Row{
			{X: "p=3", Values: map[string]float64{"A": 1000, "B": 1000000}},
			{X: "p=4", Values: map[string]float64{"A": 2000}},
		},
	}
	out := fig.Chart(60)
	if !strings.Contains(out, "log scale") {
		t.Error("wide-range timing chart should use log scale")
	}
	if !strings.Contains(out, "infeasible") {
		t.Error("missing series value should render as infeasible")
	}
	if !strings.Contains(out, "1.0µs") || !strings.Contains(out, "1.00ms") {
		t.Errorf("chart labels wrong:\n%s", out)
	}
	// Tiny width is clamped, empty figures degrade gracefully.
	if got := (Figure{ID: "y", Title: "empty"}).Chart(5); !strings.Contains(got, "no data") {
		t.Errorf("empty chart = %q", got)
	}
	// Linear scale for quality figures.
	q := Figure{
		ID: "q", Title: "quality", Series: []string{"A"},
		Rows: []Row{{X: "p=3", Values: map[string]float64{"A": 5}}},
	}
	if strings.Contains(q.Chart(60), "log scale") {
		t.Error("quality chart must be linear")
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"1a", "1b", "1c", "1d", "1e", "1f", "1g", "1h", "ablation"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing figure %s", id)
		}
	}
	if _, ok := ByID("9z"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{1500 * time.Nanosecond, "1.5µs"},
		{2500 * time.Microsecond, "2.50ms"},
		{3 * time.Second, "3.00s"},
	}
	for _, c := range cases {
		if got := formatDuration(c.d); got != c.want {
			t.Errorf("formatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestPickInitiators(t *testing.T) {
	d, _ := RealSGQ(42)
	one := pickInitiators(d, Config{})
	if len(one) != 1 {
		t.Fatalf("default initiators = %d, want 1", len(one))
	}
	three := pickInitiators(d, Config{Initiators: 3})
	if len(three) != 3 {
		t.Fatalf("initiators = %d, want 3", len(three))
	}
	seen := map[int]bool{}
	for _, q := range three {
		if seen[q] {
			t.Error("duplicate initiator")
		}
		seen[q] = true
		deg := d.Graph.Degree(q)
		if deg < 15 || deg > 45 {
			t.Errorf("initiator %d degree %d far from the benchmark target", q, deg)
		}
	}
	// Deterministic.
	again := pickInitiators(d, Config{Initiators: 3})
	for i := range three {
		if three[i] != again[i] {
			t.Error("pickInitiators not deterministic")
		}
	}
	// Clamped to the population.
	all := pickInitiators(d, Config{Initiators: 10_000})
	if len(all) != d.Graph.NumVertices() {
		t.Errorf("oversized request returned %d", len(all))
	}
}

func TestMedianOver(t *testing.T) {
	calls := map[int]int{}
	v := medianOver([]int{1, 2, 3}, 2, func(q int) bool {
		calls[q]++
		return true
	})
	if v < 0 {
		t.Error("negative median")
	}
	for q, c := range calls {
		if c != 2 {
			t.Errorf("initiator %d ran %d times, want 2", q, c)
		}
	}
}

func TestMedianTime(t *testing.T) {
	n := 0
	v := medianTime(3, func() bool { n++; return true })
	if n != 3 || v < 0 {
		t.Errorf("medianTime ran %d times, value %v", n, v)
	}
	// trials < 1 clamps to 1.
	n = 0
	medianTime(0, func() bool { n++; return true })
	if n != 1 {
		t.Errorf("clamped trials ran %d times", n)
	}
}

// TestAblationShape: the ablation has a row for the default options and
// one per Disable* toggle, every row with all four series, and the same
// optimum on every row (the strategies are exact). Switching distance
// pruning off must cost search effort, and switching the core cascade off
// must not save any.
func TestAblationShape(t *testing.T) {
	fig := quickFigure(t, "ablation")
	if len(fig.Rows) != 8 || fig.Rows[0].X != "none" {
		t.Fatalf("rows %v: want none plus seven toggles", fig.Rows)
	}
	byX := map[string]Row{}
	for _, r := range fig.Rows {
		for _, s := range fig.Series {
			if _, ok := r.Values[s]; !ok {
				t.Fatalf("%s: missing series %s", r.X, s)
			}
		}
		if r.Values["TotalDistance"] != fig.Rows[0].Values["TotalDistance"] {
			t.Errorf("%s changed the optimum: %v vs %v", r.X, r.Values["TotalDistance"], fig.Rows[0].Values["TotalDistance"])
		}
		byX[r.X] = r
	}
	if full, off := byX["none"].Values["NodesExpanded"], byX["DistancePruning"].Values["NodesExpanded"]; off <= full {
		t.Errorf("distance pruning off expanded %v nodes, with it %v", off, full)
	}
	if full, off := byX["none"].Values["NodesExpanded"], byX["CoreCascade"].Values["NodesExpanded"]; off < full {
		t.Errorf("core cascade off expanded %v nodes, with it %v", off, full)
	}
}
