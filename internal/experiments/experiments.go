// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5, Figure 1(a)–(h)). Each runner returns a Figure
// whose rows mirror the series the paper plots, and Ablation prices each
// pruning strategy in search effort; cmd/stgqexp prints them.
//
// Absolute numbers differ from the paper's 2008-era IBM x3650 — what must
// hold is the shape: who wins, by how much, and how the gap moves with each
// parameter. EXPERIMENTS.md records paper-vs-measured for every figure.
package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/coordinate"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ipmodel"
	"repro/internal/socialgraph"
)

// Config controls dataset seeds and sweep sizes.
type Config struct {
	// Seed drives every dataset generation.
	Seed int64
	// Trials is the number of timing repetitions; the median is reported.
	Trials int
	// Initiators averages each point over this many distinct initiators
	// with ego networks near the benchmark scale (0 or 1 = the single
	// default initiator). The SGQ sweeps (Figures 1(a)–(c)) honor it.
	Initiators int
	// Quick trims the sweeps (used by -short tests).
	Quick bool
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config { return Config{Seed: 42, Trials: 3} }

// pickInitiators returns cfg.Initiators distinct vertices whose degrees are
// closest to the benchmark target, deterministically.
func pickInitiators(d *dataset.Dataset, cfg Config) []int {
	count := cfg.Initiators
	if count < 1 {
		count = 1
	}
	type vd struct{ v, diff int }
	n := d.Graph.NumVertices()
	all := make([]vd, n)
	for v := 0; v < n; v++ {
		diff := d.Graph.Degree(v) - 30
		if diff < 0 {
			diff = -diff
		}
		all[v] = vd{v, diff}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].diff != all[j].diff {
			return all[i].diff < all[j].diff
		}
		return all[i].v < all[j].v
	})
	if count > n {
		count = n
	}
	out := make([]int, count)
	for i := 0; i < count; i++ {
		out[i] = all[i].v
	}
	return out
}

// medianOver runs fn for every initiator and returns the median of the
// per-initiator medians.
func medianOver(initiators []int, trials int, fn func(q int) bool) float64 {
	vals := make([]float64, 0, len(initiators))
	for _, q := range initiators {
		vals = append(vals, medianTime(trials, func() bool { return fn(q) }))
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// Figure is one reproduced figure: a set of series sampled over an x sweep.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Unit   string // "ns", "ms", "count", or "" for quality metrics
	Series []string
	Rows   []Row
}

// Row is one x position of a figure.
type Row struct {
	X      string
	Values map[string]float64
}

// String renders the figure as an aligned text table.
func (f Figure) String() string {
	var b strings.Builder
	xw := len(f.XLabel)
	for _, r := range f.Rows {
		xw = max(xw, len(r.X))
	}
	xw = max(xw+1, 14)
	fmt.Fprintf(&b, "Figure %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-*s", xw, f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%20s", s)
	}
	b.WriteByte('\n')
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-*s", xw, r.X)
		for _, s := range f.Series {
			v, ok := r.Values[s]
			switch {
			case !ok || math.IsNaN(v):
				fmt.Fprintf(&b, "%20s", "—")
			case f.Unit == "ns":
				fmt.Fprintf(&b, "%20s", formatDuration(time.Duration(v)))
			case f.Unit == "count" && v == math.Trunc(v):
				fmt.Fprintf(&b, "%20.0f", v)
			default:
				fmt.Fprintf(&b, "%20.2f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// medianTime runs fn trials times and returns the median duration in
// nanoseconds. NaN is returned when fn reports failure (infeasible point).
func medianTime(trials int, fn func() bool) float64 {
	if trials < 1 {
		trials = 1
	}
	times := make([]float64, 0, trials)
	ok := true
	for i := 0; i < trials; i++ {
		t0 := time.Now()
		ok = fn() && ok
		times = append(times, float64(time.Since(t0).Nanoseconds()))
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// RealSGQ is the shared SGQ benchmark instance: the 194-person dataset with
// 3-day schedules and a busy initiator (~30 direct friends, the paper's
// ego-network scale).
func RealSGQ(seed int64) (*dataset.Dataset, int) {
	d := dataset.Real194(seed, 3)
	return d, d.PickByDegree(30)
}

// RealSTGQ is the shared STGQ instance: 7-day schedules (so large m stays
// plannable on weekends, as discussed in DESIGN.md).
func RealSTGQ(seed int64, days int) (*dataset.Dataset, int) {
	d := dataset.Real194(seed, days)
	return d, d.PickByDegree(30)
}

// Radius extracts the feasible graph, panicking on programmer error (the
// datasets guarantee connectivity).
func Radius(d *dataset.Dataset, q, s int) *socialgraph.RadiusGraph {
	rg, err := d.Graph.ExtractRadiusGraph(q, s)
	if err != nil {
		panic(err)
	}
	return rg
}

// Fig1a — SGQ running time vs p (k=2, s=1): SGSelect vs Baseline vs IP.
func Fig1a(cfg Config) Figure {
	d, _ := RealSGQ(cfg.Seed)
	qs := pickInitiators(d, cfg)
	rgs := make(map[int]*socialgraph.RadiusGraph, len(qs))
	for _, q := range qs {
		rgs[q] = Radius(d, q, 1)
	}
	ps := []int{3, 4, 5, 6, 7, 8, 9, 10, 11}
	if cfg.Quick {
		ps = []int{3, 5, 7}
	}
	fig := Figure{
		ID: "1a", Title: "SGQ running time vs p (k=2, s=1, real-194)",
		XLabel: "p", Unit: "ns",
		Series: []string{"SGSelect", "Baseline", "IP"},
	}
	for _, p := range ps {
		row := Row{X: fmt.Sprintf("p=%d", p), Values: map[string]float64{}}
		row.Values["SGSelect"] = medianOver(qs, cfg.Trials, func(q int) bool {
			_, _, err := core.SGSelect(rgs[q], p, 2, nil, core.DefaultOptions())
			return err == nil
		})
		row.Values["Baseline"] = medianOver(qs, cfg.Trials, func(q int) bool {
			_, err := baseline.SGQ(rgs[q], p, 2, nil)
			return err == nil
		})
		row.Values["IP"] = medianOver(qs, cfg.Trials, func(q int) bool {
			_, err := ipmodel.SGQReduced(rgs[q], p, 2, ipmodel.SolveOptions{})
			return err == nil
		})
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Fig1b — SGQ running time vs s (p=4, k=2): SGSelect vs Baseline.
func Fig1b(cfg Config) Figure {
	d, _ := RealSGQ(cfg.Seed)
	qs := pickInitiators(d, cfg)
	ss := []int{1, 3, 5}
	if cfg.Quick {
		ss = []int{1, 3}
	}
	fig := Figure{
		ID: "1b", Title: "SGQ running time vs s (p=4, k=2, real-194)",
		XLabel: "s", Unit: "ns",
		Series: []string{"SGSelect", "Baseline"},
	}
	for _, s := range ss {
		rgs := make(map[int]*socialgraph.RadiusGraph, len(qs))
		for _, q := range qs {
			rgs[q] = Radius(d, q, s)
		}
		row := Row{X: fmt.Sprintf("s=%d", s), Values: map[string]float64{}}
		row.Values["SGSelect"] = medianOver(qs, cfg.Trials, func(q int) bool {
			_, _, err := core.SGSelect(rgs[q], 4, 2, nil, core.DefaultOptions())
			return err == nil
		})
		row.Values["Baseline"] = medianOver(qs, cfg.Trials, func(q int) bool {
			_, err := baseline.SGQ(rgs[q], 4, 2, nil)
			return err == nil
		})
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Fig1c — SGQ running time vs k (p=5, s=2): SGSelect vs Baseline.
func Fig1c(cfg Config) Figure {
	d, _ := RealSGQ(cfg.Seed)
	qs := pickInitiators(d, cfg)
	rgs := make(map[int]*socialgraph.RadiusGraph, len(qs))
	for _, q := range qs {
		rgs[q] = Radius(d, q, 2)
	}
	ks := []int{1, 2, 3, 4, 5, 6}
	if cfg.Quick {
		ks = []int{1, 3}
	}
	fig := Figure{
		ID: "1c", Title: "SGQ running time vs k (p=5, s=2, real-194)",
		XLabel: "k", Unit: "ns",
		Series: []string{"SGSelect", "Baseline"},
	}
	for _, k := range ks {
		row := Row{X: fmt.Sprintf("k=%d", k), Values: map[string]float64{}}
		row.Values["SGSelect"] = medianOver(qs, cfg.Trials, func(q int) bool {
			_, _, err := core.SGSelect(rgs[q], 5, k, nil, core.DefaultOptions())
			return err == nil
		})
		row.Values["Baseline"] = medianOver(qs, cfg.Trials, func(q int) bool {
			_, err := baseline.SGQ(rgs[q], 5, k, nil)
			return err == nil
		})
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Fig1dSizes is the network-size sweep of Figure 1(d).
var Fig1dSizes = []int{194, 800, 3200, 12800}

// Fig1dInstance builds one synthetic instance of the Figure 1(d) sweep with
// an initiator of comparable ego-network size across scales.
func Fig1dInstance(n int, seed int64) (*dataset.Dataset, *socialgraph.RadiusGraph) {
	d := dataset.Synthetic(n, seed, 1)
	q := d.PickByDegree(30)
	return d, Radius(d, q, 1)
}

// Fig1d — SGQ running time vs network size (p=5, k=3, s=1): SGSelect vs
// Baseline vs IP on the synthetic coauthorship-style networks.
func Fig1d(cfg Config) Figure {
	sizes := Fig1dSizes
	if cfg.Quick {
		sizes = []int{194, 800}
	}
	fig := Figure{
		ID: "1d", Title: "SGQ running time vs network size (p=5, k=3, s=1, synthetic)",
		XLabel: "n", Unit: "ns",
		Series: []string{"SGSelect", "Baseline", "IP"},
	}
	for _, n := range sizes {
		_, rg := Fig1dInstance(n, cfg.Seed)
		row := Row{X: fmt.Sprintf("n=%d", n), Values: map[string]float64{}}
		row.Values["SGSelect"] = medianTime(cfg.Trials, func() bool {
			_, _, err := core.SGSelect(rg, 5, 3, nil, core.DefaultOptions())
			return err == nil
		})
		row.Values["Baseline"] = medianTime(cfg.Trials, func() bool {
			_, err := baseline.SGQ(rg, 5, 3, nil)
			return err == nil
		})
		row.Values["IP"] = medianTime(cfg.Trials, func() bool {
			_, err := ipmodel.SGQReduced(rg, 5, 3, ipmodel.SolveOptions{})
			return err == nil
		})
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Fig1e — STGQ running time vs m (p=5, s=2, k=2, 7-day schedules):
// STGSelect vs the sequential baseline (exhaustive SGQ per activity
// period), plus the SGSelect-backed sequential variant as a pivot ablation.
func Fig1e(cfg Config) Figure {
	d, q := RealSTGQ(cfg.Seed, 7)
	rg := Radius(d, q, 2)
	calUser := dataset.CalUsers(rg)
	ms := []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}
	if cfg.Quick {
		ms = []int{2, 8, 24}
	}
	fig := Figure{
		ID: "1e", Title: "STGQ running time vs m (p=5, s=2, k=2, real-194, 7 days)",
		XLabel: "m (0.5 hour)", Unit: "ns",
		Series: []string{"STGSelect", "Baseline", "Seq-SGSelect"},
	}
	for _, m := range ms {
		row := Row{X: fmt.Sprintf("m=%d", m), Values: map[string]float64{}}
		row.Values["STGSelect"] = medianTime(cfg.Trials, func() bool {
			_, _, err := core.STGSelect(rg, d.Cal, calUser, 5, 2, m, core.DefaultOptions())
			return err == nil
		})
		row.Values["Baseline"] = medianTime(cfg.Trials, func() bool {
			_, err := baseline.STGQExhaustive(rg, d.Cal, calUser, 5, 2, m)
			return err == nil
		})
		row.Values["Seq-SGSelect"] = medianTime(cfg.Trials, func() bool {
			_, err := baseline.STGQ(rg, d.Cal, calUser, 5, 2, m, core.DefaultOptions())
			return err == nil
		})
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Fig1f — STGQ running time vs schedule length in days (p=5, s=2, k=2,
// m=4): STGSelect vs the sequential baseline.
func Fig1f(cfg Config) Figure {
	days := []int{1, 2, 3, 4, 5, 6, 7}
	if cfg.Quick {
		days = []int{1, 3}
	}
	fig := Figure{
		ID: "1f", Title: "STGQ running time vs schedule length (p=5, s=2, k=2, m=4, real-194)",
		XLabel: "days", Unit: "ns",
		Series: []string{"STGSelect", "Baseline", "Seq-SGSelect"},
	}
	for _, dd := range days {
		d, q := RealSTGQ(cfg.Seed, dd)
		rg := Radius(d, q, 2)
		calUser := dataset.CalUsers(rg)
		row := Row{X: fmt.Sprintf("days=%d", dd), Values: map[string]float64{}}
		row.Values["STGSelect"] = medianTime(cfg.Trials, func() bool {
			_, _, err := core.STGSelect(rg, d.Cal, calUser, 5, 2, 4, core.DefaultOptions())
			return err == nil
		})
		row.Values["Baseline"] = medianTime(cfg.Trials, func() bool {
			_, err := baseline.STGQExhaustive(rg, d.Cal, calUser, 5, 2, 4)
			return err == nil
		})
		row.Values["Seq-SGSelect"] = medianTime(cfg.Trials, func() bool {
			_, err := baseline.STGQ(rg, d.Cal, calUser, 5, 2, 4, core.DefaultOptions())
			return err == nil
		})
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// QualityPoint is one p value of the Figure 1(g)/(h) comparison.
type QualityPoint struct {
	P int
	// PCArrange outcome.
	ManualK        int
	ManualDistance float64
	ManualOK       bool
	// STGArrange outcome.
	ArrangeK        int
	ArrangeDistance float64
	ArrangeOK       bool
}

// Quality runs the PCArrange vs STGArrange comparison (s=2, m=4) over the p
// sweep shared by Figures 1(g) and 1(h). The horizon is a single (busy)
// weekday: manual coordination only degrades when schedules actually
// conflict, and over a whole week the closest friends almost always share
// some two-hour window.
func Quality(cfg Config) []QualityPoint {
	d, q := RealSTGQ(cfg.Seed, 1)
	rg := Radius(d, q, 2)
	calUser := dataset.CalUsers(rg)
	ps := []int{3, 4, 5, 6, 7, 8, 9, 10, 11}
	if cfg.Quick {
		ps = []int{3, 5, 7}
	}
	var out []QualityPoint
	for _, p := range ps {
		pt := QualityPoint{P: p}
		pc, err := coordinate.PCArrange(rg, d.Cal, calUser, p, 4)
		if err == nil {
			pt.ManualOK = true
			pt.ManualK = pc.ObservedK
			pt.ManualDistance = pc.TotalDistance
			res, err2 := coordinate.STGArrange(rg, d.Cal, calUser, p, 4, pc.TotalDistance, p-1, core.DefaultOptions())
			if err2 == nil {
				pt.ArrangeOK = true
				pt.ArrangeK = res.K
				pt.ArrangeDistance = res.Answer.TotalDistance
			}
		}
		out = append(out, pt)
	}
	return out
}

// Fig1g formats the Quality sweep as the k comparison of Figure 1(g).
func Fig1g(cfg Config) Figure {
	fig := Figure{
		ID: "1g", Title: "solution quality: k vs p (s=2, m=4, real-194)",
		XLabel: "p",
		Series: []string{"STGArrange k", "PCArrange k_h"},
	}
	for _, pt := range Quality(cfg) {
		row := Row{X: fmt.Sprintf("p=%d", pt.P), Values: map[string]float64{}}
		if pt.ArrangeOK {
			row.Values["STGArrange k"] = float64(pt.ArrangeK)
		}
		if pt.ManualOK {
			row.Values["PCArrange k_h"] = float64(pt.ManualK)
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Fig1h formats the Quality sweep as the total-distance comparison of
// Figure 1(h).
func Fig1h(cfg Config) Figure {
	fig := Figure{
		ID: "1h", Title: "solution quality: total distance vs p (s=2, m=4, real-194)",
		XLabel: "p",
		Series: []string{"STGArrange", "PCArrange"},
	}
	for _, pt := range Quality(cfg) {
		row := Row{X: fmt.Sprintf("p=%d", pt.P), Values: map[string]float64{}}
		if pt.ArrangeOK {
			row.Values["STGArrange"] = pt.ArrangeDistance
		}
		if pt.ManualOK {
			row.Values["PCArrange"] = pt.ManualDistance
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// Ablation — what each pruning strategy buys: one STGQ (p=6, s=2, k=2,
// m=4, real-194, 7 days; 1 day when quick) with nothing disabled, then
// with each core.Options Disable* toggle on in turn, counted in
// core.Stats. The strategies are exact, so the total distance is the same
// on every row.
func Ablation(cfg Config) Figure {
	days := 7
	if cfg.Quick {
		days = 1
	}
	d, q := RealSTGQ(cfg.Seed, days)
	rg := Radius(d, q, 2)
	calUser := dataset.CalUsers(rg)
	fig := Figure{
		ID: "ablation", Title: fmt.Sprintf("pruning ablation: STGQ search effort (p=6, s=2, k=2, m=4, real-194, %d-day schedules)", days),
		XLabel: "disabled", Unit: "count",
		Series: []string{"NodesExpanded", "VerticesExamined", "PivotsProcessed", "TotalDistance"},
	}
	toggles := []string{"none"}
	opts := reflect.TypeFor[core.Options]()
	for i := range opts.NumField() {
		if name, ok := strings.CutPrefix(opts.Field(i).Name, "Disable"); ok {
			toggles = append(toggles, name)
		}
	}
	for _, toggle := range toggles {
		opt := core.DefaultOptions()
		if toggle != "none" {
			reflect.ValueOf(&opt).Elem().FieldByName("Disable" + toggle).SetBool(true)
		}
		row := Row{X: toggle, Values: map[string]float64{}}
		if ans, st, err := core.STGSelect(rg, d.Cal, calUser, 6, 2, 4, opt); err == nil {
			row.Values["NodesExpanded"] = float64(st.NodesExpanded)
			row.Values["VerticesExamined"] = float64(st.VerticesExamined)
			row.Values["PivotsProcessed"] = float64(st.PivotsProcessed)
			row.Values["TotalDistance"] = ans.TotalDistance
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig
}

// All runs every figure in order.
func All(cfg Config) []Figure {
	return []Figure{
		Fig1a(cfg), Fig1b(cfg), Fig1c(cfg), Fig1d(cfg),
		Fig1e(cfg), Fig1f(cfg), Fig1g(cfg), Fig1h(cfg), Ablation(cfg),
	}
}

// ByID returns the runner for one figure id ("1a".."1h", "ablation").
func ByID(id string) (func(Config) Figure, bool) {
	m := map[string]func(Config) Figure{
		"1a": Fig1a, "1b": Fig1b, "1c": Fig1c, "1d": Fig1d,
		"1e": Fig1e, "1f": Fig1f, "1g": Fig1g, "1h": Fig1h,
		"ablation": Ablation,
	}
	f, ok := m[id]
	return f, ok
}
