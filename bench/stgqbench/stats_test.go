package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, tc := range []struct {
		name       string
		xs         []float64
		q          float64
		want       float64
		wantBeyond int
	}{
		{"p50 of ten is the 5th smallest", ten, 50, 5, 5},
		{"p95 of ten is the largest", ten, 95, 10, 0},
		{"p90 of ten is the 9th", ten, 90, 9, 1},
		{"p100", ten, 100, 10, 0},
		{"tiny q clamps to the smallest", ten, 0.001, 1, 9},
		{"one sample", []float64{7}, 50, 7, 0},
		{"no interpolation between two", []float64{1, 2}, 50, 1, 1},
		{"p75 of four", []float64{4, 1, 3, 2}, 75, 3, 1},
	} {
		got, beyond := percentile(tc.xs, tc.q)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("%s: percentile = %v with %d beyond, want %v with %d", tc.name, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("percentile of nothing = %v, want NaN", v)
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestSupportedTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{0, 50, false},
		{19, 50, false}, // rank 10, 9 beyond
		{20, 50, true},  // rank 10, 10 beyond
		{199, 95, false},
		{200, 95, true}, // rank 190, 10 beyond
		{999, 99, false},
		{1000, 99, true},
	} {
		if got := supported(tc.n, tc.q, minBeyond); got != tc.want {
			t.Errorf("supported(n=%d, p%g) = %t, want %t", tc.n, tc.q, got, tc.want)
		}
	}
}

func TestMedianAndMean(t *testing.T) {
	for _, tc := range []struct {
		xs           []float64
		median, mean float64
	}{
		{[]float64{3}, 3, 3},
		{[]float64{4, 1}, 2.5, 2.5},
		{[]float64{9, 1, 5}, 5, 5},
		{[]float64{1, 2, 3, 100}, 2.5, 26.5},
		{[]float64{5, 4, 3, 2, 1}, 3, 3},
	} {
		if got := median(tc.xs); got != tc.median {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.median)
		}
		if got := mean(tc.xs); got != tc.mean {
			t.Errorf("mean(%v) = %v, want %v", tc.xs, got, tc.mean)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints: the acceptance driver computes its spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 4}, 1, 4},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSpreads(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got, want := passSpread([]float64{10, 12, 11, 9, 13}), 4.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("passSpread = %v, want %v", got, want)
	}
	if got := passSpread([]float64{5, 5, 5}); got != 0 {
		t.Errorf("passSpread of equal passes = %v, want 0", got)
	}
}
