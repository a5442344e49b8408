package main

import (
	"math"
	"sort"
)

// minBeyond is the guide's rule for reporting a percentile: at least this
// many samples must lie beyond it, or the tail is an anecdote.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-th percentile (0 < q ≤ 100) of the raw
// samples: the smallest sample with at least q % of the samples at or
// below it. No interpolation, no buckets. beyond is how many samples lie
// strictly above the rank; callers compare it with minBeyond.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	rank := nearestRank(len(xs), q)
	return sorted(xs)[rank-1], len(xs) - rank
}

// nearestRank is the 1-based rank of the q-th percentile among n ≥ 1
// samples.
func nearestRank(n int, q float64) int {
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		return 1
	}
	if rank > n {
		return n
	}
	return rank
}

// supported reports whether the q-th percentile of n samples has at least
// need samples beyond it.
func supported(n int, q float64, need int) bool {
	return n > 0 && n-nearestRank(n, q) >= need
}

// median is the middle sample (mean of the two middle ones when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1 and Q3 by the method of Python's
// statistics.quantiles(values, n=4) — the "exclusive" method, positions
// (n+1)/4 and 3(n+1)/4 with linear interpolation — because that is what
// the acceptance driver computes. Fewer than two samples have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	at := func(i int) float64 {
		j := i * (n + 1) / 4 // 1-based position floor
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is (Q3−Q1)/median: the run-to-run spread as a share of the
// median, the quantity every bound in BENCHMARK.json is compared with.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(m)
}

// passSpread is (max−min)/median over the measured passes of one run.
func passSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}
