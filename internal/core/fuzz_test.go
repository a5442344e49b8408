package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// decodeGraph deterministically maps fuzz bytes to a small weighted graph,
// query parameters, and (optionally) schedules. Every byte sequence decodes
// to a valid instance, so the fuzzer explores the query space freely.
func decodeGraph(data []byte) (*socialgraph.RadiusGraph, int, int) {
	if len(data) < 3 {
		data = append(data, 1, 2, 3)
	}
	n := int(data[0])%8 + 3 // 3..10 vertices
	p := int(data[1])%4 + 2 // 2..5
	k := int(data[2]) % 3   // 0..2
	g := socialgraph.New()
	g.AddVertices(n)
	idx := 3
	next := func() byte {
		if idx >= len(data) {
			idx = 3
			return 0
		}
		b := data[idx]
		idx++
		return b
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b := next()
			if b%3 != 0 { // ~2/3 edge density, fuzz-controlled
				g.MustAddEdge(u, v, float64(b%29+1))
			}
		}
	}
	rg, err := g.ExtractRadiusGraph(0, int(next())%2+1)
	if err != nil {
		panic(err)
	}
	return rg, p, k
}

// decodeCalendar maps fuzz bytes to schedules of nn users over a horizon
// of a few slots more than m; about three slots in four are available.
func decodeCalendar(data []byte, nn, m int) *schedule.Calendar {
	horizon := int(data[4])%10 + m + 2
	cal := schedule.NewCalendar(nn, horizon)
	for u := 0; u < nn; u++ {
		for s := 0; s < horizon; s++ {
			b := data[(int(data[5])+u*7+s*3)%len(data)]
			if b%4 != 0 {
				cal.SetAvailable(u, s)
			}
		}
	}
	return cal
}

// FuzzSGSelectMatchesBruteForce cross-checks the optimized search against
// exhaustive enumeration on fuzz-shaped instances (Theorem 2 under fire).
func FuzzSGSelectMatchesBruteForce(f *testing.F) {
	f.Add([]byte{5, 3, 1, 7, 200, 13, 90, 41, 1, 2, 3, 4, 5})
	f.Add([]byte{9, 4, 0, 255, 254, 253, 1, 0, 9, 8, 7, 6, 5, 4, 3})
	f.Add([]byte{3, 2, 2, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		rg, p, k := decodeGraph(data)
		want, _ := bruteSGQ(rg, p, k)
		got, _, err := SGSelect(rg, p, k, nil, DefaultOptions())
		if err != nil {
			if err != ErrNoFeasibleGroup || !math.IsInf(want, 1) {
				t.Fatalf("SGSelect err %v, brute %v", err, want)
			}
			return
		}
		if got.TotalDistance != want {
			t.Fatalf("SGSelect %v != brute %v (p=%d k=%d n=%d)", got.TotalDistance, want, p, k, rg.N())
		}
	})
}

// FuzzSTGSelectMatchesBruteForce does the same for the temporal query, and
// checks every rule firing of the search against the completions it drops
// (falsifyFiring).
func FuzzSTGSelectMatchesBruteForce(f *testing.F) {
	f.Add([]byte{5, 3, 1, 7, 200, 13, 90, 41, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 2, 0, 1, 2, 3, 250, 249, 248, 200, 100, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		rg, p, k := decodeGraph(data)
		nn := rg.N()
		if len(data) < 6 {
			return
		}
		m := int(data[3])%3 + 2
		cal := decodeCalendar(data, nn, m)
		calUser := identityUsers(nn)
		want := bruteSTGQ(rg, cal, calUser, p, k, m)
		var got *STGroup
		var err error
		witnessRun(t, map[string]int{}, fmt.Sprintf("p=%d k=%d m=%d", p, k, m), func() {
			got, _, err = STGSelect(rg, cal, calUser, p, k, m, DefaultOptions())
		})
		if err != nil {
			if err != ErrNoFeasibleGroup || !math.IsInf(want, 1) {
				t.Fatalf("STGSelect err %v, brute %v", err, want)
			}
			return
		}
		if got.TotalDistance != want {
			t.Fatalf("STGSelect %v != brute %v (p=%d k=%d m=%d)", got.TotalDistance, want, p, k, m)
		}
		// The reported interval must be genuinely common.
		for _, v := range got.Members {
			for s := got.Interval.Start; s <= got.Interval.End; s++ {
				if !cal.Available(calUser[v], s) {
					t.Fatalf("member %d busy at slot %d of the reported interval", v, s)
				}
			}
		}
	})
}

// FuzzGSGSelectMatchesBruteForce does the same for the geo-social query,
// both its purely geo-social search (m = 0) and its pivot search (m ≥ 1),
// with each vertex's spatial distance, or its spatial ineligibility,
// decoded from the fuzz bytes.
func FuzzGSGSelectMatchesBruteForce(f *testing.F) {
	f.Add([]byte{5, 3, 1, 4, 200, 13, 90, 41, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{6, 2, 0, 1, 2, 3, 250, 249, 248, 200, 100, 50})
	f.Add([]byte{9, 4, 1, 0, 254, 253, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		rg, p, k := decodeGraph(data)
		nn := rg.N()
		if len(data) < 6 {
			return
		}
		spat := make([]float64, nn)
		for v := range spat {
			// Whole metres, so that the brute force compares exact sums.
			if b := data[(int(data[2])+v*5)%len(data)]; b%5 == 0 {
				spat[v] = -1
			} else {
				spat[v] = float64(b % 23)
			}
		}
		m := int(data[3]) % 4
		var cal *schedule.Calendar
		var calUser []int
		var avail func(v, start int) bool
		horizon := 0
		if m >= 1 {
			cal, calUser = decodeCalendar(data, nn, m), identityUsers(nn)
			avail = func(v, start int) bool { return cal.AvailableDuring(v, start, m) }
			horizon = cal.Horizon()
		}
		want := bruteGSGQ(rg, rg.Dist, spat, avail, horizon, p, k, m)
		var got *STGroup
		var err error
		witnessRun(t, map[string]int{}, fmt.Sprintf("p=%d k=%d m=%d", p, k, m), func() {
			got, _, err = GSGSelect(rg, spat, cal, calUser, p, k, m, DefaultOptions())
		})
		if err != nil {
			if err != ErrNoFeasibleGroup || !math.IsInf(want, 1) {
				t.Fatalf("GSGSelect err %v, brute %v", err, want)
			}
			return
		}
		if got.TotalDistance != want {
			t.Fatalf("GSGSelect %v != brute %v (p=%d k=%d m=%d)", got.TotalDistance, want, p, k, m)
		}
		for _, v := range got.Members {
			if spat[v] < 0 {
				t.Fatalf("spatially ineligible member %d selected", v)
			}
			for s := got.Interval.Start; m >= 1 && s <= got.Interval.End; s++ {
				if !cal.Available(v, s) {
					t.Fatalf("member %d busy at slot %d of the reported interval", v, s)
				}
			}
		}
	})
}
