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
		calUser := make([]int, nn)
		for i := range calUser {
			calUser[i] = i
		}
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
