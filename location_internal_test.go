package stgq

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/socialgraph"
)

// TestPlanGeoActivityHugeRadiusReturns: a finite radius is valid however
// large, and a query carrying one must cost what any other costs. When the
// spatial filter scanned the grid cells under the radius, 1e9 m meant
// ~6·10¹³ cells walked under the planner's read lock — every writer
// stalled behind a query that never came back.
func TestPlanGeoActivityHugeRadiusReturns(t *testing.T) {
	d := dataset.Synthetic(600, 5, 1)
	pl := FromDataset(d)
	covers := 0.0 // a radius that merely reaches everyone
	for _, xy := range d.Locations {
		covers = math.Max(covers, geo.Point{X: xy[0], Y: xy[1]}.DistanceTo(geo.Point{}))
	}
	// ask returns the JSON answer, or the error's text.
	ask := func(initiator PersonID, radius float64) (string, bool) {
		type outcome struct {
			res *GeoPlanResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := pl.PlanGeoActivity(GSGQuery{
				SGQuery: SGQuery{Initiator: initiator, P: 4, S: 2, K: 1},
				Radius:  radius,
			})
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				return o.err.Error(), false
			}
			body, err := json.Marshal(o.res)
			if err != nil {
				t.Fatal(err)
			}
			return string(body), true
		case <-time.After(time.Second):
			t.Fatalf("initiator %d radius %g: no answer within a second", initiator, radius)
			return "", false
		}
	}
	feasible := 0
	for _, pct := range []int{10, 50, 90} {
		initiator := PersonID(d.PickInitiator(pct))
		want, ok := ask(initiator, covers)
		if ok {
			feasible++
		}
		for _, radius := range []float64{1e9, math.MaxFloat64 / 4} {
			if got, _ := ask(initiator, radius); got != want {
				t.Fatalf("initiator %d radius %g: %s, want the everyone-in-range answer %s", initiator, radius, got, want)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no initiator had a feasible group: the comparison proved nothing")
	}
}

// gridScanSpatial is the spatial vector as the planner built it while it
// kept a grid: every id the grid finds inside the radius goes into a map,
// and the ball's members are looked up in it. It is the oracle for the
// ball-side filter.
func gridScanSpatial(pl *Planner, rg *socialgraph.RadiusGraph, center geo.Point, radius float64) []float64 {
	grid := geo.NewGrid(DefaultGridCellSize)
	for p, pt := range pl.locations {
		grid.Insert(int(p), pt)
	}
	spat := make([]float64, rg.N())
	for i := range spat {
		spat[i] = -1
	}
	in := make(map[int]float64)
	for _, id := range grid.WithinRadius(center, radius, nil) {
		pt, _ := grid.Location(id)
		in[id] = pt.DistanceTo(center)
	}
	for v := 0; v < rg.N(); v++ {
		if d, ok := in[rg.Orig[v]]; ok {
			spat[v] = d
		}
	}
	return spat
}

// TestSpatialVectorMatchesGridScan: testing each ball member's own
// location gives exactly the vector the grid scan gave — on random
// planners where some members have no location, for radii that put a
// member exactly on the boundary (it is inside: the predicate is
// inclusive), and for centres far outside the population.
func TestSpatialVectorMatchesGridScan(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(60)
		pl := NewPlanner(4)
		for i := 0; i < n; i++ {
			pl.MustAddPerson("")
		}
		for i := 0; i < 3*n; i++ {
			pl.Connect(PersonID(r.Intn(n)), PersonID(r.Intn(n)), float64(1+r.Intn(9))) //nolint:errcheck // self loops are refused, which is fine
		}
		for p := 0; p < n; p++ {
			if r.Intn(4) == 0 {
				continue // unlocated
			}
			if err := pl.SetLocation(PersonID(p), (r.Float64()-0.5)*6000, (r.Float64()-0.5)*6000); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 40; trial++ {
			rg, _, _, err := pl.QueryView(PersonID(r.Intn(n)), 1+r.Intn(3), false)
			if err != nil {
				t.Fatal(err)
			}
			center := geo.Point{X: (r.Float64() - 0.5) * 6000, Y: (r.Float64() - 0.5) * 6000}
			radius := r.Float64() * 4000
			onBoundary := false
			switch trial % 4 {
			case 1: // some member exactly on the boundary
				if pt, ok := pl.locations[PersonID(rg.Orig[r.Intn(rg.N())])]; ok {
					radius, onBoundary = pt.DistanceTo(center), true
				}
			case 2: // far outside the population, out of everyone's reach
				center = geo.Point{X: 1e7, Y: -1e7}
			case 3: // far outside, reaching part of the population
				center = geo.Point{X: 1e5, Y: 0}
				radius = 1e5 + (r.Float64()-0.5)*3000
			}
			pl.mu.RLock()
			got := pl.spatialRLocked(rg, center, radius)
			pl.mu.RUnlock()
			want := gridScanSpatial(pl, rg, center, radius)
			inside := 0
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("seed %d trial %d: vertex %d (person %d): %v, grid scan says %v (centre %v radius %v)",
						seed, trial, v, rg.Orig[v], got[v], want[v], center, radius)
				}
				if want[v] >= 0 {
					inside++
				}
			}
			if onBoundary && inside == 0 {
				t.Fatalf("seed %d trial %d: the member at exactly the radius was left out", seed, trial)
			}
		}
	}
}
