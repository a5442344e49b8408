package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestDistanceTo(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
	if d := b.DistanceTo(b); d != 0 {
		t.Fatalf("self distance = %v, want 0", d)
	}
}

// TestProjectMatchesHaversine checks that planar distances between
// projected points stay within 0.5% of the true great-circle distance
// at city scale (≤ 30 km), which is what "haversine-style distance on a
// flat local projection" promises.
func TestProjectMatchesHaversine(t *testing.T) {
	const oLat, oLon = 40.4168, -3.7038 // Madrid
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		lat1 := oLat + (r.Float64()-0.5)*0.25 // ~±14 km
		lon1 := oLon + (r.Float64()-0.5)*0.25
		lat2 := oLat + (r.Float64()-0.5)*0.25
		lon2 := oLon + (r.Float64()-0.5)*0.25
		truth := Haversine(lat1, lon1, lat2, lon2)
		planar := Project(lat1, lon1, oLat, oLon).DistanceTo(Project(lat2, lon2, oLat, oLon))
		if truth < 1 {
			continue // sub-meter pairs: relative error meaningless
		}
		if rel := math.Abs(planar-truth) / truth; rel > 0.005 {
			t.Fatalf("projection error %.4f%% for (%.4f,%.4f)-(%.4f,%.4f): planar %.2f vs haversine %.2f",
				rel*100, lat1, lon1, lat2, lon2, planar, truth)
		}
	}
}

func TestGridInsertMoveRemove(t *testing.T) {
	g := NewGrid(100)
	g.Insert(1, Point{10, 10})
	g.Insert(2, Point{500, 500})
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if p, ok := g.Location(1); !ok || p != (Point{10, 10}) {
		t.Fatalf("Location(1) = %v,%v", p, ok)
	}
	// Move within the same cell and across cells.
	g.Move(1, Point{20, 20})
	g.Move(2, Point{-500, -500})
	if p, _ := g.Location(1); p != (Point{20, 20}) {
		t.Fatalf("after move, Location(1) = %v", p)
	}
	got := g.WithinRadius(Point{0, 0}, 50, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("WithinRadius after move = %v, want [1]", got)
	}
	g.Remove(2)
	g.Remove(2) // absent: no-op
	if g.Len() != 1 {
		t.Fatalf("Len after remove = %d, want 1", g.Len())
	}
	if _, ok := g.Location(2); ok {
		t.Fatal("Location(2) still present after Remove")
	}
}

func TestNewGridPanicsOnBadCellSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0) did not panic")
		}
	}()
	NewGrid(0)
}

// TestWithinRadiusMatchesBruteForce is the exactness contract: the grid
// scan returns precisely the brute-force Euclidean filter's set, for
// many random populations, centers, radii and cell sizes (including
// negative coordinates, which exercise the floor-based cell mapping).
// Every third trial asks for a huge radius — a bounding square of up to
// ~10^300 cells, whose coordinates overflow int — which must come back
// from a walk of the occupied cells, not of the coordinate range.
func TestWithinRadiusMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, cell := range []float64{25, 100, 1000} {
		g := NewGrid(cell)
		pts := make(map[int]Point)
		for id := 0; id < 300; id++ {
			p := Point{X: (r.Float64() - 0.5) * 4000, Y: (r.Float64() - 0.5) * 4000}
			g.Insert(id, p)
			pts[id] = p
		}
		for trial := 0; trial < 50; trial++ {
			center := Point{X: (r.Float64() - 0.5) * 4000, Y: (r.Float64() - 0.5) * 4000}
			radius := r.Float64() * 1500
			if trial%3 == 2 {
				radius = []float64{1e9, math.MaxFloat64 / 4}[trial%2]
			}
			var want []int
			for id, p := range pts {
				if p.DistanceTo(center) <= radius {
					want = append(want, id)
				}
			}
			got := g.WithinRadius(center, radius, nil)
			sort.Ints(want)
			sort.Ints(got)
			if !equalInts(got, want) {
				t.Fatalf("cell %v trial %d: grid %v vs brute force %v", cell, trial, got, want)
			}
		}
	}
}

func TestWithinRadiusAppendsToDst(t *testing.T) {
	g := NewGrid(50)
	g.Insert(7, Point{1, 1})
	dst := []int{99}
	out := g.WithinRadius(Point{0, 0}, 10, dst)
	if len(out) != 2 || out[0] != 99 || out[1] != 7 {
		t.Fatalf("append-to-dst result = %v", out)
	}
	if g.WithinRadius(Point{0, 0}, -1, nil) != nil {
		t.Fatal("negative radius should return nothing")
	}
}

func TestKNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, cell := range []float64{30, 200} {
		g := NewGrid(cell)
		pts := make(map[int]Point)
		for id := 0; id < 200; id++ {
			p := Point{X: (r.Float64() - 0.5) * 3000, Y: (r.Float64() - 0.5) * 3000}
			g.Insert(id, p)
			pts[id] = p
		}
		for trial := 0; trial < 30; trial++ {
			center := Point{X: (r.Float64() - 0.5) * 3000, Y: (r.Float64() - 0.5) * 3000}
			k := 1 + r.Intn(12)
			got := g.KNearest(center, k)
			want := bruteKNearest(pts, center, k)
			if !equalInts(got, want) {
				t.Fatalf("cell %v trial %d k=%d: grid %v vs brute force %v", cell, trial, k, got, want)
			}
		}
	}
}

func TestKNearestEdgeCases(t *testing.T) {
	g := NewGrid(100)
	if got := g.KNearest(Point{}, 3); got != nil {
		t.Fatalf("empty grid KNearest = %v", got)
	}
	g.Insert(1, Point{5, 5})
	g.Insert(2, Point{900, 900})
	if got := g.KNearest(Point{}, 0); got != nil {
		t.Fatalf("k=0 KNearest = %v", got)
	}
	got := g.KNearest(Point{}, 10)
	if !equalInts(got, []int{1, 2}) {
		t.Fatalf("k beyond population = %v, want [1 2]", got)
	}
}

func bruteKNearest(pts map[int]Point, center Point, k int) []int {
	type cand struct {
		id   int
		dist float64
	}
	all := make([]cand, 0, len(pts))
	for id, p := range pts {
		all = append(all, cand{id, p.DistanceTo(center)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]int, len(all))
	for i, c := range all {
		out[i] = c.id
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
