package geo_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// BenchmarkGeoGrid sweeps the grid cell size for a fixed clustered
// population and query radius: small cells scan many near-empty cells,
// large cells distance-check many non-matching members. The sweep is
// the data behind the cell-size default; an R-tree stays deferred until
// this benchmark says the grid lost.
func BenchmarkGeoGrid(b *testing.B) {
	const (
		population = 20_000
		radius     = 500.0 // meters — a walkable activity radius
		extent     = 20_000.0
	)
	r := rand.New(rand.NewSource(1))
	// Clustered like a synthetic community population: 40 hotspots with
	// Gaussian spread, matching how dataset.Synthetic places people.
	centers := make([]geo.Point, 40)
	for i := range centers {
		centers[i] = geo.Point{X: r.Float64() * extent, Y: r.Float64() * extent}
	}
	pts := make([]geo.Point, population)
	for i := range pts {
		c := centers[r.Intn(len(centers))]
		pts[i] = geo.Point{X: c.X + r.NormFloat64()*400, Y: c.Y + r.NormFloat64()*400}
	}

	for _, cell := range []float64{50, 250, 1000, 4000} {
		name := fmt.Sprintf("WithinRadius/cell=%v", cell)
		b.Run(name, func(b *testing.B) {
			g := geo.NewGrid(cell)
			for id, p := range pts {
				g.Insert(id, p)
			}
			qr := rand.New(rand.NewSource(2))
			var dst []int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				center := pts[qr.Intn(len(pts))]
				dst = g.WithinRadius(center, radius, dst[:0])
			}
		})
	}

	b.Run("Insert/cell=250", func(b *testing.B) {
		g := geo.NewGrid(250)
		for id, p := range pts {
			g.Insert(id, p)
		}
		mr := rand.New(rand.NewSource(3))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			id := mr.Intn(population)
			g.Move(id, geo.Point{X: mr.Float64() * extent, Y: mr.Float64() * extent})
		}
	})
}
