// Package geo is the spatial subsystem behind the geo-social group
// queries (GSGSelect): planar points, haversine-style projection of
// geographic coordinates onto a flat local plane, and a uniform-grid
// spatial index with incremental insert/move/remove and
// k-nearest / within-radius queries.
//
// # Coordinate model
//
// Everything indexed and searched lives on a flat plane in meters
// (Point). Geographic coordinates enter through Project, an
// equirectangular ("haversine-style") projection around a fixed local
// origin: accurate to well under a percent at city scale, which is the
// paper's activity-planning setting. Keeping the index planar makes
// grid cell mapping and distance computation exactly consistent — a
// WithinRadius result is exactly the set a brute-force Distance scan
// would return, with no projection error between the pruning structure
// and the final filter. The engine's differential tests rely on that
// exactness.
//
// # Index choice
//
// The index is a uniform grid (cell size chosen per deployment; see the
// benchmarks' cell-size sweep). Social populations at city scale are
// shallowly clustered rather than adversarially skewed, so a grid's
// O(1) incremental updates beat an R-tree's rebalancing on the mutation
// path — and location mutations (MutSetLocation) arrive continuously.
// An R-tree is deferred until profiling demands it.
//
// The planner does not keep a Grid: a geo-social query already knows its
// few hundred candidates (the initiator's s-hop ball) and tests each one's
// location with Point.DistanceTo, which is cheaper than asking a region
// for its thousands of occupants. The Grid serves callers that start from
// a region; its queries are bounded by the population whatever the radius.
package geo

import (
	"math"
	"sort"
)

// Point is a location on the flat local plane, in meters.
type Point struct {
	// X is the eastward offset from the local origin in meters.
	X float64
	// Y is the northward offset from the local origin in meters.
	Y float64
}

// DistanceTo returns the Euclidean distance to q in meters.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// EarthRadiusMeters is the mean Earth radius used by Project and
// Haversine.
const EarthRadiusMeters = 6_371_000

// Project maps geographic coordinates (degrees) onto the flat local
// plane around the given origin using the equirectangular
// approximation: X spans east–west scaled by the origin's parallel, Y
// spans north–south. Within the tens of kilometers a social activity
// query covers, the planar DistanceTo of two projected points agrees
// with the true great-circle distance to a small fraction of a percent
// (the package tests quantify it against Haversine).
func Project(latDeg, lonDeg, originLatDeg, originLonDeg float64) Point {
	latRad := latDeg * math.Pi / 180
	lonRad := lonDeg * math.Pi / 180
	oLatRad := originLatDeg * math.Pi / 180
	oLonRad := originLonDeg * math.Pi / 180
	return Point{
		X: (lonRad - oLonRad) * math.Cos(oLatRad) * EarthRadiusMeters,
		Y: (latRad - oLatRad) * EarthRadiusMeters,
	}
}

// Haversine returns the great-circle distance in meters between two
// geographic coordinates (degrees). It is the reference the projection
// accuracy tests compare against; query paths use the planar
// Point.DistanceTo.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	const rad = math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(a)))
}

// cellKey addresses one grid cell by its integer cell coordinates.
type cellKey struct{ cx, cy int }

// Grid is a uniform-grid spatial index over integer member ids. It
// supports incremental Insert/Move/Remove (O(cell occupancy) each) and
// the two query shapes the engine needs: WithinRadius (exact — the
// bounding-box cell scan is followed by a Euclidean distance check) and
// KNearest (expanding ring scan). The zero value is not usable; create
// with NewGrid.
//
// A Grid is not safe for concurrent use; the planner guards it with its
// own lock.
type Grid struct {
	cell  float64
	cells map[cellKey][]int
	loc   map[int]Point
}

// NewGrid creates an empty grid with the given cell size in meters.
// The cell size trades scan width against cell occupancy; the package
// benchmarks sweep it. Non-positive sizes panic: a zero cell would put
// every point in infinitely many cells.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) {
		panic("geo: grid cell size must be positive")
	}
	return &Grid{
		cell:  cellSize,
		cells: make(map[cellKey][]int),
		loc:   make(map[int]Point),
	}
}

// CellSize returns the grid's cell size in meters.
func (g *Grid) CellSize() float64 { return g.cell }

// Len returns the number of indexed members.
func (g *Grid) Len() int { return len(g.loc) }

// Location returns the indexed location of id, and whether id is
// present.
func (g *Grid) Location(id int) (Point, bool) {
	p, ok := g.loc[id]
	return p, ok
}

func (g *Grid) keyOf(p Point) cellKey {
	return cellKey{
		cx: int(math.Floor(p.X / g.cell)),
		cy: int(math.Floor(p.Y / g.cell)),
	}
}

// Insert indexes id at p. An id already present is moved (Insert and
// Move are the same operation; both exist so call sites read
// naturally).
func (g *Grid) Insert(id int, p Point) {
	if old, ok := g.loc[id]; ok {
		oldKey, newKey := g.keyOf(old), g.keyOf(p)
		if oldKey == newKey {
			g.loc[id] = p
			return
		}
		g.removeFromCell(oldKey, id)
	}
	key := g.keyOf(p)
	g.cells[key] = append(g.cells[key], id)
	g.loc[id] = p
}

// Move re-indexes id at p (identical to Insert; see Insert).
func (g *Grid) Move(id int, p Point) { g.Insert(id, p) }

// Remove drops id from the index; removing an absent id is a no-op.
func (g *Grid) Remove(id int) {
	p, ok := g.loc[id]
	if !ok {
		return
	}
	g.removeFromCell(g.keyOf(p), id)
	delete(g.loc, id)
}

func (g *Grid) removeFromCell(key cellKey, id int) {
	members := g.cells[key]
	for i, m := range members {
		if m == id {
			members[i] = members[len(members)-1]
			members = members[:len(members)-1]
			break
		}
	}
	if len(members) == 0 {
		delete(g.cells, key)
	} else {
		g.cells[key] = members
	}
}

// WithinRadius appends to dst every indexed id whose location is within
// radius meters of center (inclusive) and returns the extended slice.
// The result is exact: cells overlapping the bounding square are
// scanned and each member is distance-checked, so the ids returned are
// precisely those a brute-force scan over all locations would keep.
// Order is unspecified. A non-positive radius returns only members at
// exactly center (radius 0) or nothing (negative).
//
// The work is bounded by the population, not by the radius: a bounding
// square spanning more cells than are occupied is answered by walking the
// occupied cells, so a caller-chosen radius cannot buy an unbounded loop.
func (g *Grid) WithinRadius(center Point, radius float64, dst []int) []int {
	if radius < 0 || len(g.loc) == 0 {
		return dst
	}
	keep := func(members []int) {
		for _, id := range members {
			if g.loc[id].DistanceTo(center) <= radius {
				dst = append(dst, id)
			}
		}
	}
	// The span is counted in floats: for a huge radius the cell
	// coordinates themselves overflow int (and a non-finite count must
	// take the bounded walk, hence the negated comparison).
	spanX := math.Floor((center.X+radius)/g.cell) - math.Floor((center.X-radius)/g.cell) + 1
	spanY := math.Floor((center.Y+radius)/g.cell) - math.Floor((center.Y-radius)/g.cell) + 1
	if !(spanX*spanY <= float64(len(g.cells))) {
		for _, members := range g.cells {
			keep(members)
		}
		return dst
	}
	lo := g.keyOf(Point{X: center.X - radius, Y: center.Y - radius})
	hi := g.keyOf(Point{X: center.X + radius, Y: center.Y + radius})
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			keep(g.cells[cellKey{cx, cy}])
		}
	}
	return dst
}

// KNearest returns the k indexed members nearest to center, closest
// first (ties broken by ascending id, so results are deterministic).
// Fewer than k members returns them all. The scan expands cell rings
// outward from center and stops once the k best found so far are
// provably closer than anything an unscanned ring could hold.
func (g *Grid) KNearest(center Point, k int) []int {
	if k <= 0 || len(g.loc) == 0 {
		return nil
	}
	type cand struct {
		id   int
		dist float64
	}
	var best []cand
	worst := math.Inf(1)
	consider := func(id int) {
		d := g.loc[id].DistanceTo(center)
		if len(best) == k && d >= worst {
			return
		}
		best = append(best, cand{id, d})
		sort.Slice(best, func(i, j int) bool {
			if best[i].dist != best[j].dist {
				return best[i].dist < best[j].dist
			}
			return best[i].id < best[j].id
		})
		if len(best) > k {
			best = best[:k]
		}
		if len(best) == k {
			worst = best[k-1].dist
		}
	}

	origin := g.keyOf(center)
	maxRing := g.maxRingFrom(origin)
	for ring := 0; ring <= maxRing; ring++ {
		// Once k members are held, a cell ring at Chebyshev distance
		// `ring` can only contain points at least (ring−1)·cell away, so
		// no farther ring can improve the answer.
		if len(best) == k && worst <= float64(ring-1)*g.cell {
			break
		}
		g.forEachRingCell(origin, ring, func(key cellKey) {
			for _, id := range g.cells[key] {
				consider(id)
			}
		})
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.id
	}
	return out
}

// maxRingFrom returns the largest Chebyshev cell distance from origin
// to any occupied cell, so ring scans terminate on sparse grids.
func (g *Grid) maxRingFrom(origin cellKey) int {
	maxRing := 0
	for key := range g.cells {
		dx, dy := key.cx-origin.cx, key.cy-origin.cy
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx > maxRing {
			maxRing = dx
		}
		if dy > maxRing {
			maxRing = dy
		}
	}
	return maxRing
}

// forEachRingCell visits every cell at exactly Chebyshev distance ring
// from origin (the origin cell itself for ring 0).
func (g *Grid) forEachRingCell(origin cellKey, ring int, visit func(cellKey)) {
	if ring == 0 {
		visit(origin)
		return
	}
	for cx := origin.cx - ring; cx <= origin.cx+ring; cx++ {
		visit(cellKey{cx, origin.cy - ring})
		visit(cellKey{cx, origin.cy + ring})
	}
	for cy := origin.cy - ring + 1; cy <= origin.cy+ring-1; cy++ {
		visit(cellKey{origin.cx - ring, cy})
		visit(cellKey{origin.cx + ring, cy})
	}
}
