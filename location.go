package stgq

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// Point is a location on the deployment's flat local plane, in meters
// (see repro/internal/geo for the coordinate model and geo.Project for
// mapping geographic coordinates onto it).
type Point = geo.Point

// DefaultGridCellSize is the cell size in meters for a geo.Grid over a
// deployment's locations. 250 m wins the geo package's cell-size sweep for
// clustered city-scale populations at walkable query radii (see
// BenchmarkGeoGrid). The planner itself keeps no grid: a geo-social query
// tests the locations of its ball's members, not a region's occupants.
const DefaultGridCellSize = 250

// SetLocation records person p's current location on the flat local
// plane (meters; see Point). Setting a location again moves the person.
// Locations are durable state: the mutation hook observes a
// MutSetLocation, so journaled deployments replicate and snapshot them
// like every other mutation.
func (pl *Planner) SetLocation(p PersonID, x, y float64) error {
	_, err := pl.Apply(context.Background(), Mutation{Op: MutSetLocation, Person: p, X: x, Y: y})
	return err
}

func (pl *Planner) setLocationLocked(m *Mutation) error {
	if math.IsNaN(m.X) || math.IsInf(m.X, 0) || math.IsNaN(m.Y) || math.IsInf(m.Y, 0) {
		return fmt.Errorf("%w: non-finite location (%v, %v)", ErrBadQuery, m.X, m.Y)
	}
	if err := pl.checkPersonLocked(m.Person); err != nil {
		return err
	}
	pl.putLocation(m.Person, geo.Point{X: m.X, Y: m.Y})
	return nil
}

// putLocation updates the location map; the caller holds the write lock
// (or owns the planner exclusively, as FromDataset does).
func (pl *Planner) putLocation(p PersonID, pt geo.Point) {
	if pl.locations == nil {
		pl.locations = make(map[PersonID]geo.Point)
	}
	pl.locations[p] = pt
}

// Location returns person p's last recorded location, and whether one is
// known. People without a location are excluded from geo-social queries.
func (pl *Planner) Location(p PersonID) (x, y float64, ok bool) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	pt, ok := pl.locations[p]
	return pt.X, pt.Y, ok
}

// NumLocated returns the number of people with a known location.
func (pl *Planner) NumLocated() int {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return len(pl.locations)
}

// GSGQuery is a geo-social group query GSGQ(p, s, k, m, radius): the
// social and acquaintance constraints of SGQuery, an activity point with
// a spatial radius, and optionally (M ≥ 1) the shared-availability
// window of STGQuery. It follows the GSGQ/SSGQ successors of the paper
// (Zhu et al. 1406.7367, Shen et al. 1505.02681) and is answered by
// GSGSelect.
type GSGQuery struct {
	SGQuery
	// M is the activity length in consecutive time slots; 0 disables the
	// temporal dimension (purely geo-social).
	M int
	// X, Y is the activity point on the flat local plane, in meters.
	X, Y float64
	// Radius is the spatial constraint in meters: every member (the
	// initiator included) must be within Radius of the activity point.
	Radius float64
}

// GeoPlanResult is the answer to a GSGQuery. TotalDistance is the
// combined objective: each member's social distance to the initiator
// plus their spatial distance to the activity point (the initiator's own
// spatial distance is constant across candidate groups and excluded).
// Member.Distance stays the social distance alone.
type GeoPlanResult struct {
	GroupResult
	// Window is the maximal common availability window (zero when M == 0).
	Window TimeWindow
	// PivotSlot is the pivot under which the optimum was found; -1 when
	// the query had no temporal dimension.
	PivotSlot int
}

// PlanGeoActivity answers a geo-social group query: the members of the
// initiator's s-hop ball who stand outside the radius (or have no
// location) are pruned first, and the branch-and-bound runs with the
// combined social + spatial cost. With M ≥ 1 the temporal machinery of
// PlanActivity applies on top.
func (pl *Planner) PlanGeoActivity(q GSGQuery) (*GeoPlanResult, error) {
	if q.M < 0 {
		return nil, fmt.Errorf("%w: activity length m=%d < 0", ErrBadQuery, q.M)
	}
	if math.IsNaN(q.X) || math.IsInf(q.X, 0) || math.IsNaN(q.Y) || math.IsInf(q.Y, 0) {
		return nil, fmt.Errorf("%w: non-finite activity point (%v, %v)", ErrBadQuery, q.X, q.Y)
	}
	if !(q.Radius > 0) || math.IsInf(q.Radius, 0) {
		return nil, fmt.Errorf("%w: spatial radius %v must be positive and finite", ErrBadQuery, q.Radius)
	}
	withCal := q.M >= 1
	rg, cal, users, spat, err := pl.geoQueryView(q.Initiator, q.S, withCal, geo.Point{X: q.X, Y: q.Y}, q.Radius)
	if err != nil {
		return nil, err
	}
	ans, stats, err := core.GSGSelect(rg, spat, cal, users, q.P, q.K, q.M, q.options())
	if err != nil {
		return nil, err
	}
	res := &GeoPlanResult{
		GroupResult: *groupResult(rg, &ans.Group, stats),
		PivotSlot:   ans.Pivot,
	}
	if withCal {
		res.Window = TimeWindow{Start: ans.Interval.Start, End: ans.Interval.End + 1}
	}
	return res, nil
}

// geoQueryView is QueryView plus a spatial snapshot: the per-radius-graph
// vertex distances to the activity point (-1 = no location or outside
// the radius), captured under the same lock acquisition so the spatial
// and social views are mutually consistent.
func (pl *Planner) geoQueryView(initiator PersonID, s int, withCalendar bool, center geo.Point, radius float64) (*socialgraph.RadiusGraph, *schedule.Calendar, []int, []float64, error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	rg, cal, users, err := pl.viewRLocked(initiator, s, withCalendar)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return rg, cal, users, pl.spatialRLocked(rg, center, radius), nil
}

// spatialRLocked builds the spatial-distance vector for a radius graph:
// each member's own location is tested against the radius (inclusive, the
// predicate geo.Grid.WithinRadius applies), so the cost is the ball's size
// whatever the radius and however many people stand inside it. The caller
// holds at least the read lock.
func (pl *Planner) spatialRLocked(rg *socialgraph.RadiusGraph, center geo.Point, radius float64) []float64 {
	spat := make([]float64, rg.N())
	for v, person := range rg.Orig {
		spat[v] = -1
		if pt, ok := pl.locations[PersonID(person)]; ok {
			if d := pt.DistanceTo(center); d <= radius {
				spat[v] = d
			}
		}
	}
	return spat
}
