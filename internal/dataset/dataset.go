// Package dataset generates the two datasets of the paper's evaluation
// (Section 5.1):
//
//   - Real194 — a stand-in for the paper's 194 recruited participants from
//     "schools, government, business, and industry" with Google-Calendar
//     schedules and interaction-derived social distances. The generator
//     reproduces the properties the algorithms are sensitive to: a
//     community-structured weighted ego-network (dense, short-distance edges
//     within a community; sparse, long-distance bridges across), and
//     weekday/evening/weekend availability patterns that are correlated
//     within communities.
//   - Synthetic — a stand-in for the paper's 12,800-person network derived
//     from a coauthorship network: preferential attachment (power-law
//     degrees) with triangle closure (the high clustering characteristic of
//     coauthorship graphs). As in the paper, every synthetic person's
//     schedule is drawn from the 194-person pool.
//
// All generation is deterministic in the seed. See DESIGN.md §3 for why
// these substitutions preserve the experiments' behaviour.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// Dataset bundles a social graph with the members' calendars (indexed by
// graph vertex id) and community assignments.
type Dataset struct {
	Graph *socialgraph.Graph
	Cal   *schedule.Calendar
	// Community[v] is the community index of vertex v (used by the schedule
	// correlation model and for reporting).
	Community []int
	// Days is the schedule length the calendar was generated for.
	Days int
	// Policies maps vertex id → schedule-sharing policy (the integer value
	// of stgq.SharePolicy; this package cannot import stgq). Generators
	// leave it nil; durable-store snapshots carry it so privacy policies
	// survive compaction. Vertices absent from the map use the default
	// policy.
	Policies map[int]int
	// Locations maps vertex id → (x, y) on the flat local plane in meters
	// (the repro/internal/geo coordinate model). Vertices absent from the
	// map have no known location and are excluded from geo-social queries.
	// Generators place people in community-clustered hotspots; durable-store
	// snapshots carry whatever SetLocation recorded.
	Locations map[int][2]float64
}

// LocationExtentMeters is the side length of the square plane the
// generators place people on — a ~20 km city. Load generators pick
// activity points inside it.
const LocationExtentMeters = 20_000

// Real194Size is the population of the paper's real dataset.
const Real194Size = 194

// communityProfile shapes the availability pattern of a community.
type communityProfile struct {
	name string
	// Work-hour busyness (probability a weekday 09:00–18:00 slot is busy).
	workBusy float64
	// Evening availability (probability an 18:00–23:00 slot is free).
	eveningFree float64
	// Weekend availability (probability a 09:00–23:00 weekend slot is free).
	weekendFree float64
}

var profiles = []communityProfile{
	{"school", 0.70, 0.75, 0.80},
	{"government", 0.85, 0.60, 0.75},
	{"business", 0.90, 0.45, 0.60},
	{"industry", 0.85, 0.55, 0.65},
	{"lab", 0.75, 0.65, 0.70},
	{"club", 0.65, 0.70, 0.85},
}

// Real194 generates the 194-person dataset with the given schedule length in
// days (1–7 in the paper's Figure 1(f)).
func Real194(seed int64, days int) *Dataset {
	return realLike(Real194Size, seed, days)
}

// realLike builds a community-structured population of the given size.
func realLike(n int, seed int64, days int) *Dataset {
	if days < 1 {
		panic(fmt.Sprintf("dataset: days %d < 1", days))
	}
	r := rand.New(rand.NewSource(seed))
	g := socialgraph.New()
	g.AddVertices(n)

	nc := len(profiles)
	community := make([]int, n)
	secondary := make([]int, n) // -1 when none
	for v := 0; v < n; v++ {
		community[v] = v % nc
		secondary[v] = -1
		if r.Float64() < 0.4 {
			secondary[v] = (community[v] + 1 + r.Intn(nc-1)) % nc
		}
	}

	// Primary-community edges are dense with short distances, so ego
	// networks at s=1 have ~25–35 members dense enough that groups of p=11
	// with k=2 exist (the largest configuration of Figure 1(a)) while
	// exhaustive enumeration at p=11 stays painful. Secondary-community
	// edges model the second social circle most people have (family,
	// hobby, old classmates): also close, but those friends are strangers
	// to the primary circle — which is exactly what makes manual
	// coordination's observed k_h grow in Figure 1(g).
	shares := func(u, v int) bool {
		return community[u] == community[v] ||
			community[u] == secondary[v] || secondary[u] == community[v] ||
			(secondary[u] >= 0 && secondary[u] == secondary[v])
	}
	sharesPrimary := func(u, v int) bool { return community[u] == community[v] }
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch {
			case sharesPrimary(u, v):
				if r.Float64() < 0.8 {
					g.MustAddEdge(u, v, interactionDistance(r, true))
				}
			case shares(u, v):
				if r.Float64() < 0.35 {
					g.MustAddEdge(u, v, interactionDistance(r, true))
				}
			default:
				if r.Float64() < 0.008 {
					g.MustAddEdge(u, v, interactionDistance(r, false))
				}
			}
		}
	}
	// Guarantee no isolated vertices: attach loners to a random community
	// peer.
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			u := v
			for u == v {
				u = r.Intn(n)
			}
			g.MustAddEdge(u, v, interactionDistance(r, community[u] == community[v]))
		}
	}

	cal := generateSchedules(r, n, days, community)
	// Locations come from a dedicated RNG stream so adding the spatial
	// dimension leaves every previously generated graph and calendar
	// byte-identical for a given seed.
	locs := clusterLocations(seed+2, n, community)
	return &Dataset{Graph: g, Cal: cal, Community: community, Days: days, Locations: locs}
}

// clusterLocations places the population on the flat local plane:
// each community gets a hotspot (campus, office district, neighborhood)
// and members scatter normally around theirs — so spatial proximity
// correlates with social proximity, which is what makes geo-social
// queries interesting on generated data. A few percent of people have
// no known location (fresh accounts, privacy), exercising the
// "unlocated people are spatially ineligible" path everywhere.
func clusterLocations(seed int64, n int, community []int) map[int][2]float64 {
	r := rand.New(rand.NewSource(seed))
	nc := 0
	for _, c := range community {
		if c+1 > nc {
			nc = c + 1
		}
	}
	if nc == 0 {
		nc = 1
	}
	centers := make([][2]float64, nc)
	for c := range centers {
		centers[c] = [2]float64{r.Float64() * LocationExtentMeters, r.Float64() * LocationExtentMeters}
	}
	locs := make(map[int][2]float64, n)
	for v := 0; v < n; v++ {
		if r.Float64() < 0.05 {
			continue // no known location
		}
		c := 0
		if v < len(community) {
			c = community[v]
		}
		locs[v] = [2]float64{
			centers[c][0] + r.NormFloat64()*800,
			centers[c][1] + r.NormFloat64()*800,
		}
	}
	return locs
}

// interactionDistance converts a simulated interaction frequency (meetings,
// calls, mails per month) into a social distance, as in the paper's setup
// where distance is derived from interaction [10, 12, 13]: more interaction,
// smaller distance.
func interactionDistance(r *rand.Rand, close bool) float64 {
	var freq float64
	if close {
		freq = 2 + r.Float64()*28 // 2–30 interactions a month
	} else {
		freq = 0.3 + r.Float64()*2 // occasional contact
	}
	d := 200 / (freq + 2)
	if d < 1 {
		d = 1
	}
	if d > 90 {
		d = 90
	}
	return float64(int(d)) // integer distances, like the paper's figures
}

// generateSchedules builds availability calendars: weekday work hours mostly
// busy, evenings and weekends freer, with a per-community daily "event"
// that synchronizes schedules (the correlation availability pruning
// exploits).
func generateSchedules(r *rand.Rand, n, days int, community []int) *schedule.Calendar {
	horizon := days * schedule.SlotsPerDay
	cal := schedule.NewCalendar(n, horizon)

	// Per-community synchronized rhythms: one community meeting per day
	// (09:00–16:00 start) that most members attend, and a community-typical
	// dinner hour most members follow. Both correlations matter: the
	// meeting alignment is what the availability pruning of Lemma 5
	// exploits, and the dinner alignment makes within-community groups easy
	// to schedule while cross-community ones conflict — the effect behind
	// the manual-coordination gap of Figures 1(g)/(h).
	nc := len(profiles)
	type block struct{ start, len int }
	meetings := make([][]block, days)
	dinners := make([][]int, days)
	for d := 0; d < days; d++ {
		meetings[d] = make([]block, nc)
		dinners[d] = make([]int, nc)
		for c := 0; c < nc; c++ {
			meetings[d][c] = block{start: 18 + r.Intn(14), len: 2 + r.Intn(3)}
			dinners[d][c] = 35 + r.Intn(9)
		}
	}

	// Google-Calendar semantics: a slot is available unless a busy event
	// covers it. People are awake 07:00–23:30 and collect a handful of busy
	// blocks per day — commute, meetings (synchronized within a community),
	// errands, the occasional dinner. This keeps long contiguous free runs
	// (so activities up to m=24 half-hour slots remain plannable, as in
	// Figure 1(e)) while correlating schedules within communities (which is
	// what the availability pruning of Lemma 5 exploits).
	busyBlock := func(v, base, start, length int) {
		for s := start; s < start+length && s < schedule.SlotsPerDay; s++ {
			if s >= 0 {
				cal.SetBusy(v, base+s)
			}
		}
	}
	for v := 0; v < n; v++ {
		prof := profiles[community[v]]
		for d := 0; d < days; d++ {
			weekend := d%7 >= 5
			base := d * schedule.SlotsPerDay
			// Awake 07:00–23:30.
			cal.SetRange(v, base+14, base+47, true)
			if weekend {
				// A few errands; busier people have more.
				nb := r.Intn(3)
				if r.Float64() < prof.workBusy-0.5 {
					nb++
				}
				for i := 0; i < nb; i++ {
					busyBlock(v, base, 18+r.Intn(22), 2+r.Intn(5))
				}
			} else {
				// Commute.
				if r.Float64() < 0.7 {
					busyBlock(v, base, 15+r.Intn(3), 1+r.Intn(2))
					busyBlock(v, base, 34+r.Intn(3), 1+r.Intn(2))
				}
				// Work meetings/classes, count scaled by profile busyness.
				nb := 1 + r.Intn(3)
				if r.Float64() < prof.workBusy-0.5 {
					nb += 1 + r.Intn(2)
				}
				for i := 0; i < nb; i++ {
					busyBlock(v, base, 18+r.Intn(17), 1+r.Intn(4))
				}
				// Evenings are fragmented: dinner at the community-typical
				// hour (mostly) plus the occasional engagement. Partial
				// overlap of evening windows across communities is what
				// forces manual coordination into conflicts (Figures
				// 1(g)/(h)).
				dinner := dinners[d][community[v]]
				if r.Float64() < 0.3 {
					dinner = 35 + r.Intn(9)
				} else {
					dinner += r.Intn(3) - 1
				}
				busyBlock(v, base, dinner, 2+r.Intn(4))
				if r.Float64() > prof.eveningFree {
					busyBlock(v, base, 36+r.Intn(8), 2+r.Intn(4))
				}
			}
			// Synchronized community meeting (weekdays only).
			if !weekend {
				c := community[v]
				mb := meetings[d][c]
				if r.Float64() < 0.8 {
					busyBlock(v, base, mb.start, mb.len)
				}
			}
		}
	}
	return cal
}

// Synthetic generates a coauthorship-style network of n people with
// schedules sampled from a freshly generated 194-person pool (the paper's
// construction). Degrees follow preferential attachment; triangle closure
// yields coauthorship-level clustering.
func Synthetic(n int, seed int64, days int) *Dataset {
	if n < 5 {
		panic("dataset: synthetic network needs at least 5 people")
	}
	r := rand.New(rand.NewSource(seed))
	g := socialgraph.New()
	g.AddVertices(n)

	// Seed clique of 4.
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.MustAddEdge(u, v, interactionDistance(r, true))
		}
	}
	// Preferential attachment with endpoint repetition: targets are chosen
	// proportionally to degree via an endpoint urn.
	urn := []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	const attach = 4
	for v := 4; v < n; v++ {
		seen := map[int]bool{}
		var added []int
		for len(added) < attach && len(added) < v {
			t := urn[r.Intn(len(urn))]
			if t == v || seen[t] {
				continue
			}
			seen[t] = true
			added = append(added, t)
			g.MustAddEdge(v, t, interactionDistance(r, r.Float64() < 0.7))
			urn = append(urn, v, t)
		}
		// Triangle closure: connect to a neighbor of a fresh neighbor.
		for _, t := range added {
			if r.Float64() >= 0.45 {
				continue
			}
			deg := g.Degree(t)
			if deg == 0 {
				continue
			}
			w := g.Neighbor(t, r.Intn(deg))
			if w != v && !g.HasEdge(v, w) {
				g.MustAddEdge(v, w, interactionDistance(r, true))
				urn = append(urn, v, w)
			}
		}
	}

	// Schedule pool: the paper randomly assigns each synthetic person a day
	// schedule from the 194-person real dataset.
	pool := realLike(Real194Size, seed+1, days)
	cal := schedule.NewCalendar(n, days*schedule.SlotsPerDay)
	community := make([]int, n)
	for v := 0; v < n; v++ {
		src := r.Intn(Real194Size)
		community[v] = pool.Community[src]
		row := pool.Cal.Row(src)
		for s := row.NextSet(0); s != -1; s = row.NextSet(s + 1) {
			cal.SetAvailable(v, s)
		}
	}
	locs := clusterLocations(seed+2, n, community)
	return &Dataset{Graph: g, Cal: cal, Community: community, Days: days, Locations: locs}
}

// PickInitiator returns a deterministic, well-connected initiator: the
// vertex at the given percentile (0–100) of the degree distribution. The
// benchmarks use the 75th percentile, a busy but not extreme user.
func (d *Dataset) PickInitiator(percentile int) int {
	n := d.Graph.NumVertices()
	type vd struct{ v, deg int }
	all := make([]vd, n)
	for v := 0; v < n; v++ {
		all[v] = vd{v, d.Graph.Degree(v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg < all[j].deg
		}
		return all[i].v < all[j].v
	})
	idx := percentile * (n - 1) / 100
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return all[idx].v
}

// PickByDegree returns the vertex whose degree is closest to target
// (deterministic: lowest id wins ties). The network-size sweep of Figure
// 1(d) uses this so the initiator's ego network stays comparable across
// sizes, as the paper's flat curves imply.
func (d *Dataset) PickByDegree(target int) int {
	best, bestDiff := 0, 1<<30
	for v := 0; v < d.Graph.NumVertices(); v++ {
		diff := d.Graph.Degree(v) - target
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = v, diff
		}
	}
	return best
}

// CalUsers builds the radius-graph-index → calendar-user mapping for this
// dataset (calendar rows are graph vertex ids).
func CalUsers(rg *socialgraph.RadiusGraph) []int {
	out := make([]int, rg.N())
	copy(out, rg.Orig)
	return out
}
