// Package ipmodel builds the Integer Programming formulation of Appendix D
// of the paper and solves it with the repository's branch-and-bound solver
// (package mip), reproducing the "IP" series of Figures 1(a) and 1(d).
//
// Two model variants are provided:
//
//   - Full — the verbatim Appendix-D model over the raw social graph, with
//     per-attendee shortest-path variables π_{u,i,j} and constraints
//     (1)–(10). Faithful but large (|V|·2|E| binaries); intended for small
//     instances and for validating the formulation itself.
//   - Reduced — an exact compilation: the s-edge minimum distances are
//     pre-computed by the same dynamic program SGSelect uses (Definition 1),
//     eliminating the path variables; availability constraints are compiled
//     to one row per attendee, φ_u + Σ τ_t ≤ 1 over the periods t in which
//     u is busy somewhere. The reduced model has the same optima (the
//     path constraints of the full model exist only to *define* δ_u as the
//     hop-bounded shortest distance, which the DP computes directly) and is
//     the variant benchmarked at larger sizes. Tests assert Full ≡ Reduced ≡
//     SGSelect on small instances.
package ipmodel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/mip"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// SolveOptions configures the underlying branch and bound.
type SolveOptions struct {
	MaxNodes int
}

// SGQReduced solves SGQ(p, k) over a radius graph with the distance-compiled
// model:
//
//	min Σ d_u φ_u
//	s.t. Σ φ_u = p                    (1)
//	     φ_q = 1                      (2)
//	     Σ_{v∈N_u} φ_v ≥ (p−1)φ_u − k (3)
//	     φ ∈ {0,1}
func SGQReduced(rg *socialgraph.RadiusGraph, p, k int, opt SolveOptions) (*core.Group, error) {
	prob, phi := buildReducedSocial(rg, p, k)
	sol, err := prob.Solve(mip.SolveOptions{MaxNodes: opt.MaxNodes})
	if err != nil {
		return nil, mapErr(err)
	}
	return decodeGroup(rg, sol.X, phi)
}

// STGQReduced solves STGQ(p, k, m) with the reduced model plus the temporal
// constraints (9) and (10) compiled per activity period:
//
//	Σ_t τ_t = 1                    over feasible period starts t
//	φ_u + Σ_{t∈B_u} τ_t ≤ 1        per vertex u, B_u = {t : u busy during [t, t+m−1]}
//
// Because exactly one τ_t is 1, the per-vertex row accepts the same integer
// points as the paper's φ_u + τ_t ≤ 1 for every t ∈ B_u, and its LP
// relaxation is no looser; it keeps the model at n + 1 temporal rows
// instead of up to n·(H − m + 1).
func STGQReduced(rg *socialgraph.RadiusGraph, cal *schedule.Calendar, calUser []int, p, k, m int, opt SolveOptions) (*core.STGroup, error) {
	prob, phi, tau, err := buildReducedTemporal(rg, cal, calUser, p, k, m)
	if err != nil {
		return nil, err
	}
	sol, err := prob.Solve(mip.SolveOptions{MaxNodes: opt.MaxNodes})
	if err != nil {
		return nil, mapErr(err)
	}
	grp, err := decodeGroup(rg, sol.X, phi)
	if err != nil {
		return nil, err
	}
	start := -1
	for t, v := range tau {
		if sol.X[v] > 0.5 {
			start = t
			break
		}
	}
	if start < 0 {
		return nil, fmt.Errorf("ipmodel: no period selected in feasible solution")
	}
	horizon := cal.Horizon()
	lo, hi := start, start+m-1
	for lo-1 >= 0 && allAvail(cal, calUser, grp.Members, lo-1) {
		lo--
	}
	for hi+1 < horizon && allAvail(cal, calUser, grp.Members, hi+1) {
		hi++
	}
	pivot := -1
	for _, pv := range schedule.PivotSlots(horizon, m) {
		if pv >= start && pv < start+m {
			pivot = pv
			break
		}
	}
	return &core.STGroup{Group: *grp, Interval: core.Period{Start: lo, End: hi}, Pivot: pivot}, nil
}

// buildReducedTemporal builds STGQReduced's model and returns it with the
// φ and τ variable indices.
func buildReducedTemporal(rg *socialgraph.RadiusGraph, cal *schedule.Calendar, calUser []int, p, k, m int) (*mip.Problem, []int, []int, error) {
	if m < 1 || len(calUser) != rg.N() {
		return nil, nil, nil, core.ErrBadParams
	}
	nStarts := cal.Horizon() - m + 1
	if nStarts <= 0 {
		return nil, nil, nil, core.ErrNoFeasibleGroup
	}
	prob, phi := buildReducedSocial(rg, p, k)
	tau := make([]int, nStarts)
	tauSum := map[int]float64{}
	for t := range tau {
		tau[t] = prob.AddBinary(0)
		tauSum[tau[t]] = 1
	}
	prob.AddConstraint(tauSum, mip.EQ, 1) // constraint (9)
	for u := 0; u < rg.N(); u++ {
		// Constraint (10) compiled: u cannot attend a period it is busy in.
		busy := map[int]float64{phi[u]: 1}
		for t := range tau {
			if !cal.AvailableDuring(calUser[u], t, m) {
				busy[tau[t]] = 1
			}
		}
		if len(busy) > 1 {
			prob.AddConstraint(busy, mip.LE, 1)
		}
	}
	return prob, phi, tau, nil
}

func buildReducedSocial(rg *socialgraph.RadiusGraph, p, k int) (*mip.Problem, []int) {
	n := rg.N()
	prob := mip.NewProblem()
	phi := make([]int, n)
	for u := 0; u < n; u++ {
		phi[u] = prob.AddBinary(rg.Dist[u])
	}
	sum := map[int]float64{}
	for u := 0; u < n; u++ {
		sum[phi[u]] = 1
	}
	prob.AddConstraint(sum, mip.EQ, float64(p))               // (1)
	prob.AddConstraint(map[int]float64{phi[0]: 1}, mip.EQ, 1) // (2)
	for u := 0; u < n; u++ {
		// (3): Σ_{v∈N_u} φ_v − (p−1)φ_u ≥ −k.
		coefs := map[int]float64{phi[u]: -float64(p - 1)}
		for _, v := range rg.Adj[u] {
			coefs[phi[v]] += 1
		}
		prob.AddConstraint(coefs, mip.GE, -float64(k))
	}
	return prob, phi
}

// SGQFull solves SGQ with the verbatim Appendix-D formulation over the raw
// graph: path variables π_{u,i,j} over directed edges, flow conservation
// (4)–(6), distance definition (7), and the radius constraint (8). Only
// suitable for small graphs; it exists to validate the formulation.
func SGQFull(g *socialgraph.Graph, q, p, s, k int, opt SolveOptions) (*core.Group, float64, error) {
	n := g.NumVertices()
	if q < 0 || q >= n {
		return nil, 0, core.ErrBadParams
	}
	prob := mip.NewProblem()

	// φ_u.
	phi := make([]int, n)
	for u := 0; u < n; u++ {
		phi[u] = prob.AddVar(0, 0, 1, true)
	}
	// δ_u ≥ 0 (objective: min Σ δ_u).
	delta := make([]int, n)
	for u := 0; u < n; u++ {
		delta[u] = prob.AddVar(1, 0, math.Inf(1), false)
	}

	// Directed edge list.
	type dedge struct {
		from, to int
		dist     float64
	}
	var edges []dedge
	for u := 0; u < n; u++ {
		g.Neighbors(u, func(v int, d float64) {
			edges = append(edges, dedge{u, v, d})
		})
	}

	// π_{u,e} for every target u ≠ q and directed edge e.
	pi := make([][]int, n)
	for u := 0; u < n; u++ {
		if u == q {
			continue
		}
		pi[u] = make([]int, len(edges))
		for e := range edges {
			pi[u][e] = prob.AddVar(0, 0, 1, true)
		}
	}

	sum := map[int]float64{}
	for u := 0; u < n; u++ {
		sum[phi[u]] = 1
	}
	prob.AddConstraint(sum, mip.EQ, float64(p))               // (1)
	prob.AddConstraint(map[int]float64{phi[q]: 1}, mip.EQ, 1) // (2)
	for u := 0; u < n; u++ {
		coefs := map[int]float64{phi[u]: -float64(p - 1)}
		g.Neighbors(u, func(v int, _ float64) {
			coefs[phi[v]] += 1
		})
		prob.AddConstraint(coefs, mip.GE, -float64(k)) // (3)
	}

	for u := 0; u < n; u++ {
		if u == q {
			// δ_q is forced to 0 by the objective (no path, no lower bound).
			prob.AddConstraint(map[int]float64{delta[q]: 1}, mip.LE, 0)
			continue
		}
		// (4): edges leaving q on u's path == φ_u.
		out := map[int]float64{phi[u]: -1}
		// (5): edges entering u on u's path == φ_u.
		in := map[int]float64{phi[u]: -1}
		for e, de := range edges {
			if de.from == q {
				out[pi[u][e]] += 1
			}
			if de.to == u {
				in[pi[u][e]] += 1
			}
		}
		prob.AddConstraint(out, mip.EQ, 0)
		prob.AddConstraint(in, mip.EQ, 0)

		// (6): flow conservation at intermediate j.
		for j := 0; j < n; j++ {
			if j == q || j == u {
				continue
			}
			flow := map[int]float64{}
			for e, de := range edges {
				if de.to == j {
					flow[pi[u][e]] += 1
				}
				if de.from == j {
					flow[pi[u][e]] -= 1
				}
			}
			if len(flow) > 0 {
				prob.AddConstraint(flow, mip.EQ, 0)
			}
		}

		// (7): Σ c_e π_{u,e} = δ_u.
		distC := map[int]float64{delta[u]: -1}
		for e, de := range edges {
			distC[pi[u][e]] += de.dist
		}
		prob.AddConstraint(distC, mip.EQ, 0)

		// (8): at most s edges on the path.
		lenC := map[int]float64{}
		for e := range edges {
			lenC[pi[u][e]] = 1
		}
		prob.AddConstraint(lenC, mip.LE, float64(s))
	}

	sol, err := prob.Solve(mip.SolveOptions{MaxNodes: opt.MaxNodes})
	if err != nil {
		return nil, 0, mapErr(err)
	}
	var members []int
	for u := 0; u < n; u++ {
		if sol.X[phi[u]] > 0.5 {
			members = append(members, u)
		}
	}
	if len(members) != p {
		return nil, 0, fmt.Errorf("ipmodel: solution selected %d members, want %d", len(members), p)
	}
	return &core.Group{Members: members, TotalDistance: sol.Objective}, sol.Objective, nil
}

func decodeGroup(rg *socialgraph.RadiusGraph, x []float64, phi []int) (*core.Group, error) {
	var members []int
	total := 0.0
	for u := 0; u < rg.N(); u++ {
		if x[phi[u]] > 0.5 {
			members = append(members, u)
			total += rg.Dist[u]
		}
	}
	return &core.Group{Members: members, TotalDistance: total}, nil
}

func allAvail(cal *schedule.Calendar, calUser []int, members []int, slot int) bool {
	for _, v := range members {
		if !cal.Available(calUser[v], slot) {
			return false
		}
	}
	return true
}

func mapErr(err error) error {
	if err == mip.ErrInfeasible {
		return core.ErrNoFeasibleGroup
	}
	return err
}
