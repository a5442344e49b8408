package core

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// engine is the shared set-enumeration branch-and-bound machinery behind
// SGSelect and STGSelect. One engine handles one radius graph; STGSelect
// re-initializes the candidate state per pivot slot while keeping the
// incumbent (bestDist) across pivots, which only strengthens the distance
// pruning and cannot cost optimality.
type engine struct {
	rg   *socialgraph.RadiusGraph
	p, k int
	opt  Options

	n       int
	vs      *bitset.Set // intermediate solution VS (always contains vertex 0)
	va      *bitset.Set // remaining candidates VA
	vsList  []int       // VS in insertion order
	vsCount int
	vaCount int
	td      float64 // Σ_{v∈VS} d(v,q)
	nbrInVS []int   // per vertex: |N_v ∩ VS|
	deg     []int   // per vertex: |N_v ∩ (VS ∪ VA)|, the core degree

	bestDist float64
	bestSet  *bitset.Set
	bestLo   int
	bestHi   int
	bestPiv  int

	tmp *temporalState // nil when solving SGQ

	// spat, when non-nil, holds each vertex's spatial distance to the
	// activity point (GSGSelect); the optimized per-vertex cost becomes
	// rg.Dist[v] + spat[v]. nil leaves the social-only paths untouched.
	spat []float64
	// minCost is the minimum combined cost over the initial VA, captured
	// by reset when spat is set. Lemma-2 distance pruning uses it in place
	// of the need nearest members of VA: vertices are indexed in ascending
	// *social* distance, an ordering the spatial term breaks. The static
	// minimum stays a sound lower bound as VA only ever shrinks.
	minCost float64

	// budgetHit is set once Options.MaxVertices admission tests have run;
	// every frame then unwinds immediately (anytime cutoff).
	budgetHit bool

	removedPool [][]int

	// coreDeg is the core degree c = p − 1 − k that reset and drop keep
	// every VS ∪ VA member at; 0 (no core) when c ≤ 0 or
	// Options.DisableAcquaintancePruning is set.
	coreDeg int
	// peeled is reset's scratch: the vertices its peel removed.
	peeled []int

	// interiorRHS[θ][|VS∪{u}|] = k·(|VS∪{u}|/p)^θ, precomputed so the hot
	// admission path avoids math.Pow.
	interiorRHS [][]float64
	// temporalRHS[φ][|VS∪{u}|] = (m−1)·((p−|VS∪{u}|)/p)^φ.
	temporalRHS [][]float64

	stats Stats
}

// witness, when non-nil, is called at every firing of a pruning rule: a
// frame prune of pruneFrame (u = −1), a permanent reject of admit (u the
// candidate), and a core removal by reset's peel (rule "core") or by the
// cascade inside the search (rule "cascade"), u the vertex removed, or −1
// when vertex 0 or another VS member falls below the core degree. rule is
// the strategy the firing is counted under in stgq_engine_prunes_total.
// It is also called under rule "frame" (u = −1) at the top of every
// pruneFrame, before any test runs. Only tests set it: they check every
// firing against the completions of the frame, enumerated by brute force.
var witness func(e *engine, rule string, u int)

// fire reports one firing of rule to the witness, if one is set.
func (e *engine) fire(rule string, u int) {
	if witness != nil {
		witness(e, rule, u)
	}
}

// temporalState carries the per-pivot schedule information of STGSelect.
type temporalState struct {
	m   int
	win schedule.Window
	// runLo/runHi: per radius-graph vertex, the maximal run of consecutive
	// available slots containing the pivot, clipped to the window
	// (absolute, inclusive). Valid only for eligible vertices.
	runLo, runHi []int
	// words is the query's one slab of window availability: vertex v's
	// window-relative row is words[v*nw : (v+1)*nw], bit j standing for
	// slot win.Lo+j. A window is at most 2m−1 slots, so for m ≤ 32 that is
	// one word per vertex.
	words []uint64
	nw    int
	// masks[i] selects the bits of window word i that lie inside the
	// window (all ones except in a partial last word).
	masks        []uint64
	unavail      []int // per window slot: # of VA members unavailable
	curLo, curHi int   // TS of the current VS (absolute, inclusive)
	loStack      []int // per-depth save of curLo
	hiStack      []int // per-depth save of curHi
}

// newTemporalState returns the pivot-independent temporal state of one
// search over n vertices for activity length m; setWindow sizes the rest
// per pivot.
func newTemporalState(n, m int) *temporalState {
	return &temporalState{m: m, runLo: make([]int, n), runHi: make([]int, n)}
}

// setWindow points the state at pivot window w: it sizes the word slab for
// n vertices (growing it only when a window needs more words than any
// before), the word masks and the unavailability counters.
func (t *temporalState) setWindow(w schedule.Window, n int) {
	width := w.Width()
	t.win = w
	t.nw = w.Words()
	if len(t.words) < n*t.nw {
		t.words = make([]uint64, n*t.nw)
	}
	t.masks = t.masks[:0]
	for i := 0; i < t.nw; i++ {
		mask := ^uint64(0)
		if rest := width - i*64; rest < 64 {
			mask = 1<<uint(rest) - 1
		}
		t.masks = append(t.masks, mask)
	}
	if cap(t.unavail) < width {
		t.unavail = make([]int, width)
	}
	t.unavail = t.unavail[:width]
}

// windowWords returns vertex v's window words in the slab.
func (t *temporalState) windowWords(v int) []uint64 {
	return t.words[v*t.nw : (v+1)*t.nw]
}

// addBusy adds d to the unavailability counter of every window slot at
// which v is busy, visiting only the busy bits of v's window words.
func (t *temporalState) addBusy(v, d int) {
	for i, word := range t.windowWords(v) {
		for busy := ^word & t.masks[i]; busy != 0; busy &= busy - 1 {
			t.unavail[i*64+bits.TrailingZeros64(busy)] += d
		}
	}
}

type verdict int

const (
	admitOK     verdict = iota // open the include-branch
	admitDefer                 // re-examine after θ/φ relaxation
	admitReject                // exclude from this frame permanently
)

func newEngine(rg *socialgraph.RadiusGraph, p, k int, opt Options) *engine {
	n := rg.N()
	e := &engine{
		rg: rg, p: p, k: k, opt: opt,
		n:        n,
		vs:       bitset.New(n),
		va:       bitset.New(n),
		nbrInVS:  make([]int, n),
		deg:      make([]int, n),
		bestDist: math.Inf(1),
		bestSet:  bitset.New(n),
	}
	if c := p - 1 - k; c > 0 && !opt.DisableAcquaintancePruning {
		e.coreDeg = c
	}
	depth := p + 1
	e.removedPool = make([][]int, depth)
	for i := 0; i < depth; i++ {
		e.removedPool[i] = make([]int, 0, 16)
	}
	e.interiorRHS = make([][]float64, opt.Theta0+1)
	for th := 0; th <= opt.Theta0; th++ {
		e.interiorRHS[th] = make([]float64, p+1)
		for sz := 0; sz <= p; sz++ {
			e.interiorRHS[th][sz] = float64(k) * math.Pow(float64(sz)/float64(p), float64(th))
		}
	}
	return e
}

// initTemporalRHS precomputes the temporal-extensibility thresholds once m
// is known.
func (e *engine) initTemporalRHS(m int) {
	e.temporalRHS = make([][]float64, e.opt.PhiMax+1)
	for ph := 0; ph <= e.opt.PhiMax; ph++ {
		e.temporalRHS[ph] = make([]float64, e.p+1)
		for sz := 0; sz <= e.p; sz++ {
			e.temporalRHS[ph][sz] = float64(m-1) *
				math.Pow(float64(e.p-sz)/float64(e.p), float64(ph))
		}
	}
}

// reset prepares the candidate state of one search: VS = {0} and VA the
// acquaintance core of eligible ∪ {0}, less vertex 0 (eligible may be nil:
// all vertices; it is read, never modified). It counts each candidate's
// degree inside VS ∪ VA once and peels from the vertices below the core
// degree with drop's cascade; the peel loses no feasible group (see the
// package doc) and each removal is counted in Stats.CorePeeled. The
// Lemma 5 unavailability counters are built over the candidates as they
// are counted, and the peel's drops keep them over VA. It reports whether
// a search is worth running: false when vertex 0 ends below the core
// degree or fewer than p candidates remain.
func (e *engine) reset(eligible *bitset.Set) bool {
	e.vs.Clear()
	e.va.Clear()
	e.vs.Add(0)
	e.vsList = append(e.vsList[:0], 0)
	e.vsCount = 1
	e.td = 0
	for v := 1; v < e.n; v++ {
		if eligible == nil || eligible.Contains(v) {
			e.va.Add(v)
		}
	}
	e.vaCount = e.va.Count()
	t := e.tmp
	if t != nil {
		clear(t.unavail)
		t.curLo, t.curHi = t.runLo[0], t.runHi[0]
		t.loStack = t.loStack[:0]
		t.hiStack = t.hiStack[:0]
	}
	// Vertex 0, then each member of VA: its degree inside VS ∪ VA and, VS
	// being {0}, its adjacency to vertex 0.
	nbr0 := e.rg.Nbr[0]
	e.nbrInVS[0] = 0
	for v := 0; v != -1; v = e.va.NextSet(v + 1) {
		d := 0
		for _, w := range e.rg.Adj[v] {
			if w == 0 || e.va.Contains(w) {
				d++
			}
		}
		e.deg[v] = d
		if v != 0 {
			e.nbrInVS[v] = 0
			if nbr0.Contains(v) {
				e.nbrInVS[v] = 1
			}
			if t != nil {
				t.addBusy(v, 1)
			}
		}
	}
	alive := e.deg[0] >= e.coreDeg
	if !alive {
		e.fire("core", -1)
	}
	peeled := e.peeled[:0]
	for v := e.va.NextSet(1); alive && v != -1; v = e.va.NextSet(v + 1) {
		if e.deg[v] < e.coreDeg {
			e.fire("core", v)
			e.stats.CorePeeled++
			peeled, alive = e.drop(v, peeled, "core", &e.stats.CorePeeled)
		}
	}
	e.peeled = peeled[:0]
	if e.spat != nil {
		e.minCost = math.Inf(1)
		for v := e.va.NextSet(0); v != -1; v = e.va.NextSet(v + 1) {
			if c := e.cost(v); c < e.minCost {
				e.minCost = c
			}
		}
	}
	return alive && e.vsCount+e.vaCount >= e.p
}

// cost is the per-vertex contribution to the optimized total: the social
// distance alone, or social + spatial when a GSGSelect activity point is
// in play.
func (e *engine) cost(v int) float64 {
	if e.spat == nil {
		return e.rg.Dist[v]
	}
	return e.rg.Dist[v] + e.spat[v]
}

// --- incremental state transitions -------------------------------------

// moveToVS moves u from VA into VS. u stays in VS ∪ VA, so no core
// degree changes.
func (e *engine) moveToVS(u int) {
	e.va.Remove(u)
	e.vaCount--
	e.vs.Add(u)
	e.vsList = append(e.vsList, u)
	e.vsCount++
	e.td += e.cost(u)
	for _, w := range e.rg.Adj[u] {
		e.nbrInVS[w]++
	}
	if t := e.tmp; t != nil {
		t.addBusy(u, -1)
		t.loStack = append(t.loStack, t.curLo)
		t.hiStack = append(t.hiStack, t.curHi)
		if t.runLo[u] > t.curLo {
			t.curLo = t.runLo[u]
		}
		if t.runHi[u] < t.curHi {
			t.curHi = t.runHi[u]
		}
	}
}

// undoMoveToVS restores u from VS back into VA.
func (e *engine) undoMoveToVS(u int) {
	if t := e.tmp; t != nil {
		t.curLo = t.loStack[len(t.loStack)-1]
		t.curHi = t.hiStack[len(t.hiStack)-1]
		t.loStack = t.loStack[:len(t.loStack)-1]
		t.hiStack = t.hiStack[:len(t.hiStack)-1]
		t.addBusy(u, 1)
	}
	for _, w := range e.rg.Adj[u] {
		e.nbrInVS[w]--
	}
	e.vs.Remove(u)
	e.vsList = e.vsList[:len(e.vsList)-1]
	e.vsCount--
	e.td -= e.cost(u)
	e.va.Add(u)
	e.vaCount++
}

// attachToVA re-inserts a vertex that drop removed (its inverse, one
// vertex at a time).
func (e *engine) attachToVA(u int) {
	for _, w := range e.rg.Adj[u] {
		e.deg[w]++
	}
	e.va.Add(u)
	e.vaCount++
	if t := e.tmp; t != nil {
		t.addBusy(u, 1)
	}
}

// drop removes u from VA and appends it to removed, which the caller
// restores in reverse (expand on return; reset's peel never does). It
// keeps VS ∪ VA core-closed: a VA member left with fewer than coreDeg
// neighbours in VS ∪ VA is in no feasible completion (a member of a
// feasible group knows at least p − 1 − k others in it), so it leaves the
// va set at that moment, joins removed and is counted in *n and reported
// to the witness under rule; its own neighbours' degrees are updated when
// the list reaches it. drop reports false when a VS member falls below
// coreDeg: then no completion of VS is feasible and the frame is dead.
// The list's detaches still all run, so removed restores everything.
func (e *engine) drop(u int, removed []int, rule string, n *int64) ([]int, bool) {
	removed = append(removed, u)
	e.va.Remove(u)
	alive := true
	for i := len(removed) - 1; i < len(removed); i++ {
		x := removed[i]
		e.vaCount--
		for _, w := range e.rg.Adj[x] {
			if e.deg[w]--; !alive || e.deg[w] >= e.coreDeg {
				continue
			}
			if e.va.Contains(w) {
				e.fire(rule, w)
				e.va.Remove(w)
				removed = append(removed, w)
				*n++
			} else if e.vs.Contains(w) {
				e.fire(rule, -1)
				alive = false
			}
		}
		if t := e.tmp; t != nil {
			t.addBusy(x, -1)
		}
	}
	return removed, alive
}

// --- admission conditions (access ordering) ----------------------------

// interiorU computes U(VS ∪ {u}) of Definition 2 in O(|VS|).
func (e *engine) interiorU(u int) int {
	nbrU := e.rg.Nbr[u]
	// u's own non-neighbors within VS.
	max := e.vsCount - e.nbrInVS[u]
	for _, v := range e.vsList {
		nn := e.vsCount - 1 - e.nbrInVS[v]
		if !nbrU.Contains(v) {
			nn++
		}
		if nn > max {
			max = nn
		}
	}
	return max
}

// temporalX computes X(VS∪{u}) of Definition 5: the length of the common
// pivot-containing interval after adding u, minus m.
func (e *engine) temporalX(u int) int {
	t := e.tmp
	lo, hi := t.curLo, t.curHi
	if t.runLo[u] > lo {
		lo = t.runLo[u]
	}
	if t.runHi[u] < hi {
		hi = t.runHi[u]
	}
	return (hi - lo + 1) - t.m
}

// admit applies the admission conditions to candidate u in the paper's
// order: interior unfamiliarity, then temporal extensibility. The paper's
// first condition, exterior expansibility (Lemma 1), holds of every
// candidate of a core-closed frame (see the package doc).
func (e *engine) admit(u, theta, phi int) verdict {
	e.stats.VerticesExamined++
	if e.opt.MaxVertices > 0 && e.stats.VerticesExamined >= e.opt.MaxVertices {
		e.budgetHit = true
	}
	vsNew := e.vsCount + 1

	u0 := e.interiorU(u)
	if u0 > e.k {
		// U is monotone non-decreasing in VS, so u can never join this
		// branch: permanent rejection regardless of θ.
		e.stats.InteriorRejects++
		e.fire("interior", u)
		return admitReject
	}
	if !e.opt.DisableAccessOrdering {
		if float64(u0) > e.interiorRHS[theta][vsNew] {
			return admitDefer // re-examined after θ relaxation
		}
	}

	if e.tmp != nil {
		x := e.temporalX(u)
		if x < 0 {
			// The common window shrinks monotonically; below m slots the
			// branch can never become feasible again.
			e.stats.TemporalRejects++
			e.fire("temporal", u)
			return admitReject
		}
		if !e.opt.DisableTemporalExtensibility && phi < e.opt.PhiMax {
			if float64(x) < e.temporalRHS[phi][vsNew] {
				return admitDefer // re-examined after φ relaxation
			}
		}
	}
	return admitOK
}

// --- frame-level pruning ------------------------------------------------

// pruneFrame evaluates the Lemma 2 and Lemma 5 stop conditions for the
// current (VS, VA) and reports whether the frame is dead. The frames it
// sees are core-closed — every member of VS ∪ VA knows at least
// p − 1 − k others in it, which reset and drop maintain — so Lemma 3, the
// paper's acquaintance prune, could never fire here (see the package doc).
//
// Lemma 2 departs from the paper, exactly: it bounds a completion by the
// sum of the need nearest members of VA, not need × the nearest
// (Options.DisableDistancePruning switches the lemma off).
func (e *engine) pruneFrame() bool {
	e.fire("frame", -1)
	need := e.p - e.vsCount // ≥ 1 here

	// Distance pruning (Lemma 2): no selection of need vertices from VA can
	// beat the incumbent. The comparison is strict, so a completion that
	// ties the incumbent is never pruned.
	if !e.opt.DisableDistancePruning && e.bestDist-e.td < e.nearestCost(need) {
		e.stats.DistancePrunes++
		e.fire("distance", -1)
		return true
	}

	// Availability pruning (Lemma 5).
	if e.tmp != nil && !e.opt.DisableAvailabilityPruning {
		if e.availabilityPrune(need) {
			e.stats.AvailabilityPrunes++
			e.fire("availability", -1)
			return true
		}
	}
	return false
}

// nearestCost is Lemma 2's lower bound on the cost of any need members of
// VA: the sum of the first need members' distances, since vertices are
// indexed in ascending distance, and +Inf when VA has fewer than need
// members. A spatial term breaks that order; then the bound is need × the
// reset-time minimum over the initial VA (see minCost).
func (e *engine) nearestCost(need int) float64 {
	if e.spat != nil {
		return float64(need) * e.minCost
	}
	sum := 0.0
	v := -1
	for range need {
		if v = e.va.NextSet(v + 1); v == -1 {
			return math.Inf(1)
		}
		sum += e.rg.Dist[v]
	}
	return sum
}

// availabilityPrune implements Lemma 5: with n = |VA| − (p − |VS|) + 1, find
// the slots closest to the pivot on either side where at least n VA members
// are unavailable; if they are at most m apart no feasible period remains.
// The window boundaries act as all-unavailable virtual slots.
func (e *engine) availabilityPrune(need int) bool {
	t := e.tmp
	n := e.vaCount - need + 1
	if n <= 0 {
		return false // size check will fire instead
	}
	w := t.win
	tPlus := w.Hi // virtual all-unavailable slot just past the window
	for s := w.Pivot + 1; s < w.Hi; s++ {
		if t.unavail[s-w.Lo] >= n {
			tPlus = s
			break
		}
	}
	tMinus := w.Lo - 1
	for s := w.Pivot - 1; s >= w.Lo; s-- {
		if t.unavail[s-w.Lo] >= n {
			tMinus = s
			break
		}
	}
	return tPlus-tMinus <= t.m
}

// --- the frame loop ------------------------------------------------------

// record registers VS ∪ {u} as a feasible group (|VS∪{u}| == p). Admission
// has already established feasibility: at full size the interior condition
// is exactly U ≤ k and the temporal condition is exactly X ≥ 0.
func (e *engine) record(u int) {
	total := e.td + e.cost(u)
	if total >= e.bestDist {
		return
	}
	e.bestDist = total
	e.bestSet.CopyFrom(e.vs)
	e.bestSet.Add(u)
	e.stats.SolutionsFound++
	if t := e.tmp; t != nil {
		lo, hi := t.curLo, t.curHi
		if t.runLo[u] > lo {
			lo = t.runLo[u]
		}
		if t.runHi[u] < hi {
			hi = t.runHi[u]
		}
		e.bestLo, e.bestHi = lo, hi
		e.bestPiv = t.win.Pivot
	}
}

// expand runs one set-enumeration frame. depth indexes the scratch pools
// (equal to |VS|−1).
//
// Candidates are examined in ascending index (= ascending social distance).
// Within one relaxation round the examination order is monotone: an
// examined candidate is either removed from VA, moved through the
// include-branch and then removed, or deferred (left in VA below the
// cursor). A new round (after relaxing θ or φ) restarts the cursor so
// exactly the deferred candidates are re-examined, which reproduces the
// paper's "mark remaining vertices in VA as unvisited". If a round ends
// with no deferrals, no relaxation can change the outcome and the frame is
// done.
func (e *engine) expand(depth int) {
	removed := e.removedPool[depth][:0]
	theta := e.opt.Theta0
	phi := e.opt.Phi0
	cursor := 0
	deferred := 0

	for {
		if e.budgetHit {
			break
		}
		if e.vsCount+e.vaCount < e.p {
			break
		}
		if e.pruneFrame() {
			break
		}
		u := e.va.NextSet(cursor)
		if u == -1 {
			if deferred == 0 {
				break // nothing left to re-examine
			}
			// Relaxation ladder: θ first (Algorithm 2), then φ
			// (Algorithm 4).
			if !e.opt.DisableAccessOrdering && theta > 0 {
				theta--
				cursor, deferred = 0, 0
				e.stats.ThetaRelaxations++
				continue
			}
			if e.tmp != nil && !e.opt.DisableTemporalExtensibility && phi < e.opt.PhiMax {
				phi++
				cursor, deferred = 0, 0
				e.stats.PhiRelaxations++
				continue
			}
			break
		}
		cursor = u + 1

		switch e.admit(u, theta, phi) {
		case admitDefer:
			deferred++
			continue
		case admitOK:
			if e.vsCount+1 == e.p {
				e.record(u)
			} else {
				e.stats.NodesExpanded++
				e.moveToVS(u)
				e.expand(depth + 1)
				e.undoMoveToVS(u)
			}
		}
		// Rejected, recorded or explored: u is never reconsidered in this
		// frame.
		var alive bool
		if removed, alive = e.drop(u, removed, "cascade", &e.stats.CoreCascaded); !alive {
			break
		}
	}

	for i := len(removed) - 1; i >= 0; i-- {
		e.attachToVA(removed[i])
	}
	e.removedPool[depth] = removed[:0]
}
