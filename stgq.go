// Package stgq is a Go implementation of the social-temporal group queries
// of Yang, Chen, Lee and Chen, "On Social-Temporal Group Query with
// Acquaintance Constraint" (PVLDB 4(6), 2011).
//
// Given a weighted social network (edge weight = social distance, smaller =
// closer) and the members' availability calendars, the package answers:
//
//   - SGQ(p, s, k) — find the p-person group containing the initiator with
//     the minimum total social distance, where every candidate lies within s
//     edges of the initiator and every attendee may be unacquainted with at
//     most k other attendees (FindGroup);
//   - STGQ(p, s, k, m) — additionally find m consecutive time slots where
//     the whole group is available (PlanActivity).
//
// Both problems are NP-hard; the default algorithms (SGSelect and
// STGSelect) are exact branch-and-bound searches with the paper's pruning
// strategies and handle realistic ego-network sizes interactively.
// The exact comparators of the paper's evaluation (the exhaustive baseline
// and the integer program) are not query engines: they run on the same
// query view (Planner.QueryView) for cross-checking and benchmarking.
//
// # Quick start
//
//	pl := stgq.NewPlanner(48) // one day of half-hour slots
//	alice := pl.MustAddPerson("alice")
//	bob := pl.MustAddPerson("bob")
//	carol := pl.MustAddPerson("carol")
//	pl.Connect(alice, bob, 5)
//	pl.Connect(alice, carol, 9)
//	pl.Connect(bob, carol, 3)
//	for _, p := range []stgq.PersonID{alice, bob, carol} {
//		pl.SetAvailable(p, 36, 44) // evening
//	}
//	plan, err := pl.PlanActivity(stgq.STGQuery{
//		SGQuery: stgq.SGQuery{Initiator: alice, P: 3, S: 1, K: 0},
//		M:       4, // two hours
//	})
//
// See the examples directory for complete programs.
//
// # Persistence
//
// A Planner by itself is an in-memory structure: every person, friendship
// and availability update is lost when the process exits. The
// repro/internal/journal package adds durability on top of the mutation
// hook seam (SetMutationHook): each successful mutation is encoded as a
// typed, versioned record, group-committed to a write-ahead journal, and
// periodically folded into snapshots written in the same record format
// (DatasetMutations of the exported state). On restart the journal store
// rebuilds the Planner by replaying the latest snapshot and then the
// journal tail (any torn final record is truncated). A mutation call only
// returns once its record is durable, so an acknowledged write survives a
// crash. The stgqd server exposes this with its -data-dir flag.
//
// # Replication
//
// The journal doubles as a replication stream (repro/internal/replica):
// a durable stgqd is a leader that serves its committed records over GET
// /replication/stream, and followers — stgqd -follow <leader-url> —
// replay them into their own durable stores and serve the read-heavy,
// NP-hard query traffic, rejecting mutations with a redirect hint to the
// leader. Replication is asynchronous and monotonic per follower: each
// follower always holds a prefix of the leader's history, merely stale,
// and its staleness (applied vs. leader sequence number, time since last
// leader contact) is visible in its /status response. A follower whose
// position has been compacted away on the leader bootstraps from the
// leader's latest snapshot; a restarted follower recovers from its own
// disk.
//
// # Cluster topology
//
// The cluster gateway (repro/internal/gateway, command stgqgw) gives the
// replicated deployment a single front door, so clients never pick
// servers by hand:
//
//	                      ┌────────────► leader stgqd   all mutations
//	clients ──► stgqgw ───┤                  │           (journal + fsync)
//	                      ├─► follower stgqd ┤ /replication/stream
//	                      └─► follower stgqd ┘
//	                          queries, spread by least
//	                          pending requests
//
// The gateway probes every backend's GET /status for role, health and the
// durable sequence number, fans /query/* traffic across healthy followers
// under a configurable staleness bound (-max-lag, or per request with an
// X-STGQ-Max-Lag-Seconds header; followers over the bound are skipped and
// the leader is the fallback), forwards mutations to the leader —
// following 403 + X-STGQ-Leader redirects when the leader moves — and
// retries a read once on another backend when a follower dies
// mid-request.
//
// # Failover and epochs
//
// Every durable store carries a leader epoch — a generation number
// persisted in its meta file and reported in /status — and replication
// streams advertise it. A follower rejects the stream of a leader whose
// epoch is below its own (fencing: the revived corpse of a failed-over
// leader cannot roll anyone back) and re-bootstraps when a higher-epoch
// leader's history diverges from its local tail. Promotion — POST
// /promote on a follower, issued by an operator or by the gateway's
// opt-in auto-failover (stgqgw -auto-failover <grace>) — seals
// replication and re-opens the follower's store writable at epoch+1.
// The gateway orders leader claims by (epoch, durableSeq), so a stale
// claimant never wins on history length alone, and while no leader is
// known it fails mutations fast with 503 + Retry-After instead of
// dialing a dead address.
package stgq

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sync"

	"repro/internal/bitset"
	"repro/internal/coordinate"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// PersonID identifies a person registered with a Planner.
type PersonID int

// MutationOp enumerates the state-changing Planner calls. The values are
// stable: they are persisted in journal records.
type MutationOp uint8

const (
	// MutAddPerson records an AddPerson call.
	MutAddPerson MutationOp = iota + 1
	// MutConnect records a Connect call.
	MutConnect
	// MutDisconnect records a Disconnect call.
	MutDisconnect
	// MutSetAvailable records a SetAvailable call.
	MutSetAvailable
	// MutSetBusy records a SetBusy call.
	MutSetBusy
	// MutSetPolicy records a SetSchedulePolicy call.
	MutSetPolicy
	// MutSetLocation records a SetLocation call.
	MutSetLocation
)

// mutKind is one row of the mutation table: everything the system knows
// about a MutationOp, written once. The journal codec, replay, the
// replica wire and the HTTP service all go through it.
type mutKind struct {
	name string
	// fields names the Mutation fields the op carries, in journal wire
	// order; every other field is zero.
	fields []string
	// apply validates m and applies it under the held write lock, filling
	// in what the planner assigns (AddPerson's id).
	apply func(pl *Planner, m *Mutation) error
}

// mutKinds is the mutation table, indexed by MutationOp.
var mutKinds = [...]mutKind{
	MutAddPerson: {
		name: "add-person", fields: []string{"Person", "Name"},
		apply: (*Planner).addPersonLocked,
	},
	MutConnect: {
		name: "connect", fields: []string{"A", "B", "Distance"},
		apply: func(pl *Planner, m *Mutation) error {
			return mapVertexErr(pl.g.AddEdge(int(m.A), int(m.B), m.Distance))
		},
	},
	MutDisconnect: {
		name: "disconnect", fields: []string{"A", "B"},
		apply: func(pl *Planner, m *Mutation) error {
			return mapVertexErr(pl.g.RemoveEdge(int(m.A), int(m.B)))
		},
	},
	MutSetAvailable: {
		name: "set-available", fields: []string{"Person", "From", "To"},
		apply: func(pl *Planner, m *Mutation) error { return pl.setRangeLocked(m, true) },
	},
	MutSetBusy: {
		name: "set-busy", fields: []string{"Person", "From", "To"},
		apply: func(pl *Planner, m *Mutation) error { return pl.setRangeLocked(m, false) },
	},
	MutSetPolicy: {
		name: "set-policy", fields: []string{"Person", "Policy"},
		apply: (*Planner).setPolicyLocked,
	},
	MutSetLocation: {
		name: "set-location", fields: []string{"Person", "X", "Y"},
		apply: (*Planner).setLocationLocked,
	},
}

// kind returns op's row of the mutation table, or nil for an unknown op.
func (op MutationOp) kind() *mutKind {
	if int(op) < len(mutKinds) && mutKinds[op].apply != nil {
		return &mutKinds[op]
	}
	return nil
}

func (op MutationOp) String() string {
	if k := op.kind(); k != nil {
		return k.name
	}
	return fmt.Sprintf("MutationOp(%d)", uint8(op))
}

// Fields names the Mutation fields op carries, in the order the journal
// encodes them (nil for an unknown op). Every other field of a Mutation
// with this op is zero.
func (op MutationOp) Fields() []string {
	if k := op.kind(); k != nil {
		return slices.Clone(k.fields)
	}
	return nil
}

// Mutation describes one state-changing Planner call; Op.Fields lists
// the fields that are meaningful for its op. For MutAddPerson, Name is
// the requested name and Person the assigned id.
type Mutation struct {
	Op       MutationOp
	Name     string
	Person   PersonID
	A, B     PersonID
	Distance float64
	From, To int
	Policy   SharePolicy
	X, Y     float64
}

// MutationHook observes every successful mutation. It is invoked
// synchronously while the planner's write lock is held — implementations
// must be fast and must not call back into the Planner. The returned wait
// function (nil when no waiting is needed) is called by the mutating method
// after the lock has been released; its error is returned to the caller.
//
// The two-phase shape is what lets a durable backend order records
// correctly and still batch syncs: sequence numbers are assigned under the
// planner lock (so journal order equals apply order), while the wait for
// group commit happens outside it (so concurrent writers' syncs coalesce).
//
// ctx is the caller's request context as passed to Planner.Apply
// (context.Background() from the plain mutation methods). Hooks use it
// for request-scoped attribution — e.g. recording journal stage timings
// into an obsv.Stages carried by the context — not for cancellation: a
// mutation already applied in memory must still be journaled.
type MutationHook func(ctx context.Context, m Mutation) (wait func() error)

// Planner is the activity-planning service: a social graph plus the
// members' availability calendars. It is the entry point of the public API.
//
// A Planner is safe for concurrent use: queries may run in parallel with
// each other and with mutations (AddPerson, Connect, Disconnect,
// SetAvailable, SetBusy, SetSchedulePolicy, SetLocation). Only mutations
// take the write lock, briefly; every read — queries, Export, rendering —
// shares the read lock, and a query holds it just long enough to capture
// an immutable view sized to the s-hop ball (the radius graph and its
// members' calendar rows) before running the expensive search unlocked.
// Every step of that capture costs the ball, not the population: the
// radius graph comes from a frontier pass over reached vertices, the
// calendar rows are picked per member, and a geo-social query tests each
// member's own location.
//
// cal is the one availability store: one row per person, in step with the
// graph (cal.Users() == g.NumVertices()). Its rows are replaced, never
// edited in place, which is what lets a view share them without copying;
// only BuildPlanner edits them, before anyone can take a view.
type Planner struct {
	mu        sync.RWMutex
	g         *socialgraph.Graph
	horizon   int
	cal       *schedule.Calendar
	policies  map[PersonID]SharePolicy
	locations map[PersonID]geo.Point
	hook      MutationHook
	// building is set only while BuildPlanner fills a planner no one else
	// holds: calendar rows are then written in place, not replaced.
	building bool
}

// NewPlanner creates a Planner with the given schedule horizon in time
// slots. The paper's convention is 48 half-hour slots per day
// (stgq.SlotsPerDay); everyone starts fully busy.
func NewPlanner(horizonSlots int) *Planner {
	if horizonSlots < 0 {
		horizonSlots = 0
	}
	return &Planner{g: socialgraph.New(), horizon: horizonSlots, cal: schedule.NewCalendar(0, horizonSlots)}
}

// BuildPlanner returns a planner of horizonSlots holding the state muts
// describes: NewPlanner followed by Apply of each mutation in turn. Each
// mutation goes through the same mutation table as Apply, so it is
// validated as Apply validates it, and a MutAddPerson must name the id
// the planner assigns. What a shared planner pays for, a planner no one
// can see until BuildPlanner returns does not: no lock is taken, no hook
// runs, and calendar rows are written in place instead of replaced. The
// first mutation refused stops the build, and its refusal is the error.
// The mutations are read, never written.
func BuildPlanner(horizonSlots int, muts iter.Seq[*Mutation]) (*Planner, error) {
	pl := NewPlanner(horizonSlots)
	pl.building = true
	defer func() { pl.building = false }()
	var m Mutation // one copy for apply to fill in, whatever the count
	for next := range muts {
		k := next.Op.kind()
		if k == nil {
			return nil, fmt.Errorf("%w: unknown mutation op %d", ErrBadQuery, next.Op)
		}
		m = *next
		if err := k.apply(pl, &m); err != nil {
			return nil, err
		}
		if m.Person != next.Person {
			return nil, fmt.Errorf("stgq: person %d was assigned id %d", next.Person, m.Person)
		}
	}
	return pl, nil
}

// SlotsPerDay is the paper's calendar granularity (48 half-hour slots).
const SlotsPerDay = schedule.SlotsPerDay

// Horizon returns the schedule horizon in slots.
func (pl *Planner) Horizon() int { return pl.horizon }

// NumPeople returns the number of registered people.
func (pl *Planner) NumPeople() int {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.g.NumVertices()
}

// NumFriendships returns the number of social edges.
func (pl *Planner) NumFriendships() int {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.g.NumEdges()
}

// Counts returns the number of people and friendships as one consistent
// pair (a mutation cannot land between the two reads).
func (pl *Planner) Counts() (people, friendships int) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.g.NumVertices(), pl.g.NumEdges()
}

// SetMutationHook installs (or, with nil, removes) the observer invoked on
// every successful mutation. Installing a hook after the fact does not
// replay past mutations; durable deployments install it before accepting
// traffic (see repro/internal/journal).
func (pl *Planner) SetMutationHook(h MutationHook) {
	pl.mu.Lock()
	pl.hook = h
	pl.mu.Unlock()
}

// EnableIndex does nothing. The planner keeps one availability store,
// its calendar, and every query reads its pivot windows from those rows.
//
// Deprecated: there is no index to enable.
func (pl *Planner) EnableIndex() {}

// MaxNameLen bounds display names (in bytes). Keeping names bounded here
// guarantees every valid mutation fits in a journal record, so a single
// bad call can never poison a durable store.
const MaxNameLen = 1 << 16

// Apply validates and applies one mutation, runs the mutation hook, and
// waits for the hook's commit (see MutationHook); it is the one path
// every state change takes. ctx reaches the hook. The returned mutation
// is m as applied: for MutAddPerson it carries the assigned id, also
// when the hook's wait fails (the person is registered in memory but not
// durable).
func (pl *Planner) Apply(ctx context.Context, m Mutation) (Mutation, error) {
	k := m.Op.kind()
	if k == nil {
		return m, fmt.Errorf("%w: unknown mutation op %d", ErrBadQuery, m.Op)
	}
	pl.mu.Lock()
	err := k.apply(pl, &m)
	var wait func() error
	if err == nil {
		// The hook assigns the sequence number in the same critical
		// section as the state change, so journal order is apply order.
		if pl.hook != nil {
			wait = pl.hook(ctx, m)
		}
	}
	pl.mu.Unlock()
	if err == nil && wait != nil {
		err = wait()
	}
	return m, err
}

// AddPerson registers a person and returns their id. Names must be unique
// when non-empty; a duplicate name is disambiguated silently (the person is
// registered unnamed) so ids stay dense. The error is non-nil when the
// name exceeds MaxNameLen (nothing is registered) or when a mutation hook
// fails to make the addition durable.
func (pl *Planner) AddPerson(name string) (PersonID, error) {
	m, err := pl.Apply(context.Background(), Mutation{Op: MutAddPerson, Name: name})
	return m.Person, err
}

func (pl *Planner) addPersonLocked(m *Mutation) error {
	if len(m.Name) > MaxNameLen {
		return fmt.Errorf("%w: name of %d bytes exceeds %d", ErrBadQuery, len(m.Name), MaxNameLen)
	}
	id, err := pl.g.AddVertex(m.Name)
	if err != nil {
		// Disambiguate silently; the original name remains reachable.
		id, _ = pl.g.AddVertex("")
	}
	pl.cal.AppendUser()
	m.Person = PersonID(id)
	return nil
}

// MustAddPerson is AddPerson for setup code that does not use a durable
// backend; it panics when the mutation hook fails.
func (pl *Planner) MustAddPerson(name string) PersonID {
	id, err := pl.AddPerson(name)
	if err != nil {
		panic(err)
	}
	return id
}

// PersonByName looks up a person by name.
func (pl *Planner) PersonByName(name string) (PersonID, error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	id, err := pl.g.VertexByLabel(name)
	return PersonID(id), err
}

// Name returns the display name of a person ("" when unnamed).
func (pl *Planner) Name(p PersonID) string {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.g.Label(int(p))
}

// Connect records that two people know each other with the given social
// distance (> 0; smaller = closer). Reconnecting keeps the smaller
// distance.
func (pl *Planner) Connect(a, b PersonID, distance float64) error {
	_, err := pl.Apply(context.Background(), Mutation{Op: MutConnect, A: a, B: b, Distance: distance})
	return err
}

// mapVertexErr translates the graph's lookup errors into the package's
// sentinels so callers (and the HTTP layer's 404 mapping) see consistent
// errors instead of internal package strings.
func mapVertexErr(err error) error {
	switch {
	case errors.Is(err, socialgraph.ErrVertexNotFound):
		return fmt.Errorf("%w: %v", ErrPersonNotFound, err)
	case errors.Is(err, socialgraph.ErrEdgeNotFound):
		return fmt.Errorf("%w: %v", ErrNotFriends, err)
	}
	return err
}

// Disconnect removes the friendship between a and b. Disconnecting people
// who are not connected is an error.
func (pl *Planner) Disconnect(a, b PersonID) error {
	_, err := pl.Apply(context.Background(), Mutation{Op: MutDisconnect, A: a, B: b})
	return err
}

// SetAvailable marks person p free over slot range [from, to).
func (pl *Planner) SetAvailable(p PersonID, from, to int) error {
	_, err := pl.Apply(context.Background(), Mutation{Op: MutSetAvailable, Person: p, From: from, To: to})
	return err
}

// SetBusy marks person p busy over slot range [from, to).
func (pl *Planner) SetBusy(p PersonID, from, to int) error {
	_, err := pl.Apply(context.Background(), Mutation{Op: MutSetBusy, Person: p, From: from, To: to})
	return err
}

func (pl *Planner) setRangeLocked(m *Mutation, free bool) error {
	if err := pl.checkPersonLocked(m.Person); err != nil {
		return err
	}
	if m.From < 0 || m.To > pl.horizon || m.From > m.To {
		return fmt.Errorf("%w: slot range [%d,%d) outside horizon %d", ErrBadQuery, m.From, m.To, pl.horizon)
	}
	if pl.building {
		pl.cal.SetRange(int(m.Person), m.From, m.To, free)
	} else {
		pl.cal.ReplaceRange(int(m.Person), m.From, m.To, free)
	}
	return nil
}

// checkPersonLocked reports ErrPersonNotFound unless p is registered; the
// caller holds the lock.
func (pl *Planner) checkPersonLocked(p PersonID) error {
	if int(p) < 0 || int(p) >= pl.g.NumVertices() {
		return fmt.Errorf("%w: person %d", ErrPersonNotFound, p)
	}
	return nil
}

// FromDataset wraps a generated dataset (see cmd/stgqgen and
// internal/dataset) in a Planner. The planner adopts the dataset's graph
// and starts from its calendar without ever writing to it: the store
// shares d.Cal's rows, and a later SetAvailable/SetBusy replaces the row
// it edits. People the dataset's calendar does not cover start all-busy,
// like anyone added later. Privacy policies recorded in the dataset (as
// Export writes them) are restored; unknown policy values fall back to
// ShareAll. Locations are restored into the planner's location map;
// people without one stay unlocated (excluded from geo-social queries).
func FromDataset(d *dataset.Dataset) *Planner {
	var policies map[PersonID]SharePolicy
	for v, pol := range d.Policies {
		sp := SharePolicy(pol)
		if sp <= ShareAll || sp > ShareNone {
			continue
		}
		if policies == nil {
			policies = make(map[PersonID]SharePolicy, len(d.Policies))
		}
		policies[PersonID(v)] = sp
	}
	users := calUsers(d.Graph.NumVertices())
	for u := d.Cal.Users(); u < len(users); u++ {
		users[u] = -1
	}
	pl := &Planner{
		g:        d.Graph,
		horizon:  d.Cal.Horizon(),
		cal:      d.Cal.View(users),
		policies: policies,
	}
	for v, xy := range d.Locations {
		pl.putLocation(PersonID(v), geo.Point{X: xy[0], Y: xy[1]})
	}
	return pl
}

// DatasetMutations returns the mutations that rebuild d on an empty
// planner of horizon d.Cal.Horizon(), in the order a durable snapshot
// stores them: MutAddPerson per person in id order, MutConnect per edge
// (A < B), MutSetAvailable per free run of each calendar row, then
// MutSetPolicy per non-default policy and MutSetLocation per location, in
// person order. Unlike FromDataset, replaying them through Planner.Apply
// validates d as any journal record is validated.
func DatasetMutations(d *dataset.Dataset) iter.Seq[Mutation] {
	return func(yield func(Mutation) bool) {
		ok := true
		for v := 0; ok && v < d.Graph.NumVertices(); v++ {
			ok = yield(Mutation{Op: MutAddPerson, Person: PersonID(v), Name: d.Graph.Label(v)})
		}
		for u := 0; ok && u < d.Graph.NumVertices(); u++ {
			d.Graph.Neighbors(u, func(v int, dist float64) {
				ok = ok && (u > v || yield(Mutation{Op: MutConnect, A: PersonID(u), B: PersonID(v), Distance: dist}))
			})
		}
		h := d.Cal.Horizon()
		words := make([]uint64, (h+63)/64)
		for u := 0; ok && u < d.Cal.Users(); u++ {
			row := d.Cal.Row(u)
			for i := range words {
				words[i] = row.Bits(64*i, min(64, h-64*i))
			}
			for t := row.NextSet(0); ok && t >= 0; {
				lo, hi, _ := bitset.LongestRunContaining(words, t)
				ok = yield(Mutation{Op: MutSetAvailable, Person: PersonID(u), From: lo, To: hi + 1})
				t = row.NextSet(hi + 1)
			}
		}
		for _, v := range slices.Sorted(maps.Keys(d.Policies)) {
			pol := SharePolicy(d.Policies[v])
			ok = ok && (pol == ShareAll || yield(Mutation{Op: MutSetPolicy, Person: PersonID(v), Policy: pol}))
		}
		for _, v := range slices.Sorted(maps.Keys(d.Locations)) {
			ok = ok && yield(Mutation{Op: MutSetLocation, Person: PersonID(v), X: d.Locations[v][0], Y: d.Locations[v][1]})
		}
	}
}

// Export returns a consistent point-in-time copy of the planner's state as
// a dataset (graph and calendar deep-copied), suitable for serialization
// with dataset.Save and for round-tripping through FromDataset. If
// onLocked is non-nil it runs while the planner's read lock is still
// held — no mutation can land, but other readers may run beside it —
// letting callers capture state that must be consistent with the exported
// copy; the journal store uses it to pin the snapshot's sequence number.
// Privacy policies and locations are part of the export, so a durable
// store's snapshots preserve them across compaction; community
// assignments are not planner state and are left out.
func (pl *Planner) Export(onLocked func()) *dataset.Dataset {
	pl.mu.RLock()
	// Clone the calendar too: handing out the store's rows would let a
	// caller's SetRange edit the planner behind its lock.
	cal := pl.cal.ExtendedClone(0)
	g := pl.g.Clone()
	var policies map[int]int
	if len(pl.policies) > 0 {
		policies = make(map[int]int, len(pl.policies))
		for p, pol := range pl.policies {
			policies[int(p)] = int(pol)
		}
	}
	var locations map[int][2]float64
	if len(pl.locations) > 0 {
		locations = make(map[int][2]float64, len(pl.locations))
		for p, pt := range pl.locations {
			locations[int(p)] = [2]float64{pt.X, pt.Y}
		}
	}
	if onLocked != nil {
		onLocked()
	}
	pl.mu.RUnlock()
	days := 0
	if schedule.SlotsPerDay > 0 {
		days = (pl.horizon + schedule.SlotsPerDay - 1) / schedule.SlotsPerDay
	}
	return &dataset.Dataset{Graph: g, Cal: cal, Days: days, Policies: policies, Locations: locations}
}

// QueryView returns the immutable view a query searches, captured under
// one read-lock acquisition: the initiator's radius graph over s hops
// and, when withCalendar is set, the calendar of its members as the
// initiator may see it, with the vertex → calendar-user mapping. FindGroup
// searches the graph, PlanActivity the whole view; the paper's comparators
// (internal/baseline, internal/ipmodel) take the same arguments, so a
// cross-check runs them on exactly what the planner searched. Nothing in
// the view is written afterwards, so it is searched without any lock.
func (pl *Planner) QueryView(initiator PersonID, s int, withCalendar bool) (*socialgraph.RadiusGraph, *schedule.Calendar, []int, error) {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.viewRLocked(initiator, s, withCalendar)
}

// viewRLocked builds the immutable query view; the caller holds at least
// the read lock. The radius graph is extracted from the graph on every
// query, by a frontier pass that costs the initiator's s-hop ball, not
// the population. The calendar holds the radius graph's members only —
// user i is vertex i, so the vertex → calendar-user mapping is
// calUsers(rg.N()) — and shares the store's rows except for members whose
// SharePolicy hides their schedule from the initiator, who get an all-busy
// row.
func (pl *Planner) viewRLocked(initiator PersonID, s int, withCalendar bool) (*socialgraph.RadiusGraph, *schedule.Calendar, []int, error) {
	if int(initiator) < 0 || int(initiator) >= pl.g.NumVertices() {
		return nil, nil, nil, fmt.Errorf("%w: person %d", ErrPersonNotFound, initiator)
	}
	if s < 1 {
		return nil, nil, nil, fmt.Errorf("%w: social radius s=%d < 1", ErrBadQuery, s)
	}
	rg, err := pl.g.ExtractRadiusGraph(int(initiator), s)
	if err != nil {
		return nil, nil, nil, err
	}
	if !withCalendar {
		return rg, nil, nil, nil
	}
	// members[v] is the store row of vertex v, or -1 (all-busy) when the
	// initiator may not read it.
	members := make([]int, rg.N())
	for v, person := range rg.Orig {
		members[v] = person
		if !pl.scheduleVisible(initiator, PersonID(person)) {
			members[v] = -1
		}
	}
	return rg, pl.cal.View(members), calUsers(rg.N()), nil
}

// calUsers is the identity mapping over n users: vertex i → calendar
// user i.
func calUsers(n int) []int {
	users := make([]int, n)
	for i := range users {
		users[i] = i
	}
	return users
}

// FindGroup answers a social group query with SGSelect.
func (pl *Planner) FindGroup(q SGQuery) (*GroupResult, error) {
	rg, _, _, err := pl.QueryView(q.Initiator, q.S, false)
	if err != nil {
		return nil, err
	}
	grp, stats, err := core.SGSelect(rg, q.P, q.K, nil, q.options())
	if err != nil {
		return nil, err
	}
	return groupResult(rg, grp, stats), nil
}

// PlanActivity answers a social-temporal group query with STGSelect.
func (pl *Planner) PlanActivity(q STGQuery) (*PlanResult, error) {
	rg, cal, users, err := pl.QueryView(q.Initiator, q.S, true)
	if err != nil {
		return nil, err
	}
	ans, stats, err := core.STGSelect(rg, cal, users, q.P, q.K, q.M, q.options())
	if err != nil {
		return nil, err
	}
	return &PlanResult{
		GroupResult: *groupResult(rg, &ans.Group, stats),
		Window:      window(ans.Interval),
		PivotSlot:   ans.Pivot,
	}, nil
}

// PlanManually simulates the phone-coordination process the paper compares
// against (PCArrange, Section 5.1). The result reports the observed
// acquaintance bound k_h of the manually assembled group.
func (pl *Planner) PlanManually(q STGQuery) (*ManualPlan, error) {
	rg, cal, users, err := pl.QueryView(q.Initiator, q.S, true)
	if err != nil {
		return nil, err
	}
	res, err := coordinate.PCArrange(rg, cal, users, q.P, q.M)
	if err != nil {
		return nil, err
	}
	members := make([]Member, len(res.Members))
	for i, v := range res.Members {
		members[i] = Member{ID: PersonID(rg.Orig[v]), Name: rg.Labels[v], Distance: rg.Dist[v]}
	}
	return &ManualPlan{
		Members:       members,
		TotalDistance: res.TotalDistance,
		Window:        window(res.Period),
		ObservedK:     res.ObservedK,
	}, nil
}

// PlanWithSmallestK runs STGArrange: it increases k from 0 until the exact
// planner matches or beats the target total distance (typically the manual
// plan's), returning that k and the plan.
func (pl *Planner) PlanWithSmallestK(q STGQuery, targetDistance float64) (int, *PlanResult, error) {
	rg, cal, users, err := pl.QueryView(q.Initiator, q.S, true)
	if err != nil {
		return 0, nil, err
	}
	res, err := coordinate.STGArrange(rg, cal, users, q.P, q.M, targetDistance, q.P-1, q.options())
	if err != nil {
		return 0, nil, err
	}
	return res.K, &PlanResult{
		GroupResult: *groupResult(rg, &res.Answer.Group, core.Stats{}),
		Window:      window(res.Answer.Interval),
		PivotSlot:   res.Answer.Pivot,
	}, nil
}

// window turns the engine's inclusive slot period into the half-open
// TimeWindow the API reports.
func window(p core.Period) TimeWindow {
	return TimeWindow{Start: p.Start, End: p.End + 1}
}

func groupResult(rg *socialgraph.RadiusGraph, grp *core.Group, stats core.Stats) *GroupResult {
	members := make([]Member, len(grp.Members))
	for i, v := range grp.Members {
		members[i] = Member{ID: PersonID(rg.Orig[v]), Name: rg.Labels[v], Distance: rg.Dist[v]}
	}
	return &GroupResult{
		Members:       members,
		TotalDistance: grp.TotalDistance,
		Stats:         stats,
	}
}
