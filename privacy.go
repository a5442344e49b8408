package stgq

import (
	"context"
	"fmt"
)

// SharePolicy controls who may read a person's availability when answering
// temporal queries. The paper's footnote 1 sketches exactly this: "any
// friend can initiate an STGQ, and the query processing system can look up
// the available time of the user, just like the friend making a call to ask
// the available time. Different privacy policies ... can be set for
// different friends ... or even not answering."
//
// A person whose schedule is invisible to the initiator behaves as if they
// never answered the phone: they cannot be scheduled, so PlanActivity,
// PlanManually, and PlanWithSmallestK treat them as fully busy. FindGroup
// (SGQ) involves no schedules and is unaffected.
type SharePolicy int

const (
	// ShareAll (default): anyone on the social network may read the
	// schedule.
	ShareAll SharePolicy = iota
	// ShareFriends: only direct friends (1 edge away) may read it.
	ShareFriends
	// ShareNone: nobody may read it; the person can never be auto-invited
	// to a timed activity by someone else.
	ShareNone
)

func (p SharePolicy) String() string {
	switch p {
	case ShareAll:
		return "all"
	case ShareFriends:
		return "friends"
	case ShareNone:
		return "none"
	}
	return fmt.Sprintf("SharePolicy(%d)", int(p))
}

// ParseSharePolicy converts a policy's String form back to the policy.
func ParseSharePolicy(s string) (SharePolicy, error) {
	switch s {
	case "", "all":
		return ShareAll, nil
	case "friends":
		return ShareFriends, nil
	case "none":
		return ShareNone, nil
	}
	return 0, fmt.Errorf("%w: unknown policy %q", ErrBadQuery, s)
}

// SetSchedulePolicy sets who may read person p's availability. The default
// for every person is ShareAll. On a durable planner the change is
// journaled (MutSetPolicy) like every other mutation, so policies survive
// restarts and replicate to followers.
func (pl *Planner) SetSchedulePolicy(p PersonID, policy SharePolicy) error {
	return pl.SetSchedulePolicyCtx(context.Background(), p, policy)
}

// SetSchedulePolicyCtx is SetSchedulePolicy with a caller context for the
// mutation hook.
func (pl *Planner) SetSchedulePolicyCtx(ctx context.Context, p PersonID, policy SharePolicy) error {
	pl.mu.Lock()
	if int(p) < 0 || int(p) >= pl.g.NumVertices() {
		pl.mu.Unlock()
		return fmt.Errorf("%w: person %d", ErrPersonNotFound, p)
	}
	if policy < ShareAll || policy > ShareNone {
		pl.mu.Unlock()
		return fmt.Errorf("%w: unknown policy %d", ErrBadQuery, policy)
	}
	if pl.policies == nil {
		pl.policies = make(map[PersonID]SharePolicy)
	}
	if policy == ShareAll {
		delete(pl.policies, p)
	} else {
		pl.policies[p] = policy
	}
	wait := pl.notifyLocked(ctx, Mutation{Op: MutSetPolicy, Person: p, Policy: policy})
	pl.mu.Unlock()
	if wait != nil {
		return wait()
	}
	return nil
}

// SchedulePolicy returns person p's current policy.
func (pl *Planner) SchedulePolicy(p PersonID) SharePolicy {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.policies[p]
}

// scheduleVisible decides whether viewer may read owner's schedule. It
// reads the policies and the graph, so the caller holds at least the read
// lock and must not retain the answer past it.
func (pl *Planner) scheduleVisible(viewer, owner PersonID) bool {
	if viewer == owner {
		return true
	}
	switch pl.policies[owner] {
	case ShareNone:
		return false
	case ShareFriends:
		return pl.g.HasEdge(int(viewer), int(owner))
	default:
		return true
	}
}
