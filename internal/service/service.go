// Package service exposes the activity planner as an HTTP/JSON service —
// the "value-added service" deployment the paper's conclusion describes
// (social networking sites and web collaboration tools; the authors were
// integrating with Facebook). It is a thin, stateless-handler layer over
// the public stgq API.
//
// Endpoints (all JSON):
//
//	POST   /people        {"name": "ana"}                        → {"id": 0}
//	POST   /friendships   {"a": 0, "b": 1, "distance": 4}        → {}
//	DELETE /friendships   {"a": 0, "b": 1}                       → {}
//	POST   /availability  {"person":0,"from":36,"to":44,"available":true} → {}
//	POST   /policies      {"person":0,"policy":"friends"}        → {}
//	POST   /people/{id}/location {"x": 120.5, "y": -430.25}      → {}
//	POST   /query/group    {"initiator":0,"p":4,"s":1,"k":1}      → group
//	POST   /query/activity {"initiator":0,"p":4,"s":1,"k":1,"m":4} → plan
//	POST   /query/gsgselect {"initiator":0,"p":4,"s":1,"k":1,"m":4,"x":0,"y":0,"radius":800} → geo plan
//	POST   /query/manual   {"initiator":0,"p":4,"s":1,"m":4}      → manual plan
//	POST   /promote        {}                    → follower becomes the leader
//	GET    /status                                               → counts
//	GET    /replication/stream                                   → journal stream (durable servers)
//
// Infeasible queries return 422; malformed requests 400; unknown people
// 404. A request body with a field its endpoint does not define is
// malformed. Each query endpoint runs one engine: SGSelect, STGSelect,
// GSGSelect and PCArrange, in the order above; the paper's exhaustive
// and integer-programming comparators are not reachable over HTTP.
//
// The six mutating endpoints above are rows of one route table
// (mutationRoutes) served by one handler: decode the request into a
// stgq.Mutation, apply it with Planner.Apply, stamp the write's sequence
// number, reply. The four query endpoints are rows of its twin
// (queryRoutes), each built by one helper (query): hold the read barrier,
// stamp the applied sequence number, decode, run the planner call, render
// the answer or the error.
//
// # Read-your-writes headers
//
// Durable leaders stamp every acknowledged mutation response with
// X-STGQ-Write-Seq (WriteSeqHeader) — the journal's durable sequence
// number at the ack. Query endpoints honor an X-STGQ-Min-Seq
// (MinSeqHeader) read barrier: the query is held until the server's
// durable/applied position reaches the floor, or answered 412 after the
// bounded wait (Server.BarrierWait) so a routing layer can fall back to
// a fresher backend. The cluster gateway composes the two into
// per-session read-your-writes; see docs/consistency.md.
//
// # Persistence
//
// A server created with NewWithStore journals every mutation through the
// repro/internal/journal subsystem: the mutating endpoints return only
// after the change is fsynced (503 when the journal fails), and GET
// /status grows a "journal" object with the write-path statistics
// (sequence numbers, group-commit batches, fsyncs, segments, snapshots).
// Servers created with New or NewWithPlanner keep the previous in-memory
// behaviour. Queries never touch the journal.
//
// # Replication
//
// A durable server doubles as a replication leader: GET
// /replication/stream serves the committed journal (see
// repro/internal/replica). A server created with NewFollower serves the
// replicated, read-only planner of a replica.Follower: queries and
// /status work normally (with replication lag fields), while mutating
// endpoints are rejected with 403, a leader hint in the body and an
// X-STGQ-Leader header pointing writers at the write path.
//
// # Failover
//
// POST /promote turns a follower into the leader in place: replication
// seals, the durable store re-opens writable at epoch+1 (fencing the
// dead predecessor's stream) and the server starts accepting mutations
// and serving /replication/stream. GET /status reports the epoch on every
// durable server; the cluster gateway compares (epoch, durableSeq) when
// adopting a leader and can drive the promotion itself (stgqgw
// -auto-failover).
package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	stgq "repro"
	"repro/internal/journal"
	"repro/internal/obsv"
	"repro/internal/replica"
)

// LeaderHeader is the response header carrying a follower's leader
// redirect hint on 403-rejected mutations. The cluster gateway
// (repro/internal/gateway) keys its transparent mutation re-routing off
// it.
const LeaderHeader = "X-STGQ-Leader"

// Server is the HTTP planning service. Create with New, mount anywhere (it
// implements http.Handler). The underlying Planner synchronizes mutations
// and queries itself, so handlers need no per-request locking; the
// server-level RWMutex only guards the role state (planner/store/follower
// pointers), which POST /promote swaps when a follower becomes the
// leader.
type Server struct {
	// BarrierWait bounds how long a query holding an X-STGQ-Min-Seq read
	// barrier waits for this server's state to catch up before answering
	// 412 (see MinSeqHeader). Zero means DefaultBarrierWait. Set it
	// before serving; it is read without synchronization.
	BarrierWait time.Duration

	// SlowRequest is the slow-request log threshold: any request (the
	// replication stream excluded) slower than it logs one line carrying
	// the X-STGQ-Request-ID. Zero means DefaultSlowRequest; negative
	// disables the log. Set it before serving; it is read without
	// synchronization.
	SlowRequest time.Duration

	mu         sync.RWMutex
	pl         *stgq.Planner
	store      *journal.Store    // nil for in-memory servers
	follower   *replica.Follower // nil unless this is a read replica
	leaderHint string            // write-endpoint URL advertised by followers
	mux        *http.ServeMux
	promoteMu  sync.Mutex // serializes promotions without blocking reads
}

// New creates a service over an empty population with the given schedule
// horizon in slots.
func New(horizonSlots int) *Server {
	s := &Server{pl: stgq.NewPlanner(horizonSlots)}
	s.routes()
	return s
}

// NewWithPlanner wraps an existing planner (e.g. one loaded from a dataset
// file).
func NewWithPlanner(pl *stgq.Planner) *Server {
	s := &Server{pl: pl}
	s.routes()
	return s
}

// NewWithStore wraps a journal store's recovered planner; mutations are
// durable, /status reports journal statistics, and GET /replication/stream
// serves the committed journal to followers (this server is a replication
// leader).
func NewWithStore(st *journal.Store) *Server {
	s := &Server{pl: st.Planner(), store: st}
	s.routes()
	return s
}

// NewFollower serves the read-only replicated planner of fo. Mutating
// endpoints answer 403 with leaderHint (the write endpoint's public URL)
// in the body and the X-STGQ-Leader header; /status reports replication
// lag. The caller drives fo.Run separately.
func NewFollower(fo *replica.Follower, leaderHint string) *Server {
	s := &Server{follower: fo, leaderHint: leaderHint}
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	for _, rt := range mutationRoutes {
		s.handle(rt.pattern, s.mutationHandler(rt))
	}
	for _, rt := range queryRoutes {
		s.handle(rt.pattern, rt.handler(s))
	}
	s.handle("POST /promote", s.handlePromote)
	s.handle("GET /status", s.handleStatus)
	s.mux.Handle("GET /metrics", obsv.Handler(obsv.Default))
	// The stream endpoint is routed unconditionally and resolved per
	// request: a follower serves no stream today, but becomes a leader —
	// and must start serving one — the moment it is promoted. It is
	// registered raw: a long-poll held open for its whole lifetime is
	// neither a slow request nor a useful latency sample.
	s.mux.HandleFunc("GET /replication/stream", s.handleStream)
}

// planner returns the planner to serve this request from. Followers must
// resolve it per request: a snapshot bootstrap swaps the replica's
// planner wholesale.
func (s *Server) planner() *stgq.Planner {
	s.mu.RLock()
	fo, pl := s.follower, s.pl
	s.mu.RUnlock()
	if fo != nil {
		return fo.Planner()
	}
	return pl
}

// writablePlanner resolves the planner a mutation may be applied to. On a
// follower it writes the 403 + leader-redirect-hint response and returns
// ok=false. Role and planner are resolved under one lock so a mutation
// racing a promotion can never slip a write into a follower's replicated
// planner.
func (s *Server) writablePlanner(w http.ResponseWriter) (*stgq.Planner, bool) {
	s.mu.RLock()
	fo, pl, hint := s.follower, s.pl, s.leaderHint
	s.mu.RUnlock()
	if fo == nil {
		return pl, true
	}
	if hint != "" {
		w.Header().Set(LeaderHeader, hint)
	}
	writeJSON(w, http.StatusForbidden, errorResponse{
		Error:  "read-only follower: send mutations to the leader",
		Leader: hint,
	})
	return nil, false
}

// handleStream serves the replication stream on whatever store the server
// currently leads; followers and in-memory servers have none.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "not a replication leader"})
		return
	}
	replica.NewStreamer(st).ServeHTTP(w, r)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// --- request/response types ----------------------------------------------

// AddPersonRequest registers one person.
type AddPersonRequest struct {
	// Name is the person's display name (may repeat; ids are the identity).
	Name string `json:"name"`
}

// AddPersonResponse returns the new person's id.
type AddPersonResponse struct {
	// ID is the assigned person id, dense from 0.
	ID int `json:"id"`
}

// FriendshipRequest records or (distance ignored) removes a social edge.
type FriendshipRequest struct {
	// A and B are the endpoint person ids (order irrelevant).
	A int `json:"a"`
	// B is the other endpoint (see A).
	B int `json:"b"`
	// Distance is the edge's social distance (closeness weight).
	Distance float64 `json:"distance,omitempty"`
}

// AvailabilityRequest marks a slot range free or busy.
type AvailabilityRequest struct {
	// Person is the person id whose calendar changes.
	Person int `json:"person"`
	// From and To bound the slot range [From, To).
	From int `json:"from"`
	// To is the exclusive end of the range (see From).
	To int `json:"to"`
	// Available marks the range free (true) or busy (false).
	Available bool `json:"available"`
}

// PolicyRequest sets a person's schedule-sharing policy ("all", "friends"
// or "none"; see stgq.SharePolicy).
type PolicyRequest struct {
	// Person is the person id whose policy changes.
	Person int `json:"person"`
	// Policy is the parsed policy name: "all", "friends" or "none".
	Policy string `json:"policy"`
}

// LocationRequest sets the location of the person named in the request
// path (POST /people/{id}/location), in meters on the deployment's flat
// local plane (see stgq.Point). Posting again moves the person.
type LocationRequest struct {
	// X is the east-west coordinate in meters.
	X float64 `json:"x"`
	// Y is the north-south coordinate in meters (see X).
	Y float64 `json:"y"`
}

// QueryRequest carries the query parameters shared by all query endpoints.
type QueryRequest struct {
	// Initiator is the person planning the activity.
	Initiator int `json:"initiator"`
	// P is the group size including the initiator.
	P int `json:"p"`
	// S is the social radius: candidates within S edges of the initiator.
	S int `json:"s"`
	// K is the acquaintance constraint: max unacquainted co-attendees per
	// member.
	K int `json:"k"`
	// M is the activity length in slots (temporal queries only).
	M int `json:"m,omitempty"`
}

// sg returns the social part of the request as the planner's query.
func (q QueryRequest) sg() stgq.SGQuery {
	return stgq.SGQuery{Initiator: stgq.PersonID(q.Initiator), P: q.P, S: q.S, K: q.K}
}

// MemberJSON is one attendee in a response.
type MemberJSON struct {
	// ID is the attendee's person id.
	ID int `json:"id"`
	// Name is the attendee's display name ("" when unnamed).
	Name string `json:"name,omitempty"`
	// Distance is the attendee's social distance to the initiator.
	Distance float64 `json:"distance"`
}

// GroupResponse answers /query/group.
type GroupResponse struct {
	// Members lists the chosen attendees, initiator included.
	Members []MemberJSON `json:"members"`
	// TotalDistance is the group's summed social distance (the minimized
	// objective).
	TotalDistance float64 `json:"totalDistance"`
}

// PlanResponse answers /query/activity.
type PlanResponse struct {
	GroupResponse
	// WindowStart and WindowEnd bound the chosen activity slots
	// [start, end).
	WindowStart int `json:"windowStart"`
	// WindowEnd is the exclusive end slot (see WindowStart).
	WindowEnd int `json:"windowEnd"`
	// WindowHuman renders the window as a day/time phrase.
	WindowHuman string `json:"window"`
}

// GeoQueryRequest carries the /query/gsgselect parameters: the shared
// query fields plus the activity point and spatial radius. M may be 0
// (purely geo-social, no temporal dimension).
type GeoQueryRequest struct {
	QueryRequest
	// X, Y is the activity point in meters on the flat local plane.
	X float64 `json:"x"`
	// Y is the north-south coordinate of the activity point (see X).
	Y float64 `json:"y"`
	// Radius is the spatial constraint in meters: every member must be
	// within Radius of the activity point.
	Radius float64 `json:"radius"`
}

// GeoPlanResponse answers /query/gsgselect. TotalDistance is the combined
// objective — each member's social distance plus their spatial distance
// to the activity point; Member.Distance stays the social distance alone.
// The window fields are present only when the query had a temporal
// dimension (m ≥ 1).
type GeoPlanResponse struct {
	GroupResponse
	// WindowStart and WindowEnd bound the chosen activity slots
	// [start, end); both are 0 when m == 0.
	WindowStart int `json:"windowStart,omitempty"`
	// WindowEnd is the exclusive end slot (see WindowStart).
	WindowEnd int `json:"windowEnd,omitempty"`
	// WindowHuman renders the window as a day/time phrase ("" when m == 0).
	WindowHuman string `json:"window,omitempty"`
}

// ManualResponse answers /query/manual.
type ManualResponse struct {
	GroupResponse
	// WindowStart and WindowEnd bound the manually coordinated slots
	// [start, end).
	WindowStart int `json:"windowStart"`
	// WindowEnd is the exclusive end slot (see WindowStart).
	WindowEnd int `json:"windowEnd"`
	// ObservedK is k_h: the largest unacquainted count any member tolerates
	// in the manual plan.
	ObservedK int `json:"observedK"`
}

// StatusResponse answers /status. Journal is present only on durable
// servers (NewWithStore and followers, which journal applied records into
// their own store); Replication only on followers.
type StatusResponse struct {
	// People and Friendships count the served population.
	People int `json:"people"`
	// Friendships counts the social edges (see People).
	Friendships int `json:"friendships"`
	// Horizon is the schedule horizon in slots.
	Horizon int `json:"horizonSlots"`
	// Role is "leader" or "follower"; "" on in-memory servers.
	Role string `json:"role,omitempty"`
	// Healthy is false while the server cannot be trusted as a read
	// backend — today only a follower mid-snapshot-bootstrap (its planner
	// is being replaced wholesale). The cluster gateway's health prober
	// keys off it.
	Healthy bool `json:"healthy"`
	// Epoch is the leader epoch of the durable history this server
	// serves: a fencing generation bumped on every promotion. The
	// gateway prefers the highest-epoch leader claim and ignores claims
	// from superseded epochs (a revived dead leader). 0 on in-memory
	// servers.
	Epoch uint64 `json:"epoch,omitempty"`
	// DurableSeq is the highest fsynced sequence number: the leader's
	// durable position, or the follower's applied position. It is the
	// uniform replication coordinate the gateway compares across backends
	// to estimate staleness (0 on in-memory servers).
	DurableSeq uint64 `json:"durableSeq"`
	// Leader is the write endpoint a follower redirects mutations to.
	Leader string `json:"leader,omitempty"`
	// Journal carries the write-path statistics of durable servers.
	Journal *journal.Stats `json:"journal,omitempty"`
	// Replication carries a follower's replication progress.
	Replication *replica.Status `json:"replication,omitempty"`
	// Metrics summarizes the process-wide write-path metrics (append ack
	// latency quantiles, fsync counts) on durable servers.
	Metrics *ServiceMetrics `json:"metrics,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Leader carries the redirect hint of a follower's 403.
	Leader string `json:"leader,omitempty"`
}

// --- handlers --------------------------------------------------------------

// mutationRoute is one mutating endpoint. mutation turns the request
// (body and path) into the one stgq.Mutation it asks for, writing the 400
// itself when the request is malformed; reply renders the applied
// mutation's response body (nil: an empty object).
type mutationRoute struct {
	pattern  string
	mutation func(w http.ResponseWriter, r *http.Request) (stgq.Mutation, bool)
	reply    func(m stgq.Mutation) any
}

// mutationRoutes is the route table of every state change the service
// accepts; mutationHandler serves them all.
var mutationRoutes = []mutationRoute{
	{pattern: "POST /people", mutation: func(w http.ResponseWriter, r *http.Request) (stgq.Mutation, bool) {
		var req AddPersonRequest
		ok := decode(w, r, &req)
		return stgq.Mutation{Op: stgq.MutAddPerson, Name: req.Name}, ok
	}, reply: func(m stgq.Mutation) any { return AddPersonResponse{ID: int(m.Person)} }},
	{pattern: "POST /friendships", mutation: func(w http.ResponseWriter, r *http.Request) (stgq.Mutation, bool) {
		var req FriendshipRequest
		ok := decode(w, r, &req)
		return stgq.Mutation{Op: stgq.MutConnect, A: stgq.PersonID(req.A), B: stgq.PersonID(req.B), Distance: req.Distance}, ok
	}},
	{pattern: "DELETE /friendships", mutation: func(w http.ResponseWriter, r *http.Request) (stgq.Mutation, bool) {
		var req FriendshipRequest
		ok := decode(w, r, &req)
		return stgq.Mutation{Op: stgq.MutDisconnect, A: stgq.PersonID(req.A), B: stgq.PersonID(req.B)}, ok
	}},
	{pattern: "POST /availability", mutation: func(w http.ResponseWriter, r *http.Request) (stgq.Mutation, bool) {
		var req AvailabilityRequest
		ok := decode(w, r, &req)
		op := stgq.MutSetBusy
		if req.Available {
			op = stgq.MutSetAvailable
		}
		return stgq.Mutation{Op: op, Person: stgq.PersonID(req.Person), From: req.From, To: req.To}, ok
	}},
	{pattern: "POST /policies", mutation: func(w http.ResponseWriter, r *http.Request) (stgq.Mutation, bool) {
		var req PolicyRequest
		if !decode(w, r, &req) {
			return stgq.Mutation{}, false
		}
		policy, err := stgq.ParseSharePolicy(req.Policy)
		if err != nil {
			writeErr(w, err)
			return stgq.Mutation{}, false
		}
		return stgq.Mutation{Op: stgq.MutSetPolicy, Person: stgq.PersonID(req.Person), Policy: policy}, true
	}},
	{pattern: "POST /people/{id}/location", mutation: func(w http.ResponseWriter, r *http.Request) (stgq.Mutation, bool) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: person id: " + err.Error()})
			return stgq.Mutation{}, false
		}
		var req LocationRequest
		ok := decode(w, r, &req)
		return stgq.Mutation{Op: stgq.MutSetLocation, Person: stgq.PersonID(id), X: req.X, Y: req.Y}, ok
	}},
}

// mutationHandler serves one mutation route: a follower answers 403 with
// the leader hint; otherwise the request's mutation is applied (and, on a
// durable server, committed) and the reply carries the write's sequence
// number.
func (s *Server) mutationHandler(rt mutationRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		pl, ok := s.writablePlanner(w)
		if !ok {
			return
		}
		m, ok := rt.mutation(w, r)
		if !ok {
			return
		}
		var err error
		timeEngine(obsv.StagesFrom(r.Context()), func() {
			m, err = pl.Apply(r.Context(), m)
		})
		if err != nil {
			writeErr(w, err)
			return
		}
		s.noteWriteSeq(w)
		var body any = struct{}{}
		if rt.reply != nil {
			body = rt.reply(m)
		}
		reply(w, r, http.StatusOK, body)
	}
}

// queryRoute is one query endpoint; handler builds its handler for a
// server (see query).
type queryRoute struct {
	pattern string
	handler func(s *Server) http.HandlerFunc
}

// queryRoutes is the route table of every query the service answers, the
// twin of mutationRoutes: each row names the planner call and renders its
// answer, and query serves them all.
var queryRoutes = []queryRoute{
	{"POST /query/group", query(func(pl *stgq.Planner, req QueryRequest) (*stgq.GroupResult, error) {
		return pl.FindGroup(req.sg())
	}, func(_ QueryRequest, res *stgq.GroupResult) any {
		return toGroupResponse(res.Members, res.TotalDistance)
	})},
	{"POST /query/activity", query(func(pl *stgq.Planner, req QueryRequest) (*stgq.PlanResult, error) {
		return pl.PlanActivity(stgq.STGQuery{SGQuery: req.sg(), M: req.M})
	}, func(_ QueryRequest, plan *stgq.PlanResult) any {
		return PlanResponse{
			GroupResponse: toGroupResponse(plan.Members, plan.TotalDistance),
			WindowStart:   plan.Window.Start,
			WindowEnd:     plan.Window.End,
			WindowHuman:   plan.Window.Format(),
		}
	})},
	{"POST /query/gsgselect", query(func(pl *stgq.Planner, req GeoQueryRequest) (*stgq.GeoPlanResult, error) {
		return pl.PlanGeoActivity(stgq.GSGQuery{SGQuery: req.sg(), M: req.M, X: req.X, Y: req.Y, Radius: req.Radius})
	}, func(req GeoQueryRequest, plan *stgq.GeoPlanResult) any {
		resp := GeoPlanResponse{GroupResponse: toGroupResponse(plan.Members, plan.TotalDistance)}
		if req.M >= 1 {
			resp.WindowStart = plan.Window.Start
			resp.WindowEnd = plan.Window.End
			resp.WindowHuman = plan.Window.Format()
		}
		return resp
	})},
	{"POST /query/manual", query(func(pl *stgq.Planner, req QueryRequest) (*stgq.ManualPlan, error) {
		return pl.PlanManually(stgq.STGQuery{SGQuery: req.sg(), M: req.M})
	}, func(_ QueryRequest, plan *stgq.ManualPlan) any {
		return ManualResponse{
			GroupResponse: toGroupResponse(plan.Members, plan.TotalDistance),
			WindowStart:   plan.Window.Start,
			WindowEnd:     plan.Window.End,
			ObservedK:     plan.ObservedK,
		}
	})},
}

// query builds the handler of one query route: hold the read barrier,
// stamp the applied sequence number, decode the request into a Q, run the
// planner call (timed as svc_engine; rendering is not), then reply with
// the error or the rendered answer.
func query[Q, R any](run func(*stgq.Planner, Q) (R, error), render func(Q, R) any) func(*Server) http.HandlerFunc {
	return func(s *Server) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !s.awaitMinSeq(w, r) {
				return
			}
			s.noteAppliedSeq(w)
			var req Q
			if !decode(w, r, &req) {
				return
			}
			var res R
			var err error
			timeEngine(obsv.StagesFrom(r.Context()), func() {
				res, err = run(s.planner(), req)
			})
			if err != nil {
				writeErr(w, err)
				return
			}
			reply(w, r, http.StatusOK, render(req, res))
		}
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	pl, store, fo, hint := s.pl, s.store, s.follower, s.leaderHint
	s.mu.RUnlock()
	if fo != nil {
		// During a snapshot re-bootstrap the follower's store is locked
		// for the swap; /status must keep answering (unhealthy) instead
		// of blocking behind it, so the store is read through the
		// non-blocking StatusView.
		rs := fo.Status()
		resp := StatusResponse{
			Role:        "follower",
			Leader:      hint,
			DurableSeq:  rs.AppliedSeq,
			Epoch:       rs.Epoch,
			Replication: &rs,
		}
		if fpl, st, ok := fo.StatusView(); ok {
			resp.People, resp.Friendships = fpl.Counts()
			resp.Horizon = fpl.Horizon()
			resp.Journal = &st
			resp.Metrics = serviceMetrics()
			// A bootstrapping follower is about to swap its planner; a
			// defunct one (closed, or a failed promotion sealed it with
			// no writable store) is frozen forever. Neither may be
			// advertised as a healthy read backend.
			resp.Healthy = !rs.Bootstrapping && !fo.Defunct()
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	people, friendships := pl.Counts()
	resp := StatusResponse{
		People:      people,
		Friendships: friendships,
		Horizon:     pl.Horizon(),
		Healthy:     true,
	}
	if store != nil {
		resp.Role = "leader"
		resp.DurableSeq = store.DurableSeq()
		resp.Epoch = store.Epoch()
		st := store.Stats()
		resp.Journal = &st
		resp.Metrics = serviceMetrics()
	}
	writeJSON(w, http.StatusOK, resp)
}

// PromoteResponse answers POST /promote.
type PromoteResponse struct {
	// Role is always "leader" on success.
	Role string `json:"role"`
	// Epoch is the new leader epoch the promotion bumped to.
	Epoch uint64 `json:"epoch"`
	// DurableSeq is the promoted history's durable position.
	DurableSeq uint64 `json:"durableSeq"`
}

// handlePromote turns a follower into the replication leader: replication
// is sealed, the durable store re-opens writable at epoch+1, and from the
// response onward this server accepts mutations and serves the
// replication stream. On a server that already leads a store the call is
// idempotent (the failover driver may retry); an in-memory server has no
// durable history to promote and answers 409.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	s.mu.RLock()
	store, fo := s.store, s.follower
	s.mu.RUnlock()
	switch {
	case fo != nil:
		st, err := fo.Promote()
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, journal.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			writeJSON(w, status, errorResponse{Error: "promote: " + err.Error()})
			return
		}
		s.mu.Lock()
		s.pl = st.Planner()
		s.store = st
		s.follower = nil
		s.leaderHint = ""
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, PromoteResponse{Role: "leader", Epoch: st.Epoch(), DurableSeq: st.DurableSeq()})
	case store != nil:
		writeJSON(w, http.StatusOK, PromoteResponse{Role: "leader", Epoch: store.Epoch(), DurableSeq: store.DurableSeq()})
	default:
		writeJSON(w, http.StatusConflict, errorResponse{Error: "in-memory server cannot be promoted (no durable history)"})
	}
}

// CloseState closes whatever durable state the server currently owns: the
// follower it was created with, or the store it was created with or
// acquired by promotion. Commands call it on shutdown instead of tracking
// the store themselves, since a runtime promotion changes the owner.
func (s *Server) CloseState() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	if s.follower != nil {
		firstErr = s.follower.Close()
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- helpers ---------------------------------------------------------------

func toGroupResponse(members []stgq.Member, total float64) GroupResponse {
	out := make([]MemberJSON, len(members))
	for i, m := range members {
		out[i] = MemberJSON{ID: int(m.ID), Name: m.Name, Distance: m.Distance}
	}
	return GroupResponse{Members: out, TotalDistance: total}
}

// maxBodyBytes caps request bodies: no legitimate request here exceeds a
// few KB, and the cap keeps oversized names from reaching the journal
// (whose per-record limit is 1 MiB).
const maxBodyBytes = 64 << 10

func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	defer obsv.StagesFrom(r.Context()).Time("svc_decode")()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
		return false
	}
	return true
}

// timeEngine attributes fn's duration to the svc_engine stage, exclusive
// of any journal_ stages fn records inside it (the durable-commit wait a
// mutation spends inside the planner call belongs to the journal, not
// the engine).
func timeEngine(st *obsv.Stages, fn func()) {
	jBefore := st.Sum("journal_")
	t0 := time.Now()
	fn()
	st.Add("svc_engine", (time.Since(t0) - time.Duration((st.Sum("journal_")-jBefore)*float64(time.Second))).Seconds())
}

// reply renders a success response with stage attribution: the JSON
// encoding is timed as svc_encode and the request's collected stages are
// rendered into the X-STGQ-Server-Timing header — encode-first, because
// headers must precede the body.
func reply(w http.ResponseWriter, r *http.Request, status int, v any) {
	st := obsv.StagesFrom(r.Context())
	t0 := time.Now()
	buf, err := json.Marshal(v)
	st.AddDuration("svc_encode", time.Since(t0))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "encode: " + err.Error()})
		return
	}
	if hv := st.HeaderValue(); hv != "" {
		w.Header().Set(obsv.ServerTimingHeader, hv)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf)
}

func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, journal.ErrClosed), isJournalErr(err):
		// The mutation may have been applied in memory but is not
		// durable; surface it as a server-side failure.
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, stgq.ErrNoFeasibleGroup), errors.Is(err, stgq.ErrCannotCoordinate):
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
	case errors.Is(err, stgq.ErrPersonNotFound), errors.Is(err, stgq.ErrNotFriends):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

// isJournalErr reports whether err came out of the durability pipeline (as
// opposed to input validation).
func isJournalErr(err error) bool {
	return errors.Is(err, journal.ErrNotDurable) || errors.Is(err, journal.ErrCorrupt)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
