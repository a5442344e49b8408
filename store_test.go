package stgq_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	stgq "repro"
	"repro/internal/dataset"
	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// storeModel drives a planner and a plain [][]bool side by side: the
// planner's availability store must be, at every moment, exactly what the
// sequence of AddPerson/SetAvailable/SetBusy calls says it is — whatever
// else (policies, exports, friendships) happened in between.
type storeModel struct {
	t       *testing.T
	pl      *stgq.Planner
	horizon int
	free    [][]bool // free[person][slot]
}

func (m *storeModel) addPerson(name string) stgq.PersonID {
	m.t.Helper()
	id, err := m.pl.AddPerson(name)
	if err != nil {
		m.t.Fatal(err)
	}
	if int(id) != len(m.free) {
		m.t.Fatalf("AddPerson(%q) = %d, want the next dense id %d", name, id, len(m.free))
	}
	m.free = append(m.free, make([]bool, m.horizon))
	return id
}

func (m *storeModel) setRange(p stgq.PersonID, from, to int, free bool) {
	m.t.Helper()
	set := m.pl.SetBusy
	if free {
		set = m.pl.SetAvailable
	}
	if err := set(p, from, to); err != nil {
		m.t.Fatal(err)
	}
	for s := from; s < to; s++ {
		m.free[p][s] = free
	}
}

// check compares both read paths of the store with the model: the
// exported calendar, and the rendered grid's cells. Every check exports,
// so every edit of a stream is followed by an Export and then by more
// edits: an Export in between must change nothing.
func (m *storeModel) check(step string) {
	m.t.Helper()
	cal := m.pl.Export(nil).Cal
	if cal.Users() != len(m.free) || cal.Horizon() != m.horizon || m.pl.NumPeople() != len(m.free) {
		m.t.Fatalf("%s: exported calendar %dx%d for %d people, model %dx%d",
			step, cal.Users(), cal.Horizon(), m.pl.NumPeople(), len(m.free), m.horizon)
	}
	people := make([]stgq.PersonID, len(m.free))
	for p := range people {
		people[p] = stgq.PersonID(p)
	}
	lines := strings.Split(strings.TrimSuffix(m.pl.AvailabilityGrid(people, 0, m.horizon), "\n"), "\n")
	if len(lines) != 1+len(m.free) {
		m.t.Fatalf("%s: grid has %d lines, want a header and %d people", step, len(lines), len(m.free))
	}
	for p, row := range m.free {
		cells := []rune(lines[1+p])
		cells = cells[len(cells)-m.horizon:]
		for s, want := range row {
			if got := cal.Available(p, s); got != want {
				m.t.Fatalf("%s: export: person %d slot %d free=%v, model says %v", step, p, s, got, want)
			}
			if got := cells[s] == '█'; got != want {
				m.t.Fatalf("%s: grid: person %d slot %d free=%v, model says %v", step, p, s, got, want)
			}
		}
	}
}

// randomStream applies a seeded stream of every call that touches (or
// must not touch) the store, checking after each.
func (m *storeModel) randomStream(seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		p := stgq.PersonID(rng.Intn(len(m.free)))
		var what string
		switch op := rng.Intn(10); {
		case op == 0:
			// Every other name is taken already: the duplicate path must
			// register exactly one (unnamed) person too.
			what = "AddPerson"
			m.addPerson(fmt.Sprintf("n%d", rng.Intn(8)))
		case op < 7:
			from := rng.Intn(m.horizon)
			to := from + rng.Intn(m.horizon-from+1)
			free := rng.Intn(2) == 0
			what = fmt.Sprintf("setRange(%d,%d,%d,%v)", p, from, to, free)
			m.setRange(p, from, to, free)
		case op == 7:
			// Policies change what an initiator may read, never the store.
			what = "SetSchedulePolicy"
			if err := m.pl.SetSchedulePolicy(p, stgq.SharePolicy(rng.Intn(3))); err != nil {
				m.t.Fatal(err)
			}
		case op == 8:
			what = "Connect"
			if q := stgq.PersonID(rng.Intn(len(m.free))); q != p {
				if err := m.pl.Connect(p, q, 1+float64(rng.Intn(9))); err != nil {
					m.t.Fatal(err)
				}
			}
		default:
			what = "Export"
			m.pl.Export(nil)
		}
		m.check(fmt.Sprintf("seed %d step %d %s", seed, step, what))
	}
}

// TestAvailabilityStoreMatchesModel holds the planner's one availability
// store against a plain [][]bool, from three starting points: the rounds
// that used to pin Export's folding of an edit log (there is no log now;
// the input stays), an empty planner, and a dataset-backed planner whose
// rows start out shared with the dataset.
func TestAvailabilityStoreMatchesModel(t *testing.T) {
	t.Run("export-between-edits", func(t *testing.T) {
		m := &storeModel{t: t, pl: stgq.NewPlanner(7), horizon: 7}
		ids := map[string]stgq.PersonID{}
		for _, n := range []string{"v2", "v3", "v4", "v6", "v7", "v8"} {
			ids[n] = m.addPerson(n)
			m.setRange(ids[n], len(ids)%3, 7, true)
		}
		for round := 0; round < 3; round++ {
			m.setRange(ids["v2"], round%3, round%3+2, false)
			m.setRange(ids["v8"], 1, 5, true)
			id := m.addPerson("")
			if err := m.pl.Connect(ids["v7"], id, 3); err != nil {
				t.Fatal(err)
			}
			m.check(fmt.Sprintf("round %d, before the newcomer's edit", round))
			m.setRange(id, 0, 6, true)
			m.check(fmt.Sprintf("round %d", round))
		}
	})
	for _, seed := range []int64{5, 23, 101} {
		seed := seed
		t.Run(fmt.Sprintf("empty-seed%d", seed), func(t *testing.T) {
			m := &storeModel{t: t, pl: stgq.NewPlanner(30), horizon: 30}
			m.addPerson("n0")
			m.randomStream(seed, 250)
		})
		t.Run(fmt.Sprintf("dataset-seed%d", seed), func(t *testing.T) {
			d := dataset.Synthetic(40, seed, 1)
			m := &storeModel{t: t, pl: stgq.FromDataset(d), horizon: d.Cal.Horizon()}
			for p := 0; p < d.Cal.Users(); p++ {
				row := make([]bool, m.horizon)
				for s := range row {
					row[s] = d.Cal.Available(p, s)
				}
				m.free = append(m.free, row)
			}
			m.check("as loaded")
			m.randomStream(seed, 150)
		})
	}
}

// TestFromDatasetWidensShortCalendar is the regression test for a dataset
// whose calendar covers fewer people than its graph: the uncovered people
// must be ordinary all-busy people from the start — queryable, editable,
// exported — not an out-of-range error until the first write happens to
// widen things. The store's invariant is one row per vertex, always.
func TestFromDatasetWidensShortCalendar(t *testing.T) {
	g := socialgraph.New()
	g.AddVertices(5)
	for v := 1; v < 5; v++ {
		if err := g.AddEdge(0, v, float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	cal := schedule.NewCalendar(3, 8)
	for u := 0; u < 3; u++ {
		cal.SetRange(u, 0, 8, true)
	}
	pl := stgq.FromDataset(&dataset.Dataset{Graph: g, Cal: cal, Days: 1})
	if got := pl.Export(nil).Cal.Users(); got != 5 {
		t.Fatalf("store has %d rows for 5 people", got)
	}
	// The ball of person 0 holds the uncovered 3 and 4. Three covered
	// people are free; a fourth attendee does not exist yet.
	q := stgq.STGQuery{SGQuery: stgq.SGQuery{Initiator: 0, P: 3, S: 1, K: 2}, M: 2}
	res, err := pl.PlanActivity(q)
	if err != nil {
		t.Fatalf("query over a ball with uncovered people: %v", err)
	}
	if res.TotalDistance != 3 {
		t.Fatalf("total distance %v, want 3 (people 0, 1, 2)", res.TotalDistance)
	}
	q.P = 4
	if _, err := pl.PlanActivity(q); !errors.Is(err, stgq.ErrNoFeasibleGroup) {
		t.Fatalf("uncovered people must read all-busy: err = %v", err)
	}
	if err := pl.SetAvailable(3, 0, 8); err != nil {
		t.Fatal(err)
	}
	if res, err = pl.PlanActivity(q); err != nil || res.TotalDistance != 6 {
		t.Fatalf("after freeing person 3: %+v, %v; want total distance 6", res, err)
	}
	// The duplicate-name path of AddPerson adds one row as well.
	pl.MustAddPerson("twin")
	pl.MustAddPerson("twin")
	if people, rows := pl.NumPeople(), pl.Export(nil).Cal.Users(); people != 7 || rows != 7 {
		t.Fatalf("%d people, %d rows; want 7 and 7", people, rows)
	}
	if cal.Users() != 3 {
		t.Fatalf("the dataset's own calendar grew to %d users", cal.Users())
	}
}

// TestWriteThenReadAllocations pins the cost a write no longer passes on
// to the next temporal read. SetBusy followed by PlanActivity may allocate
// only a small constant more than PlanActivity alone — the one replaced
// row — whatever the population and however many
// writes came before. (The planner used to rebuild the whole calendar,
// 2+ allocations per person, from an edit log replayed in full.)
func TestWriteThenReadAllocations(t *testing.T) {
	const maxExtra = 16
	for _, n := range []int{500, 5000} {
		d := dataset.Synthetic(n, 1, 2)
		pl := stgq.FromDataset(d)
		initiator := stgq.PersonID(d.PickInitiator(50))
		q := stgq.STGQuery{SGQuery: stgq.SGQuery{Initiator: initiator, P: 4, S: 2, K: 1}, M: 4}
		measure := func(when string) {
			t.Helper()
			// The write repeats one edit, so every run searches the same
			// state and the difference is the write path alone.
			write := func() {
				if err := pl.SetBusy(initiator, 0, 1); err != nil {
					t.Fatal(err)
				}
			}
			read := func() {
				pl.PlanActivity(q) //nolint:errcheck // infeasible is as good as feasible here
			}
			write()
			// Fifty runs, not a handful: each read borrows the distance
			// pass's pooled scratch, and under -race sync.Pool drops a
			// random share of what is put back, so a few-run average
			// swings by more than the bound. Without -race every run
			// allocates the same.
			const runs = 50
			cold := testing.AllocsPerRun(runs, read)
			after := testing.AllocsPerRun(runs, func() { write(); read() })
			if after-cold > maxExtra {
				t.Errorf("%d people, %s: write+read allocates %.0f, read alone %.0f: %.0f extra, want at most %d",
					n, when, after, cold, after-cold, maxExtra)
			}
		}
		measure("fresh")
		horizon := pl.Horizon()
		for i := 0; i < 400; i++ {
			if err := pl.SetAvailable(stgq.PersonID(i%n), i%horizon, i%horizon+1); err != nil {
				t.Fatal(err)
			}
		}
		measure("after 400 writes")
	}
}
