package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	panic("no workload " + name)
}

// smallWorkload is a workload cut down to a population the tests can
// generate and boot in a moment.
func smallWorkload(name string, people int) *workload {
	w := *workloadByName(name)
	w.People = people
	return &w
}

// flatten is a run's lists one after the other, as the servers see them.
func flatten(lists [][]op) []op {
	var out []op
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// fakeLocations locates everybody but every 20th person.
func fakeLocations(n int) map[int][2]float64 {
	loc := map[int][2]float64{}
	for v := 0; v < n; v++ {
		if v%20 != 7 {
			loc[v] = [2]float64{float64(v) * 10, float64(v%13) * 100}
		}
	}
	return loc
}

func render(lists [][]op) string {
	var b strings.Builder
	for p, ops := range lists {
		for i := range ops {
			fmt.Fprintf(&b, "%d %d %s %s %s %s\n", p, ops[i].Client, ops[i].Method, ops[i].Path, ops[i].Session, ops[i].Body)
		}
	}
	return b.String()
}

func TestOpListIsAPureFunctionOfWorkloadAndSeed(t *testing.T) {
	for i := range workloads {
		w := smallWorkload(workloads[i].Name, 2000)
		loc := fakeLocations(w.People)
		a, b := generate(w, 1, 200, loc), generate(w, 1, 200, loc)
		if render(a) != render(b) || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different op lists", w.Name)
		}
		if render(a) == render(generate(w, 2, 200, loc)) {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", w.Name)
		}
		if len(a) != w.Passes+1 {
			t.Fatalf("%s: %d lists, want the warm-up's and %d passes'", w.Name, len(a), w.Passes)
		}
		for p := range a {
			if len(a[p]) != 200 {
				t.Errorf("%s: pass %d has %d ops, want 200", w.Name, p, len(a[p]))
			}
		}
	}
}

// A replayed mutation re-sets what is already set: the server would time
// a no-op. Every pass must bring writes of its own.
func TestEveryPassWritesSomethingNew(t *testing.T) {
	for _, name := range []string{"write_heavy_10k", "mixed_open_10k"} {
		w := workloadByName(name)
		lists := generate(w, 1, w.opsPerPass(10), fakeLocations(w.People))
		seen := map[string]bool{}
		writes, repeats := 0, 0
		for _, ops := range lists {
			for i := range ops {
				if ops[i].Class.isQuery() {
					continue
				}
				writes++
				key := ops[i].Path + ops[i].Body
				if seen[key] {
					repeats++
				}
				seen[key] = true
			}
		}
		// Two random draws may coincide; a replayed list would repeat five
		// writes in six.
		if writes == 0 || repeats*100 > writes {
			t.Errorf("%s: %d of %d writes repeat an earlier one", name, repeats, writes)
		}
	}
}

func TestMixIsExact(t *testing.T) {
	w := workloadByName("mixed_open_10k")
	for p, ops := range generate(w, 3, 1000, fakeLocations(w.People)) {
		var got [nClasses]int
		for i := range ops {
			got[ops[i].Class]++
		}
		for c, share := range w.Mix { // the weights sum to 100
			if got[c] != share*10 {
				t.Errorf("pass %d, class %s: %d of 1000 ops, want %d", p, opClass(c), got[c], share*10)
			}
		}
	}
}

func TestWriteOwnershipIsDisjoint(t *testing.T) {
	for _, name := range []string{"write_heavy_10k", "mixed_open_10k"} {
		w := smallWorkload(name, 600)
		ops := flatten(generate(w, 1, 400, fakeLocations(w.People)))
		for i := range ops {
			o := &ops[i]
			if o.Client != i%w.Conns {
				t.Fatalf("%s: op %d belongs to client %d", name, i, o.Client)
			}
			var touched []int
			switch o.Class {
			case clsAvail, clsLocation:
				touched = []int{o.Person}
			case clsFriend:
				touched = []int{o.A, o.B}
				if o.A == o.B {
					t.Errorf("%s: op %d befriends %d with themselves", name, i, o.A)
				}
			}
			for _, v := range touched {
				if v%w.Conns != o.Client {
					t.Errorf("%s: op %d (%s) of client %d writes person %d, whom it does not own", name, i, o.Class, o.Client, v)
				}
			}
			if !o.Class.isQuery() && o.Session != sessionID(o.Client) {
				t.Errorf("%s: write %d carries session %q", name, i, o.Session)
			}
		}
	}
}

func TestSessionReadFollowsTheClientsLastWrite(t *testing.T) {
	w := smallWorkload("write_heavy_10k", 600)
	ops := flatten(generate(w, 1, 400, fakeLocations(w.People)))
	last := [maxConns]int{-1, -1}
	checked := 0
	for i := range ops {
		o := &ops[i]
		switch o.Class {
		case clsAvail, clsLocation:
			last[o.Client] = o.Person
		case clsFriend:
			last[o.Client] = o.A
		case clsSession:
			if last[o.Client] >= 0 {
				checked++
				if o.Initiator != last[o.Client] {
					t.Errorf("op %d: session read of %d, client %d last wrote %d", i, o.Initiator, o.Client, last[o.Client])
				}
			}
			if o.Session != sessionID(o.Client) {
				t.Errorf("op %d: session read without its session", i)
			}
		}
	}
	if checked == 0 {
		t.Error("no session read followed a write")
	}
}

func TestGSGCentreIsTheLocatedInitiator(t *testing.T) {
	for _, name := range []string{"read_cold_100k", "mixed_open_10k"} {
		w := smallWorkload(name, 6000)
		loc := fakeLocations(w.People)
		// Track moves the way the servers will see them.
		now := map[int][2]float64{}
		for v, xy := range loc {
			now[v] = xy
		}
		seen := 0
		ops := flatten(generate(w, 5, 800, loc))
		for i := range ops {
			o := &ops[i]
			if o.Class == clsLocation {
				if _, ok := loc[o.Person]; ok {
					now[o.Person] = [2]float64{o.X, o.Y}
				}
			}
			if o.Class != clsGSG {
				continue
			}
			seen++
			xy, ok := loc[o.Initiator]
			if !ok {
				t.Fatalf("%s: GSG op %d has unlocated initiator %d", name, i, o.Initiator)
			}
			_ = xy
			if cur := now[o.Initiator]; cur[0] != o.X || cur[1] != o.Y {
				t.Errorf("%s: GSG op %d centres on (%v,%v), initiator %d is at %v", name, i, o.X, o.Y, o.Initiator, cur)
			}
			if o.R != w.GeoRadius {
				t.Errorf("%s: GSG op %d has radius %v", name, i, o.R)
			}
		}
		if seen == 0 {
			t.Errorf("%s: no GSG op generated", name)
		}
	}
}

// fifo is a first-in-first-out set of at most cap keys, the eviction
// policy of both of the program's caches.
type fifo struct {
	cap   int
	order []string
	has   map[string]bool
}

// touch reports whether key is held, and inserts it when not.
func (f *fifo) touch(key string) bool {
	if f.has[key] {
		return true
	}
	if len(f.order) == f.cap {
		delete(f.has, f.order[0])
		f.order = f.order[1:]
	}
	f.order = append(f.order, key)
	f.has[key] = true
	return false
}

// The cold workloads must be cold by construction — at any speed, with no
// help from a time-to-live: played against caches of the program's sizes
// that never expire an entry, a whole run scores no hit.
func TestColdWorkloadsNeverHitACache(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seconds int
	}{{"read_cold_100k", 1}, {"read_cold_100k", 10}, {"search_heavy_600", 1}, {"search_heavy_600", 10}} {
		w := workloadByName(tc.name)
		if !w.Distinct {
			t.Fatalf("%s is not declared Distinct", w.Name)
		}
		results := &fifo{cap: resultCacheEntries, has: map[string]bool{}}
		labels := &fifo{cap: labelCacheEntries, has: map[string]bool{}}
		lists := generate(w, 9, w.opsPerPass(tc.seconds), fakeLocations(w.People))
		for p, ops := range lists {
			for i := range ops {
				if results.touch(ops[i].Path + ops[i].Body) {
					t.Fatalf("%s at %d s: pass %d op %d would be served by the result cache", w.Name, tc.seconds, p, i)
				}
				if labels.touch(fmt.Sprint(ops[i].Initiator)) {
					t.Fatalf("%s at %d s: pass %d op %d would find initiator %d in the label cache", w.Name, tc.seconds, p, i, ops[i].Initiator)
				}
			}
		}
	}
}

// Every person asks once per pass, and asks the same class whatever the
// seed: the seeds differ in order only, so every seed times the same work.
func TestWholePopulationAsksTheSameQueriesOnEverySeed(t *testing.T) {
	w := workloadByName("search_heavy_600")
	loc := fakeLocations(w.People)
	asked := func(ops []op) map[string]bool {
		set := map[string]bool{}
		for i := range ops {
			set[ops[i].Path+ops[i].Body] = true
		}
		return set
	}
	lists := generate(w, 9, w.opsPerPass(10), loc)
	want := asked(lists[0])
	for p, ops := range lists {
		if got := asked(ops); len(ops) != w.People || !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d: %d ops, %d distinct queries; want the %d of the warm-up", p, len(ops), len(got), len(want))
		}
	}
	seen := map[int]bool{}
	for i := range lists[0] {
		seen[lists[0][i].Initiator] = true
	}
	if len(seen) != w.People {
		t.Errorf("%d distinct initiators, want all %d", len(seen), w.People)
	}
	other := generate(w, 10, w.opsPerPass(10), loc)[0]
	if !reflect.DeepEqual(asked(other), want) {
		t.Error("seeds 9 and 10 ask different sets of queries")
	}
	if reflect.DeepEqual(other, lists[0]) {
		t.Error("seeds 9 and 10 ask in the same order")
	}
}

func TestHotPoolCarriesItsShareOfReads(t *testing.T) {
	w := workloadByName("mixed_open_10k")
	ops := flatten(generate(w, 1, 4000, fakeLocations(w.People)))
	counts := map[int]int{}
	reads := 0
	for i := range ops {
		if c := ops[i].Class; c == clsSG || c == clsSTG || c == clsGSG {
			counts[ops[i].Initiator]++
			reads++
		}
	}
	hot := 0
	for _, n := range counts {
		if n >= 5 { // a uniform draw of 10 000 people repeats 5 times with negligible probability
			hot += n
		}
	}
	if share := float64(hot) / float64(reads); share < 0.6 || share > 0.8 {
		t.Errorf("hot pool carries %.2f of the reads, want about %.2f", share, w.HotShare)
	}
}

func TestOpsPerPassScalesWithSeconds(t *testing.T) {
	w := workloadByName("write_heavy_10k")
	if a, b := w.opsPerPass(10), w.opsPerPass(20); b != 2*a || a%w.Conns != 0 {
		t.Errorf("opsPerPass(10)=%d, opsPerPass(20)=%d", a, b)
	}
	s := workloadByName("search_heavy_600")
	if a, b := s.opsPerPass(1), s.opsPerPass(60); a != s.People || b != s.People {
		t.Errorf("a whole-population pass has %d ops at 1 s and %d at 60 s, want %d", a, b, s.People)
	}
}
