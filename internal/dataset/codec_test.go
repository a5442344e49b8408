package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/schedule"
	"repro/internal/socialgraph"
)

// The encoding/json oracle: the dataset file as a tagged struct, with
// the Save and Load that encoding/json gives it. The hand codec in io.go
// must write the oracle's bytes and read what the oracle reads.

type fileFormat struct {
	People       []filePerson       `json:"people"`
	Edges        []oracleEdge       `json:"edges"`
	HorizonSlots int                `json:"horizonSlots"`
	Days         int                `json:"days"`
	Free         [][][2]int         `json:"free"`
	Policies     map[int]int        `json:"policies,omitempty"`
	Locations    map[int][2]float64 `json:"locations,omitempty"`
}

type filePerson struct {
	Name      string `json:"name,omitempty"`
	Community int    `json:"community"`
}

type oracleEdge struct {
	A    int     `json:"a"`
	B    int     `json:"b"`
	Dist float64 `json:"dist"`
}

func oracleSave(d *Dataset) ([]byte, error) {
	n := d.Graph.NumVertices()
	f := fileFormat{
		People:       make([]filePerson, n),
		HorizonSlots: d.Cal.Horizon(),
		Days:         d.Days,
		Free:         make([][][2]int, n),
		Policies:     d.Policies,
		Locations:    d.Locations,
	}
	for v := 0; v < n; v++ {
		comm := 0
		if v < len(d.Community) {
			comm = d.Community[v]
		}
		f.People[v] = filePerson{Name: d.Graph.Label(v), Community: comm}
		row := d.Cal.Row(v)
		var runs [][2]int
		for s := row.NextSet(0); s != -1; {
			e := s
			for e+1 < d.Cal.Horizon() && row.Contains(e+1) {
				e++
			}
			runs = append(runs, [2]int{s, e + 1})
			s = row.NextSet(e + 1)
		}
		f.Free[v] = runs
	}
	for u := 0; u < n; u++ {
		d.Graph.Neighbors(u, func(v int, dist float64) {
			if u < v {
				f.Edges = append(f.Edges, oracleEdge{A: u, B: v, Dist: dist})
			}
		})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&f)
	return buf.Bytes(), err
}

// oracleDecode is the oracle's decoding step alone.
func oracleDecode(data []byte) (fileFormat, error) {
	var f fileFormat
	err := json.NewDecoder(bytes.NewReader(data)).Decode(&f)
	return f, err
}

// oracleBuild is the oracle's validation step.
func oracleBuild(f fileFormat) (*Dataset, error) {
	if f.HorizonSlots < 0 {
		return nil, fmt.Errorf("negative horizon %d", f.HorizonSlots)
	}
	g := socialgraph.New()
	community := make([]int, len(f.People))
	for i, p := range f.People {
		if _, err := g.AddVertex(p.Name); err != nil {
			return nil, fmt.Errorf("person %d: %w", i, err)
		}
		community[i] = p.Community
	}
	for _, e := range f.Edges {
		if err := g.AddEdge(e.A, e.B, e.Dist); err != nil {
			return nil, fmt.Errorf("edge (%d,%d): %w", e.A, e.B, err)
		}
	}
	cal := schedule.NewCalendar(len(f.People), f.HorizonSlots)
	for v, runs := range f.Free {
		if v >= len(f.People) {
			return nil, fmt.Errorf("availability for unknown person %d", v)
		}
		for _, run := range runs {
			if run[0] < 0 || run[1] > f.HorizonSlots || run[0] > run[1] {
				return nil, fmt.Errorf("person %d has bad free run %v", v, run)
			}
			cal.SetRange(v, run[0], run[1], true)
		}
	}
	for v := range f.Policies {
		if v < 0 || v >= len(f.People) {
			return nil, fmt.Errorf("policy for unknown person %d", v)
		}
	}
	for v := range f.Locations {
		if v < 0 || v >= len(f.People) {
			return nil, fmt.Errorf("location for unknown person %d", v)
		}
	}
	days := f.Days
	if days == 0 && schedule.SlotsPerDay > 0 {
		days = (f.HorizonSlots + schedule.SlotsPerDay - 1) / schedule.SlotsPerDay
	}
	return &Dataset{Graph: g, Cal: cal, Community: community, Days: days, Policies: f.Policies, Locations: f.Locations}, nil
}

// awkwardNames is a small dataset whose names need every kind of JSON
// escape, with policy keys whose decimal order is not numeric order and
// floats on both sides of encoding/json's exponent cut-offs.
func awkwardNames() *Dataset {
	names := []string{`say "hi"`, `back\slash`, "<b>&amp;</b>", "line\u2028para\u2029",
		"héllo wörld ✓ 日本", "ctl\x01\x1f\t\n\r\b\f", "bad\xffutf8", "", "plain"}
	g := socialgraph.New()
	for _, name := range names {
		g.MustAddVertex(name)
	}
	g.AddVertices(101 - len(names)) // people 10 and 100 have a policy
	dists := []float64{1e-7, 0.5, 17, 123456789.125, 1e21, 3.0000001}
	for i, d := range dists {
		g.MustAddEdge(i, i+1, d)
	}
	g.MustAddEdge(0, 8, 2)
	cal := schedule.NewCalendar(g.NumVertices(), 96)
	cal.SetRange(0, 0, 96, true)
	cal.SetRange(2, 5, 9, true)
	cal.SetRange(2, 63, 65, true)
	return &Dataset{
		Graph: g, Cal: cal, Days: 2,
		Community: []int{0, 1, 2, 3, 4, 5, 6, 7, 8},
		Policies:  map[int]int{8: 1, 2: 2, 10: 1, 100: 2, 1: 0},
		Locations: map[int][2]float64{0: {-1203.5, 8417.25}, 3: {1e-9, -2e21}, 10: {0, 0}, 9: {math.Copysign(0, -1), 1}},
	}
}

func codecFixtures() map[string]*Dataset {
	real := Real194(9, 2)
	real.Policies = map[int]int{3: 1, 17: 2, 150: 1}
	return map[string]*Dataset{
		"real194 with policies":     real,
		"synthetic 2k":              Synthetic(2000, 5, 2),
		"empty":                     {Graph: socialgraph.New(), Cal: schedule.NewCalendar(0, 48), Days: 1},
		"names that need escaping":  awkwardNames(),
		"people without a calendar": {Graph: socialgraph.New(), Cal: schedule.NewCalendar(0, 0)},
	}
}

// TestSaveMatchesEncodingJSON: Save writes encoding/json's bytes for the
// file schema, newline included.
func TestSaveMatchesEncodingJSON(t *testing.T) {
	for name, d := range codecFixtures() {
		want, err := oracleSave(d)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		var got bytes.Buffer
		if err := d.Save(&got); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			i := 0
			for i < len(want) && i < got.Len() && want[i] == got.Bytes()[i] {
				i++
			}
			lo := max(0, i-40)
			t.Fatalf("%s: Save differs from encoding/json at byte %d:\n got …%q\nwant …%q", name, i,
				got.Bytes()[lo:min(got.Len(), i+40)], want[lo:min(len(want), i+40)])
		}
	}
}

// TestSaveRefusesNonFiniteLocation: encoding/json cannot write NaN or
// ±Inf, and neither does Save; it writes nothing at all.
func TestSaveRefusesNonFiniteLocation(t *testing.T) {
	d := awkwardNames()
	d.Locations[4] = [2]float64{math.NaN(), 0}
	var buf bytes.Buffer
	if err := d.Save(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("Save of a NaN location: err %v, %d bytes written", err, buf.Len())
	}
}

// sameDataset reports how got differs from want, bit for bit.
func sameDataset(got, want *Dataset) error {
	n := want.Graph.NumVertices()
	if got.Graph.NumVertices() != n || got.Cal.Users() != want.Cal.Users() || got.Cal.Horizon() != want.Cal.Horizon() {
		return fmt.Errorf("shape %d people, %d×%d calendar; want %d, %d×%d", got.Graph.NumVertices(),
			got.Cal.Users(), got.Cal.Horizon(), n, want.Cal.Users(), want.Cal.Horizon())
	}
	type nb struct {
		v    int
		bits uint64
	}
	adj := func(g *socialgraph.Graph, u int) (out []nb) {
		g.Neighbors(u, func(v int, d float64) { out = append(out, nb{v, math.Float64bits(d)}) })
		return out
	}
	for v := 0; v < n; v++ {
		if got.Graph.Label(v) != want.Graph.Label(v) {
			return fmt.Errorf("person %d named %q, want %q", v, got.Graph.Label(v), want.Graph.Label(v))
		}
		if !reflect.DeepEqual(adj(got.Graph, v), adj(want.Graph, v)) {
			return fmt.Errorf("person %d's friendships differ", v)
		}
		if !got.Cal.Row(v).Equal(want.Cal.Row(v)) {
			return fmt.Errorf("person %d free at %v, want %v", v, got.Cal.Row(v), want.Cal.Row(v))
		}
	}
	if !reflect.DeepEqual(got.Community, want.Community) || got.Days != want.Days {
		return fmt.Errorf("community/days %v %d, want %v %d", got.Community, got.Days, want.Community, want.Days)
	}
	if !reflect.DeepEqual(got.Policies, want.Policies) {
		return fmt.Errorf("policies %v, want %v", got.Policies, want.Policies)
	}
	if (got.Locations == nil) != (want.Locations == nil) || len(got.Locations) != len(want.Locations) {
		return fmt.Errorf("locations %v, want %v", got.Locations, want.Locations)
	}
	for v, w := range want.Locations {
		g, ok := got.Locations[v]
		if !ok || math.Float64bits(g[0]) != math.Float64bits(w[0]) || math.Float64bits(g[1]) != math.Float64bits(w[1]) {
			return fmt.Errorf("location of %d is %v, want %v", v, g, w)
		}
	}
	return nil
}

// TestLoadMatchesEncodingJSONOnSaveOutput: every fixture reads back the
// way encoding/json reads it.
func TestLoadMatchesEncodingJSONOnSaveOutput(t *testing.T) {
	for name, d := range codecFixtures() {
		data, err := oracleSave(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, bufSize := range []int{64 << 10, 7} { // 7: tokens split across reads
			if loaded, _ := checkLoadAgrees(t, data, bufSize); !loaded {
				t.Fatalf("fixture %s: Load refuses what Save wrote", name)
			}
		}
	}
}

// garbage is TestLoadRejectsGarbage's inputs plus the decoder's corner
// cases: whitespace, nulls, folded and unknown keys, short and long run
// arrays, escapes, numbers at the edge of int64, trailing bytes.
var garbage = []string{
	"not json at all",
	`{"people":[{}],"horizonSlots":4,"free":[[[2,9]]]}`,
	`{"people":[{}],"horizonSlots":9,"free":[[[5,2]]]}`,
	`{"people":[{}],"horizonSlots":4,"edges":[{"a":0,"b":7,"dist":1}],"free":[]}`,
	`{"people":[{},{}],"horizonSlots":4,"edges":[{"a":0,"b":1,"dist":-2}],"free":[]}`,
	`{"people":[{}],"horizonSlots":4,"free":[[],[[0,1]]]}`,
	`{"people":[],"horizonSlots":-1,"free":[]}`,
	`{"people":[{"name":"x"},{"name":"x"}],"horizonSlots":1,"free":[]}`,
	`{"people":[{}],"horizonSlots":4,"free":[[]],"policies":{"7":1}}`,
	` null `, `null`, `nullx`, `{}`, `{} trailing`, ``, `[]`, `"x"`, `{"people":null,"edges":null,"free":null}`,
	`{"PEOPLE":[{"NAME":"a","Community":3}],"HorizonSlots":48,"FREE":[[[1,2]]],"\u212aey":1,"day\u017f":3}`,
	`{"People":[{"nAme":"b"}],"horizonslots":48,"\u0044ays":5}`,
	`{"people":[{"name":"a\u00e9\ud83d\ude00\ud800"},{"name":"b\/c"}],"horizonSlots":4,"free":[[[1]],[[0,2,"x",{}]],null]}`,
	`{"people":[null,{}],"edges":[{"a":0,"b":1,"dist":2.5e0,"x":[1,{"y":null}]}],"horizonSlots":48,"free":[[null,[1,3]]]}`,
	`{"people":[{}],"horizonSlots":9223372036854775807,"free":[]}`,
	`{"people":[],"horizonSlots":9223372036854775808,"free":[]}`,
	`{"people":[],"horizonSlots":-9223372036854775808,"days":1.5}`,
	`{"people":[{}],"horizonSlots":4,"policies":{},"locations":{}}`,
	`{"people":[{},{}],"horizonSlots":4,"policies":{"+1":2,"00":1},"locations":{"1":null,"0":[1e400]}}`,
	`{"people":[{},{}],"horizonSlots":4,"policies":{"+1":2,"00":1},"locations":{"1":null,"0":[1,2,3]}}`,
	`{"people":[{},{}],"horizonSlots":4,"locations":{"1":[-0,-0.0,5],"0":[1E-7]}}`,
	`{"people":[{}],"people":[{}]}`,
	`{"people":[{"name":"a","name":null,"community":1,"community":null}],"horizonSlots":1}`,
	`{"people":[{}],,"horizonSlots":1}`, `{"people":[{},]}`, `{"people":[01]}`, `{"days":-}`, `{"days":1.}`,
	"{\"people\":[{\"name\":\"tab\there\"}]}", `{"people":[{"name":"\x"}]}`, `{"people":[{"name":"\u12"}]}`,
}

// checkLoadAgrees runs the codec and the oracle on data: the codec may
// refuse what the oracle accepts (a repeated top-level key), but what
// it accepts it decodes exactly as the oracle does. It reports whether
// each accepted data.
func checkLoadAgrees(t *testing.T, data []byte, bufSize int) (loaded, oracle bool) {
	t.Helper()
	tooBig := func(people, horizon int) bool { // keep the calendar small
		return horizon > 0 && people > (1<<22)/horizon
	}
	of, oerr := oracleDecode(data)
	if oerr == nil && tooBig(len(of.People), of.HorizonSlots) {
		t.Skip("calendar too large to build")
	}
	var want *Dataset
	if oerr == nil {
		want, oerr = oracleBuild(of)
	}
	f, err := decode(bytes.NewReader(data), bufSize)
	if err != nil {
		return false, oerr == nil
	}
	if tooBig(len(f.community), f.horizon) {
		t.Fatalf("Load decoded a %d×%d calendar where encoding/json says %v", len(f.community), f.horizon, oerr)
	}
	got, err := f.build()
	if err != nil {
		return false, oerr == nil
	}
	if oerr != nil {
		t.Fatalf("Load accepted %q, which encoding/json and the validation refuse: %v", data, oerr)
	}
	if err := sameDataset(got, want); err != nil {
		t.Fatalf("Load(%q) differs from encoding/json: %v", data, err)
	}
	return true, true
}

// TestLoadMatchesEncodingJSONOnGarbage: on the fixed inputs Load also
// accepts exactly what the oracle accepts, but for a repeated top-level
// key.
func TestLoadMatchesEncodingJSONOnGarbage(t *testing.T) {
	for _, in := range garbage {
		t.Run("", func(t *testing.T) {
			loaded, oracle := checkLoadAgrees(t, []byte(in), 3)
			if loaded != oracle && in != `{"people":[{}],"people":[{}]}` {
				t.Fatalf("Load accepts %q: %v; encoding/json: %v", in, loaded, oracle)
			}
		})
	}
}

// FuzzLoadAgreesWithEncodingJSON: on any input, Load either refuses it
// or returns exactly what encoding/json's decode plus the same
// validation returns.
func FuzzLoadAgreesWithEncodingJSON(f *testing.F) {
	small := Synthetic(12, 3, 1)
	small.Policies = map[int]int{2: 1, 11: 2}
	for _, d := range []*Dataset{small, awkwardNames(), {Graph: socialgraph.New(), Cal: schedule.NewCalendar(0, 48), Days: 1}} {
		data, err := oracleSave(d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, in := range garbage {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoadAgrees(t, data, 1+len(data)%13)
	})
}
