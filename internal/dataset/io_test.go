package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := Real194(9, 2)
	orig.Policies = map[int]int{3: 1, 17: 2}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumVertices() != orig.Graph.NumVertices() {
		t.Fatalf("vertices: %d vs %d", got.Graph.NumVertices(), orig.Graph.NumVertices())
	}
	if got.Graph.NumEdges() != orig.Graph.NumEdges() {
		t.Fatalf("edges: %d vs %d", got.Graph.NumEdges(), orig.Graph.NumEdges())
	}
	if got.Days != orig.Days || got.Cal.Horizon() != orig.Cal.Horizon() {
		t.Fatalf("horizon/days mismatch")
	}
	if len(got.Policies) != 2 || got.Policies[3] != 1 || got.Policies[17] != 2 {
		t.Fatalf("policies lost in round trip: %v", got.Policies)
	}
	// Save and Load carry every field: each exported field is set in the
	// fixture and comes back deeply equal, so a field added to Dataset
	// without serialization fails here.
	ov, gv := reflect.ValueOf(orig).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		if !ov.Type().Field(i).IsExported() {
			continue
		}
		if ov.Field(i).IsZero() {
			t.Fatalf("fixture leaves Dataset.%s zero", name)
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), ov.Field(i).Interface()) {
			t.Fatalf("Dataset.%s differs after Save/Load", name)
		}
	}
	for v := 0; v < orig.Graph.NumVertices(); v++ {
		if !got.Cal.Row(v).Equal(orig.Cal.Row(v)) {
			t.Fatalf("schedule of %d differs after round trip", v)
		}
		if got.Community[v] != orig.Community[v] {
			t.Fatalf("community of %d differs", v)
		}
		orig.Graph.Neighbors(v, func(u int, dist float64) {
			d2, ok := got.Graph.EdgeDistance(v, u)
			if !ok || d2 != dist {
				t.Fatalf("edge (%d,%d) lost or re-weighted: %v %v", v, u, d2, ok)
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":     "not json at all",
		"bad run":      `{"people":[{}],"horizonSlots":4,"free":[[[2,9]]]}`,
		"inverted run": `{"people":[{}],"horizonSlots":9,"free":[[[5,2]]]}`,
		"bad edge":     `{"people":[{}],"horizonSlots":4,"edges":[{"a":0,"b":7,"dist":1}],"free":[]}`,
		"neg distance": `{"people":[{},{}],"horizonSlots":4,"edges":[{"a":0,"b":1,"dist":-2}],"free":[]}`,
		"extra person": `{"people":[{}],"horizonSlots":4,"free":[[],[[0,1]]]}`,
		"neg horizon":  `{"people":[],"horizonSlots":-1,"free":[]}`,
		"dup names":    `{"people":[{"name":"x"},{"name":"x"}],"horizonSlots":1,"free":[]}`,
		"bad policy":   `{"people":[{}],"horizonSlots":4,"free":[[]],"policies":{"7":1}}`,
	}
	for name, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Load accepted bad input", name)
		}
	}
}

func TestLoadInfersDays(t *testing.T) {
	in := `{"people":[{}],"horizonSlots":96,"free":[[[0,4]]]}`
	d, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Days != 2 {
		t.Errorf("inferred days = %d, want 2", d.Days)
	}
}
