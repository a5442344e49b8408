package gateway_test

import (
	"bufio"
	"bytes"
	"maps"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/obsv"
)

// TestOperationsDocListsEveryRegisteredMetric holds the metric tables
// of docs/operations.md to the registry: every stgq_* series the
// process registers has a row, with the type it is exported as, and no
// row names a series that is not registered. This test binary links
// every package that registers metrics (the gateway, and through the
// service and the planner, the journal, replica and engine), so
// obsv.Default holds them all.
func TestOperationsDocListsEveryRegisteredMetric(t *testing.T) {
	var exp bytes.Buffer
	w := bufio.NewWriter(&exp)
	obsv.Default.WritePrometheus(w)
	w.Flush()
	registered := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^# TYPE (stgq_\w+) (\w+)$`).FindAllStringSubmatch(exp.String(), -1) {
		registered[m[1]] = m[2]
	}

	doc, err := os.ReadFile("../../docs/operations.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]string{}
	for _, m := range regexp.MustCompile("(?m)^\\| `(stgq_\\w+)[^`]*` \\| (\\w+) \\|").FindAllStringSubmatch(string(doc), -1) {
		if _, dup := documented[m[1]]; dup {
			t.Errorf("docs/operations.md has two rows for %s", m[1])
		}
		documented[m[1]] = m[2]
	}

	if len(registered) == 0 {
		t.Fatal("no stgq_* metric registered; the exposition format changed?")
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		switch typ, ok := documented[name]; {
		case !ok:
			t.Errorf("%s (%s) is registered but has no row in docs/operations.md", name, registered[name])
		case typ != registered[name]:
			t.Errorf("%s: docs/operations.md says %s, the registry exports a %s", name, typ, registered[name])
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if _, ok := registered[name]; !ok {
			t.Errorf("docs/operations.md has a row for %s, which nothing registers", name)
		}
	}
}
