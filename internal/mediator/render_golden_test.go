package mediator

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestFragmentsGolden pins the pushed-down fragment SQL Garlic and Presto
// send (both decompose the same way) and the conjuncts left to the
// mediator, for every TPC-H query and distribution, byte for byte against
// testdata/fragments.golden. `go test ./internal/mediator/ -run
// TestFragmentsGolden -update` rewrites it, only when a spelling change is
// meant.
func TestFragmentsGolden(t *testing.T) {
	data := tpch.NewGenerator(0.001, 42).GenAll()
	var w strings.Builder
	for _, tdName := range tpch.TDNames {
		cat := planner.NewCatalog()
		for _, table := range tpch.TableNames {
			schema, _ := tpch.Schema(table)
			cat.Put(&planner.TableInfo{Name: table, Node: tpch.Distributions[tdName][table], Schema: schema,
				Stats: engine.ComputeStats(schema, data[table])})
		}
		for _, qn := range tpch.QueryNames {
			sel, err := sqlparser.ParseSelect(tpch.Queries[qn])
			if err != nil {
				t.Fatal(err)
			}
			a, err := planner.Analyze(cat, sel)
			if err != nil {
				t.Fatal(err)
			}
			frags, cross := decompose(a)
			fmt.Fprintf(&w, "== %s %s\n", qn, tdName)
			for _, f := range frags {
				fmt.Fprintf(&w, "@%s: %s\n", f.node, f.sql)
			}
			for _, c := range cross {
				fmt.Fprintf(&w, "cross: %s\n", c)
			}
		}
	}
	path := filepath.Join("testdata", "fragments.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(w.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update)", err)
	}
	if got := w.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gotLines {
			if i >= len(wantLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\n got: %s", path, i+1, gotLines[i])
			}
		}
		t.Fatalf("%s has %d lines, generated %d", path, len(wantLines), len(gotLines))
	}
}
