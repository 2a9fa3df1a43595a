package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdb/internal/sqlparser"
	"xdb/internal/tpch"
)

// TestRenderGolden pins the SQL XDB sends: Plan.Describe — every task's
// rendered statement, the root task's final block included — for every
// TPC-H query and distribution, under the default and the bushy join
// orders, planned against the fake coster (no sockets), and the per-scan
// fragments the mediator fallback fetches, compared byte for byte with
// testdata/render.golden. `go test ./internal/core/ -run
// TestRenderGolden -update` rewrites it, only when a spelling change is
// meant.
func TestRenderGolden(t *testing.T) {
	cats, _ := tpchCatalogs(t)
	var w strings.Builder
	for _, qn := range tpch.QueryNames {
		for _, tdName := range tpch.TDNames {
			for _, m := range joinOrderModes[:2] {
				desc := describeTPCH(t, cats[tdName], qn, m.opts)
				fmt.Fprintf(&w, "== %s %s %s\n%s", qn, tdName, m.name, desc)
			}
		}
		sel, err := sqlparser.ParseSelect(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(cats["TD1"], sel)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&w, "== %s fallback fragments\n", qn)
		for i := range a.Scans {
			fsel, _ := RenderFragment(a.Scans[i:i+1], nil)
			fmt.Fprintf(&w, "    %s\n", fsel)
		}
	}
	compareGolden(t, filepath.Join("testdata", "render.golden"), w.String())
}

// describeTPCH plans one TPC-H query end to end against the fake coster
// and returns the plan's Describe.
func describeTPCH(t *testing.T, c *Catalog, qn string, opts Options) string {
	t.Helper()
	sel, err := sqlparser.ParseSelect(tpch.Queries[qn])
	if err != nil {
		t.Fatal(err)
	}
	b, conjs, canon, err := buildLogical(c, sel)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := orderJoins(b, conjs, opts)
	if err != nil {
		t.Fatal(err)
	}
	root := &Final{In: joined, Sel: canon}
	ann, err := annotate(context.Background(), root, &fakeCoster{}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := finalize(root, ann, collectColTypes(b)).Describe()
	if err != nil {
		t.Fatalf("%s: %v", qn, err)
	}
	return desc
}

// compareGolden compares got with the golden file at path line by line,
// or rewrites the file under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			wl := "<end of file>"
			if i < len(wantLines) {
				wl = wantLines[i]
			}
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wl)
		}
	}
	if len(wantLines) > len(gotLines) {
		t.Fatalf("%s has %d lines, generated %d", path, len(wantLines), len(gotLines))
	}
}
