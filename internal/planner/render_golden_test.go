package planner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/tpch"
)

// TestRenderGolden pins the SQL XDB sends: Plan.Describe — every task's
// rendered statement, the root task's final block included — for every
// TPC-H query and distribution, under the default and the bushy join
// orders, planned over the local cost model's answers (no sockets), and
// the per-scan fragments the mediator fallback fetches, compared byte for
// byte with testdata/render.golden. `go test ./internal/planner/ -run
// TestRenderGolden -update` rewrites it, only when a spelling change is
// meant.
func TestRenderGolden(t *testing.T) {
	cats, _ := tpchCatalogs(t)
	var w strings.Builder
	for _, qn := range tpch.QueryNames {
		for _, tdName := range tpch.TDNames {
			for _, m := range joinOrderModes[:2] {
				desc, err := planTPCH(t, cats[tdName], qn, m.bushy).Describe()
				if err != nil {
					t.Fatalf("%s: %v", qn, err)
				}
				fmt.Fprintf(&w, "== %s %s %s\n%s", qn, tdName, m.name, desc)
			}
		}
		a := analyzeTPCH(t, cats["TD1"], qn)
		fmt.Fprintf(&w, "== %s fallback fragments\n", qn)
		for i := range a.Scans {
			fsel, _ := RenderFragment(a.Scans[i:i+1], nil)
			fmt.Fprintf(&w, "    %s\n", fsel)
		}
	}
	compareGolden(t, filepath.Join("testdata", "render.golden"), w.String())
}

// planTPCH plans one TPC-H query through every phase, answering each ask
// with the local cost model's prices, on a cluster whose nodes are all
// healthy and whose links are all the baseline.
func planTPCH(t testing.TB, c *Catalog, qn string, bushy bool) *Plan {
	t.Helper()
	a := analyzeTPCH(t, c, qn)
	root, err := Order(a, false, bushy)
	if err != nil {
		t.Fatal(err)
	}
	sites := NewSites(func(string) bool { return true }, func(string, string) float64 { return 1 }, nil)
	asks, err := Asks(root, sites)
	if err != nil {
		t.Fatal(err)
	}
	prices := map[Ask]engine.JoinPrices{}
	for _, ask := range asks {
		l, r, out := ask.Est()
		prices[ask] = engine.JoinPricesOf(LocalCost, l, r, out)
	}
	ann := &Annotation{}
	Place(ann, root, prices, sites, 0)
	return Finalize(a, root, ann)
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
