package planner

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/tpch"
)

// TestPlannerDoesNoIO walks the package's transitive imports: none of
// them reaches the wire, the network simulator, the connectors, the
// runtime, tracing, the testbed or the standard library's net. Planning is
// decisions over what the caller brings; the caller does the round trips.
func TestPlannerDoesNoIO(t *testing.T) {
	forbidden := map[string]bool{"net": true}
	for _, p := range []string{"core", "wire", "netsim", "connector", "obs", "testbed"} {
		forbidden["xdb/internal/"+p] = true
	}
	root, err := filepath.Abs("../..") // the module root
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(path, srcDir string, via []string)
	walk = func(path, srcDir string, via []string) {
		if seen[path] || path == "C" || path == "unsafe" {
			return
		}
		seen[path] = true
		via = append(via, path)
		if forbidden[path] {
			t.Errorf("planner imports %s (via %s)", path, strings.Join(via, " -> "))
			return
		}
		var pkg *build.Package
		var err error
		if rest, ok := strings.CutPrefix(path, "xdb/"); ok || path == "xdb" {
			pkg, err = build.ImportDir(filepath.Join(root, rest), 0)
		} else {
			pkg, err = build.Import(path, srcDir, 0)
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			walk(imp, pkg.Dir, via)
		}
	}
	walk("xdb/internal/planner", root, nil)
	if len(seen) < 10 {
		t.Fatalf("walked only %d packages: %v", len(seen), seen)
	}
}

// BenchmarkPlan is the planner's cost per query without a cluster: TPC-H
// Q3, Q5, Q8 and Q10 over TD1's facts through every phase — Analyze,
// Order, Asks, Place, Finalize — each ask answered from a table of the
// local cost model's prices recorded beforehand, as a warm consult cache
// would answer it.
func BenchmarkPlan(b *testing.B) {
	cats, _ := tpchCatalogs(b)
	type key struct {
		node         string
		l, r, joined float64
	}
	recorded := map[key]engine.JoinPrices{}
	plan := func(b *testing.B, sel *sqlparser.Select, answer func(key) (engine.JoinPrices, bool)) *Plan {
		a, err := Analyze(cats["TD1"], sel)
		if err != nil {
			b.Fatal(err)
		}
		root, err := Order(a, false, false)
		if err != nil {
			b.Fatal(err)
		}
		sites := NewSites(func(string) bool { return true }, func(string, string) float64 { return 1 }, nil)
		asks, err := Asks(root, sites)
		if err != nil {
			b.Fatal(err)
		}
		prices := make(map[Ask]engine.JoinPrices, len(asks))
		for _, ask := range asks {
			l, r, out := ask.Est()
			p, ok := answer(key{ask.Node, l, r, out})
			if !ok {
				b.Fatalf("no recorded answer for %s at %s", OpString(ask.Join), ask.Node)
			}
			prices[ask] = p
		}
		ann := &Annotation{}
		Place(ann, root, prices, sites, 0)
		return Finalize(a, root, ann)
	}
	for _, qn := range []string{"Q3", "Q5", "Q8", "Q10"} {
		sel, err := sqlparser.ParseSelect(tpch.Queries[qn])
		if err != nil {
			b.Fatal(err)
		}
		plan(b, sel, func(k key) (engine.JoinPrices, bool) {
			recorded[k] = engine.JoinPricesOf(LocalCost, k.l, k.r, k.joined)
			return recorded[k], true
		})
		b.Run(qn, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan(b, sel, func(k key) (engine.JoinPrices, bool) {
					p, ok := recorded[k]
					return p, ok
				})
			}
		})
	}
}
