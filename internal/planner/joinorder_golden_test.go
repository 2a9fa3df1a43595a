package planner

import (
	"flag"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/joinorder"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// joinOrderModes are the three ordering configurations the optimizer has.
var joinOrderModes = []struct {
	name             string
	noReorder, bushy bool
}{
	{"default", false, false},
	{"bushy", false, true},
	{"noreorder", true, false},
}

// tpchCatalogs builds one global catalog per table distribution over the
// same generated data, with the statistics an engine would report — no
// sockets, no System.
func tpchCatalogs(t testing.TB) (map[string]*Catalog, map[string][]sqltypes.Row) {
	t.Helper()
	data := tpch.NewGenerator(0.003, 42).GenAll()
	stats := map[string]*engine.TableStats{}
	for _, table := range tpch.TableNames {
		schema, err := tpch.Schema(table)
		if err != nil {
			t.Fatal(err)
		}
		stats[table] = engine.ComputeStats(schema, data[table])
	}
	cats := map[string]*Catalog{}
	for _, tdName := range tpch.TDNames {
		c := NewCatalog()
		for _, table := range tpch.TableNames {
			schema, _ := tpch.Schema(table)
			c.Put(&TableInfo{Name: table, Node: tpch.Distributions[tdName][table], Schema: schema, Stats: stats[table]})
		}
		cats[tdName] = c
	}
	return cats, data
}

// analyzeTPCH analyzes one TPC-H query over a catalog.
func analyzeTPCH(t testing.TB, c *Catalog, qn string) *Analysis {
	t.Helper()
	sel, err := sqlparser.ParseSelect(tpch.Queries[qn])
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c, sel)
	if err != nil {
		t.Fatalf("%s: %v", qn, err)
	}
	return a
}

// describeJoins writes one line per join, children first: the aliases on
// each side (OpString shows table names only, which cannot tell Q7's two
// nation aliases apart), the keys, the residuals and the exact estimate.
func describeJoins(w *strings.Builder, op Op) string {
	switch o := op.(type) {
	case *Scan:
		return o.Alias
	case *Join:
		l, r := describeJoins(w, o.L), describeJoins(w, o.R)
		var keys, res []string
		for _, k := range o.Keys {
			keys = append(keys, k.L.String()+"="+k.R.String())
		}
		for _, e := range o.Residual {
			res = append(res, e.String())
		}
		fmt.Fprintf(w, "    (%s) ⋈ (%s) keys=%v residual=%v est=%v\n", l, r, keys, res, o.Est())
		return l + " " + r
	}
	return fmt.Sprintf("%T", op)
}

// TestJoinOrderGolden pins what join ordering decides — the middleware's
// ordered tree for every TPC-H query, distribution and ordering mode, and
// the engine's local plan for the same queries with all eight tables on
// one engine (Q8's eight relations are the widest FROM list its planner
// sees) — byte for byte, estimates included.
func TestJoinOrderGolden(t *testing.T) {
	cats, data := tpchCatalogs(t)
	var w strings.Builder
	for _, qn := range tpch.QueryNames {
		for _, tdName := range tpch.TDNames {
			for _, m := range joinOrderModes {
				root, err := Order(analyzeTPCH(t, cats[tdName], qn), m.noReorder, m.bushy)
				if err != nil {
					t.Fatalf("%s: %v", qn, err)
				}
				fmt.Fprintf(&w, "core %s %s %s: %s\n", qn, tdName, m.name, OpString(root.In))
				describeJoins(&w, root.In)
			}
		}
	}
	e := engine.New(engine.Config{Name: "all"})
	for _, table := range tpch.TableNames {
		schema, _ := tpch.Schema(table)
		if err := e.LoadTable(table, schema, data[table]); err != nil {
			t.Fatal(err)
		}
	}
	for _, qn := range tpch.QueryNames {
		info, err := e.Explain(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("engine %s: %v", qn, err)
		}
		fmt.Fprintf(&w, "engine %s: cost=%v rows=%v\n%s", qn, info.Cost, info.Rows, info.Text)
	}

	compareGolden(t, filepath.Join("testdata", "joinorder.golden"), w.String())
}

// The enumerator prices join steps from rows and distinct counts
// (joinGraph.estimate); joinGraph.join estimates the operators it builds
// (Join.estimate). Both go through joinRows, and for every step of every
// pinned query the two numbers must be the same float — otherwise the
// order was chosen against estimates the plan does not carry.
func TestJoinOrderPredictsBuiltEstimates(t *testing.T) {
	cats, _ := tpchCatalogs(t)
	for _, qn := range tpch.QueryNames {
		a := analyzeTPCH(t, cats["TD1"], qn)
		g, err := newJoinGraph(a.Scans, a.JoinConjs)
		if err != nil {
			t.Fatal(err)
		}
		var rels []Op
		for _, s := range a.Scans {
			rels = append(rels, s)
		}
		for name, steps := range map[string][]joinorder.Step{
			"left-deep": g.LeftDeep(g.estimate), "bushy": g.Bushy(g.estimate), "in order": g.InOrder(g.estimate),
		} {
			_, _ = joinorder.Fold(rels, steps, func(l, r Op, s joinorder.Step) (Op, error) {
				j, err := g.join(l, r, s)
				if j.Est() != s.Rows {
					t.Errorf("%s %s: %s predicted %v rows, the built join estimates %v", qn, name, OpString(j), s.Rows, j.Est())
				}
				return j, err
			})
		}
	}
}
