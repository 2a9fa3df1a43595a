package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
)

// Differential testing: random select-project-join-aggregate queries over
// randomly generated, randomly distributed tables, executed through the
// full XDB pipeline and compared against a single engine holding all the
// data. Any divergence is a bug in the optimizer, the delegation engine,
// the renderer, or the cascade itself.

type diffRig struct {
	cluster *testbed.Testbed
	ref     *engine.Engine
	tables  []diffTable
}

type diffTable struct {
	name string
	node string
	cols []string // i0 (key), i1, s0
}

func newDiffRig(t *testing.T, r *rand.Rand, opts core.Options) *diffRig {
	t.Helper()
	nodes := []string{"n1", "n2", "n3"}
	tb, err := testbed.New(nodes, testbed.Config{DefaultVendor: engine.VendorTest, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	ref := engine.New(engine.Config{Name: "ref", Vendor: engine.VendorTest})

	rig := &diffRig{cluster: tb, ref: ref}
	nTables := 2 + r.Intn(3)
	for ti := 0; ti < nTables; ti++ {
		name := fmt.Sprintf("t%d", ti)
		schema := sqltypes.NewSchema(
			sqltypes.Column{Name: "k", Type: sqltypes.TypeInt},
			sqltypes.Column{Name: "v", Type: sqltypes.TypeInt},
			sqltypes.Column{Name: "s", Type: sqltypes.TypeString},
		)
		nRows := 20 + r.Intn(200)
		keySpace := 5 + r.Intn(30)
		rows := make([]sqltypes.Row, nRows)
		for i := range rows {
			// One key in ten is NULL: a join must drop those rows on every
			// placement, whichever join algorithm the DBMS there picks.
			k := sqltypes.NewInt(int64(r.Intn(keySpace)))
			if r.Intn(10) == 0 {
				k = sqltypes.Null
			}
			rows[i] = sqltypes.Row{
				k,
				sqltypes.NewInt(int64(r.Intn(100))),
				sqltypes.NewString(fmt.Sprintf("s%d", r.Intn(5))),
			}
		}
		node := nodes[r.Intn(len(nodes))]
		if err := tb.LoadTable(node, name, schema, rows); err != nil {
			t.Fatal(err)
		}
		if err := ref.LoadTable(name, schema, rows); err != nil {
			t.Fatal(err)
		}
		rig.tables = append(rig.tables, diffTable{name: name, node: node})
	}
	return rig
}

// randomQuery builds a join chain over all tables with random filters and
// either an aggregate or a plain projection, always with a total ORDER BY
// so results are comparable positionally.
func randomQuery(r *rand.Rand, tables []diffTable) string {
	from := ""
	for i, tab := range tables {
		if i > 0 {
			from += ", "
		}
		from += fmt.Sprintf("%s a%d", tab.name, i)
	}
	where := ""
	and := func(cond string) {
		if where == "" {
			where = cond
		} else {
			where += " AND " + cond
		}
	}
	// Join chain on k.
	for i := 1; i < len(tables); i++ {
		and(fmt.Sprintf("a%d.k = a%d.k", i-1, i))
	}
	// Random filters.
	for i := range tables {
		switch r.Intn(4) {
		case 0:
			and(fmt.Sprintf("a%d.v > %d", i, r.Intn(80)))
		case 1:
			and(fmt.Sprintf("a%d.s = 's%d'", i, r.Intn(5)))
		case 2:
			and(fmt.Sprintf("a%d.v BETWEEN %d AND %d", i, 10+r.Intn(30), 50+r.Intn(50)))
		}
	}
	// Cross-relation residual sometimes.
	if len(tables) >= 2 && r.Intn(3) == 0 {
		i, j := r.Intn(len(tables)), r.Intn(len(tables))
		if i != j {
			and(fmt.Sprintf("(a%d.v < a%d.v OR a%d.s = a%d.s)", i, j, i, j))
		}
	}

	if r.Intn(2) == 0 {
		// Aggregate query.
		return fmt.Sprintf(
			"SELECT a0.s, COUNT(*) AS n, SUM(a0.v) AS sv, AVG(a%d.v) AS av FROM %s WHERE %s GROUP BY a0.s ORDER BY a0.s",
			len(tables)-1, from, where)
	}
	// Plain projection with a deterministic total order.
	return fmt.Sprintf(
		"SELECT a0.k, a0.v, a%d.v AS w, a0.s FROM %s WHERE %s ORDER BY a0.k, a0.v, w, a0.s",
		len(tables)-1, from, where)
}

func TestDifferentialRandomQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			opts := core.Options{}
			if seed%3 == 1 {
				opts.BushyPlans = true
			}
			if seed%3 == 2 {
				opts.ForceMovement = planner.MoveExplicit
			}
			rig := newDiffRig(t, r, opts)
			for q := 0; q < 5; q++ {
				sql := randomQuery(r, rig.tables)
				got, err := rig.cluster.System.Query(sql)
				if err != nil {
					t.Fatalf("xdb: %v\nquery: %s", err, sql)
				}
				want, err := rig.ref.QueryAll(sql)
				if err != nil {
					t.Fatalf("ref: %v\nquery: %s", err, sql)
				}
				if !equalResultSets(got.Rows, want.Rows) {
					t.Fatalf("diverged on:\n%s\nxdb: %d rows\nref: %d rows\nxdb: %v\nref: %v\nplan:\n%s",
						sql, len(got.Rows), len(want.Rows), sample(got.Rows), sample(want.Rows), got.Plan)
				}
				checkExportsRead(t, sql, got.Plan)
			}
		})
	}
}

// checkExportsRead fails unless every column an intermediate task exports
// is read by its consumer's fragment: a join key, a residual, the Final
// block, or the consumer's own export to its parent. The one exception is
// a relation nothing above reads, which still exports a single column so
// it renders.
func checkExportsRead(t *testing.T, sql string, plan *planner.Plan) {
	t.Helper()
	exports := map[*planner.Task][]string{}
	for _, e := range plan.Edges {
		exports[e.From] = e.Placeholder.Cols
	}
	for _, e := range plan.Edges {
		reads := map[string]bool{}
		note := func(exprs ...sqlparser.Expr) {
			for _, x := range exprs {
				for _, cr := range sqlparser.ColumnsIn(x) {
					reads[strings.ToLower(cr.Table+"."+cr.Name)] = true
				}
			}
		}
		for _, c := range exports[e.To] {
			reads[strings.ToLower(c)] = true
		}
		var walk func(op planner.Op)
		walk = func(op planner.Op) {
			switch o := op.(type) {
			case *planner.Join:
				for _, k := range o.Keys {
					note(k.L, k.R)
				}
				note(o.Residual...)
				walk(o.L)
				walk(o.R)
			case *planner.Final:
				for _, p := range o.Sel.Projections {
					note(p.Expr)
				}
				note(o.Sel.GroupBy...)
				note(o.Sel.Having)
				for _, ob := range o.Sel.OrderBy {
					note(ob.Expr)
				}
				walk(o.In)
			}
		}
		walk(e.To.Root)
		var unread []string
		for _, c := range e.Placeholder.Cols {
			if !reads[strings.ToLower(c)] {
				unread = append(unread, c)
			}
		}
		if len(unread) > 0 && len(e.Placeholder.Cols) > 1 {
			t.Fatalf("t%d exports %v to t%d, which never reads %v\nquery: %s\nplan:\n%s",
				e.From.ID, e.Placeholder.Cols, e.To.ID, unread, sql, plan)
		}
	}
}

// equalResultSets compares two ordered result sets with float tolerance;
// ORDER BY keys may tie, so it falls back to sorted-multiset comparison on
// rendered rows when positional comparison fails.
func equalResultSets(a, b []sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	if positionalEqual(a, b) {
		return true
	}
	// Multiset fallback (ties in ORDER BY keys permit different orders).
	ra, rb := renderAll(a), renderAll(b)
	sort.Strings(ra)
	sort.Strings(rb)
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

func positionalEqual(a, b []sqltypes.Row) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.T == sqltypes.TypeFloat || y.T == sqltypes.TypeFloat {
				if math.Abs(x.Float()-y.Float()) > math.Max(1e-9, 1e-9*math.Abs(y.Float())) {
					return false
				}
				continue
			}
			if !sqltypes.Equal(x, y) {
				return false
			}
		}
	}
	return true
}

func renderAll(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			if v.T == sqltypes.TypeFloat {
				s += fmt.Sprintf("%.6f", v.F)
			} else {
				s += v.String()
			}
		}
		out[i] = s
	}
	return out
}

func sample(rows []sqltypes.Row) []sqltypes.Row {
	if len(rows) > 4 {
		return rows[:4]
	}
	return rows
}
