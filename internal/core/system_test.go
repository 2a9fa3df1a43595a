package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

// newPandemicTestbed builds the motivating scenario of Sec. II-A: CDB
// (citizens), VDB (vaccines + vaccinations), HDB (measurements), three
// autonomous DBMSes.
// tbEngines is the testbed's engines by node name, as AssertQuiescent
// takes them.
func tbEngines(tb *testbed.Testbed) map[string]*engine.Engine {
	out := map[string]*engine.Engine{}
	for name, n := range tb.Nodes {
		out[name] = n.Engine
	}
	return out
}

func newPandemicTestbed(t *testing.T, opts core.Options) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.New([]string{"CDB", "VDB", "HDB"}, testbed.Config{
		DefaultVendor: engine.VendorTest,
		Options:       opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)

	citizens := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "name", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "age", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "address", Type: sqltypes.TypeString},
	)
	var crows []sqltypes.Row
	for i := 0; i < 300; i++ {
		crows = append(crows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("citizen-%d", i)),
			sqltypes.NewInt(int64(15 + i%70)), sqltypes.NewString("credo"),
		})
	}
	mustLoad(t, tb, "CDB", "Citizen", citizens, crows)

	vaccines := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "name", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "type", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "manufacturer", Type: sqltypes.TypeString},
	)
	mustLoad(t, tb, "VDB", "Vaccines", vaccines, []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("vaxA"), sqltypes.NewString("mRNA"), sqltypes.NewString("acme")},
		{sqltypes.NewInt(2), sqltypes.NewString("vaxB"), sqltypes.NewString("vector"), sqltypes.NewString("bmco")},
	})

	vaccination := sqltypes.NewSchema(
		sqltypes.Column{Name: "c_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "v_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "date", Type: sqltypes.TypeDate},
	)
	var vnrows []sqltypes.Row
	for i := 0; i < 300; i++ {
		vnrows = append(vnrows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(1 + i%2)),
			sqltypes.DateFromYMD(2021, 3, 1+i%28),
		})
	}
	mustLoad(t, tb, "VDB", "Vaccination", vaccination, vnrows)

	measurements := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "c_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "date", Type: sqltypes.TypeDate},
		sqltypes.Column{Name: "u_ml", Type: sqltypes.TypeFloat},
	)
	var mrows []sqltypes.Row
	for i := 0; i < 300; i++ {
		mrows = append(mrows, sqltypes.Row{
			sqltypes.NewInt(int64(5000 + i)), sqltypes.NewInt(int64(i)),
			sqltypes.DateFromYMD(2021, 6, 1+i%28), sqltypes.NewFloat(float64(40 + i%120)),
		})
	}
	mustLoad(t, tb, "HDB", "Measurements", mrows2schema(measurements), mrows)
	return tb
}

func mrows2schema(s *sqltypes.Schema) *sqltypes.Schema { return s }

func mustLoad(t *testing.T, tb *testbed.Testbed, node, table string, schema *sqltypes.Schema, rows []sqltypes.Row) {
	t.Helper()
	if err := tb.LoadTable(node, table, schema, rows); err != nil {
		t.Fatal(err)
	}
}

// paperQuery is the Fig. 3 query with the ellipsis expanded.
const paperQuery = `
SELECT v.type, AVG(m.u_ml) AS avg_uml,
  CASE WHEN c.age BETWEEN 20 AND 30 THEN '20-30'
       WHEN c.age BETWEEN 30 AND 40 THEN '30-40'
       ELSE '40+' END AS age_group
FROM CDB.Citizen c, VDB.Vaccines v, VDB.Vaccination vn, HDB.Measurements m
WHERE c.id = vn.c_id AND c.id = m.c_id AND v.id = vn.v_id AND c.age > 20
GROUP BY age_group, v.type
ORDER BY age_group, v.type`

// localReference computes the expected answer on a single engine holding
// all four tables.
func localReference(t *testing.T) *engine.Result {
	t.Helper()
	e := engine.New(engine.Config{Name: "ref", Vendor: engine.VendorTest})
	tb := newPandemicTestbed(t, core.Options{})
	for _, node := range []string{"CDB", "VDB", "HDB"} {
		src := tb.Nodes[node].Engine
		for _, name := range src.Catalog().TableNames() {
			tab, _ := src.Catalog().Table(name)
			if err := e.LoadTable(name, tab.Schema, tab.Rows); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := strings.ReplaceAll(paperQuery, "CDB.", "")
	q = strings.ReplaceAll(q, "VDB.", "")
	q = strings.ReplaceAll(q, "HDB.", "")
	res, err := e.QueryAll(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPandemicQueryEndToEnd(t *testing.T) {
	tb := newPandemicTestbed(t, core.Options{})
	res, err := tb.System.Query(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := localReference(t)
	if len(res.Rows) != len(want.Rows) {
		t.Fatalf("rows = %d, want %d\ngot: %v\nwant: %v", len(res.Rows), len(want.Rows), res.Rows, want.Rows)
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := res.Rows[i][j], want.Rows[i][j]
			if g.T == sqltypes.TypeFloat || w.T == sqltypes.TypeFloat {
				if math.Abs(g.Float()-w.Float()) > 1e-9 {
					t.Fatalf("row %d col %d: %v != %v", i, j, g, w)
				}
				continue
			}
			if !sqltypes.Equal(g, w) {
				t.Fatalf("row %d col %d: %v != %v", i, j, g, w)
			}
		}
	}
	// Plan shape: multiple tasks across the three DBMSes.
	if len(res.Plan.Tasks) < 2 {
		t.Errorf("plan has %d tasks, want cross-database delegation:\n%s", len(res.Plan.Tasks), res.Plan)
	}
	if res.RootNode == "" || !strings.Contains(res.XDBQuery, "SELECT * FROM") {
		t.Errorf("xdb query = %q on %q", res.XDBQuery, res.RootNode)
	}
	// Breakdown must be populated.
	if res.Breakdown.Exec <= 0 || res.Breakdown.ConsultRounds <= 0 {
		t.Errorf("breakdown = %+v", res.Breakdown)
	}
}

func TestDelegationCleanup(t *testing.T) {
	tb := newPandemicTestbed(t, core.Options{})
	if _, err := tb.System.Query(paperQuery); err != nil {
		t.Fatal(err)
	}
	// After cleanup, no xdb-prefixed views or tables remain on any node.
	core.AssertQuiescent(t, tb.System, tbEngines(tb))
}

func TestMiddlewareMovesNoData(t *testing.T) {
	// The essence of in-situ processing (Fig. 4b): intermediate data moves
	// between DBMSes, the middleware and client see only control traffic
	// and the final result.
	tb := newPandemicTestbed(t, core.Options{})
	tb.ResetTransfers()
	res, err := tb.System.Query(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	led := tb.Topo.Ledger()
	interDB := int64(0)
	for _, a := range []string{"CDB", "VDB", "HDB"} {
		for _, b := range []string{"CDB", "VDB", "HDB"} {
			interDB += led.Between(a, b)
		}
	}
	if interDB == 0 {
		t.Error("no inter-DBMS data movement recorded")
	}
	toMiddleware := led.Between("CDB", "xdb") + led.Between("VDB", "xdb") + led.Between("HDB", "xdb")
	if toMiddleware > 20000 {
		t.Errorf("middleware received %d bytes — should be control traffic only", toMiddleware)
	}
	toClient := led.Between(res.RootNode, "client")
	if toClient == 0 || toClient > 10000 {
		t.Errorf("client received %d bytes, want just the final result", toClient)
	}
}

func TestPlanOnlyDeploysNothing(t *testing.T) {
	tb := newPandemicTestbed(t, core.Options{})
	plan, bd, err := tb.System.Plan(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Root == nil || len(plan.Tasks) == 0 {
		t.Fatalf("plan = %+v", plan)
	}
	if bd.Deleg != 0 || bd.Exec != 0 {
		t.Errorf("plan-only breakdown has deploy/exec time: %+v", bd)
	}
	core.AssertQuiescent(t, tb.System, tbEngines(tb)) // Plan deployed nothing
}

func TestAnnotationPrunesThirdNode(t *testing.T) {
	// Sec. IV-A: plans like Fig. 5c (a cross-database join placed on a
	// DBMS holding neither input) are never produced with the default
	// candidate pruning.
	tb := newPandemicTestbed(t, core.Options{})
	plan, _, err := tb.System.Plan(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range plan.Tasks {
		inputNodes := map[string]bool{task.Node: true}
		for _, e := range task.Inputs {
			inputNodes[e.From.Node] = true
		}
		ok := false
		for _, e := range task.Inputs {
			if e.To.Node == task.Node {
				ok = true
			}
		}
		_ = ok
		// Every task must be placed on a node that holds at least one of
		// its own scans or inputs.
		holds := taskHoldsLocalData(task)
		if !holds && len(task.Inputs) > 0 {
			found := false
			for _, e := range task.Inputs {
				if e.From.Node == task.Node {
					found = true
				}
			}
			if !found {
				t.Errorf("task t%d on %s holds no local data and no input lives there:\n%s",
					task.ID, task.Node, plan)
			}
		}
	}
}

func taskHoldsLocalData(t *planner.Task) bool {
	holds := false
	var walk func(op planner.Op)
	walk = func(op planner.Op) {
		switch o := op.(type) {
		case *planner.Scan:
			if o.Node == t.Node {
				holds = true
			}
		case *planner.Join:
			walk(o.L)
			walk(o.R)
		case *planner.Final:
			walk(o.In)
		}
	}
	walk(t.Root)
	return holds
}

func TestTPCHQ3OverTD1(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.005, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	res, err := tb.System.Query(tpch.Queries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	// Reference: single-engine execution.
	ref := singleEngineTPCH(t, 0.005, "Q3")
	compareResults(t, res.Result, ref)
	if len(res.Plan.Tasks) < 2 {
		t.Errorf("Q3 over TD1 should span tasks:\n%s", res.Plan)
	}
}

func TestAllTPCHQueriesOverAllTDs(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product of queries and distributions is slow")
	}
	for _, tdName := range tpch.TDNames {
		tb, err := testbed.NewTPCH(tdName, 0.003, testbed.Config{DefaultVendor: engine.VendorTest})
		if err != nil {
			t.Fatal(err)
		}
		for _, qn := range tpch.QueryNames {
			res, err := tb.System.Query(tpch.Queries[qn])
			if err != nil {
				t.Errorf("%s over %s: %v", qn, tdName, err)
				continue
			}
			ref := singleEngineTPCH(t, 0.003, qn)
			if !compareResults(t, res.Result, ref) {
				t.Errorf("%s over %s: result mismatch", qn, tdName)
			}
		}
		tb.Close()
	}
}

var singleEngineCache = map[float64]*engine.Engine{}

func singleEngineTPCH(t *testing.T, sf float64, query string) *engine.Result {
	t.Helper()
	e, ok := singleEngineCache[sf]
	if !ok {
		e = engine.New(engine.Config{Name: "ref", Vendor: engine.VendorTest})
		data := tpch.NewGenerator(sf, 42).GenAll()
		for _, table := range tpch.TableNames {
			schema, _ := tpch.Schema(table)
			if err := e.LoadTable(table, schema, data[table]); err != nil {
				t.Fatal(err)
			}
		}
		singleEngineCache[sf] = e
	}
	res, err := e.QueryAll(tpch.Queries[query])
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareResults checks row multiset equality (order-insensitive except
// both inputs are ORDER BY'd identically, so positional with float
// tolerance).
func compareResults(t *testing.T, got, want *engine.Result) bool {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Errorf("rows = %d, want %d", len(got.Rows), len(want.Rows))
		return false
	}
	for i := range want.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Errorf("row %d: %d cols, want %d", i, len(got.Rows[i]), len(want.Rows[i]))
			return false
		}
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.T == sqltypes.TypeFloat || w.T == sqltypes.TypeFloat {
				if math.Abs(g.Float()-w.Float()) > math.Max(1e-6*math.Abs(w.Float()), 1e-9) {
					t.Errorf("row %d col %d: %v != %v", i, j, g, w)
					return false
				}
				continue
			}
			if !sqltypes.Equal(g, w) {
				t.Errorf("row %d col %d: %v != %v", i, j, g, w)
				return false
			}
		}
	}
	return true
}
