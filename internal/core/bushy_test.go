package core_test

import (
	"math"
	"testing"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

// The bushy-plan extension (the paper's footnote-5 future work): GOO-style
// ordering must produce correct results and, for queries with independent
// subtrees, genuinely bushy delegation plans.

func TestBushyPlansCorrectness(t *testing.T) {
	for _, qn := range []string{"Q3", "Q5", "Q7", "Q8", "Q9", "Q10"} {
		left := runTPCHWith(t, qn, core.Options{})
		bushy := runTPCHWith(t, qn, core.Options{BushyPlans: true})
		if len(left.Rows) != len(bushy.Rows) {
			t.Fatalf("%s: left-deep %d rows, bushy %d rows", qn, len(left.Rows), len(bushy.Rows))
		}
		for i := range left.Rows {
			for j := range left.Rows[i] {
				a, b := left.Rows[i][j], bushy.Rows[i][j]
				if a.T == sqltypes.TypeFloat || b.T == sqltypes.TypeFloat {
					if math.Abs(a.Float()-b.Float()) > math.Max(1e-6*math.Abs(a.Float()), 1e-9) {
						t.Fatalf("%s: row %d col %d: %v vs %v", qn, i, j, a, b)
					}
					continue
				}
				if !sqltypes.Equal(a, b) {
					t.Fatalf("%s: row %d col %d: %v vs %v", qn, i, j, a, b)
				}
			}
		}
	}
}

func runTPCHWith(t *testing.T, qn string, opts core.Options) *engine.Result {
	t.Helper()
	tb, err := testbed.NewTPCH("TD1", 0.003, testbed.Config{
		DefaultVendor: engine.VendorTest,
		Options:       opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	res, err := tb.System.Query(tpch.Queries[qn])
	if err != nil {
		t.Fatalf("%s (%+v): %v", qn, opts, err)
	}
	return res.Result
}

func TestBushyPlanShape(t *testing.T) {
	// Q9's join graph has two independent arms (part-side and
	// supplier-side feeding lineitem); GOO may pair them before touching
	// lineitem. At minimum the plan must differ structurally from the
	// left-deep one for some query, proving the restriction was lifted.
	tb, err := testbed.NewTPCH("TD1", 0.003, testbed.Config{
		DefaultVendor: engine.VendorTest,
		Options:       core.Options{BushyPlans: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tbLeft, err := testbed.NewTPCH("TD1", 0.003, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tbLeft.Close()

	differs := false
	for _, qn := range []string{"Q5", "Q8", "Q9"} {
		bushy, _, err := tb.System.Plan(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		left, _, err := tbLeft.System.Plan(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		if bushy.String() != left.String() {
			differs = true
		}
		// Detect a genuinely bushy node: a Join whose both children are
		// Joins (impossible in a left-deep tree).
		for _, task := range bushy.Tasks {
			if hasBushyJoin(task.Root) {
				t.Logf("%s: bushy join found in task t%d", qn, task.ID)
			}
		}
	}
	if !differs {
		t.Error("bushy ordering produced identical plans for Q5/Q8/Q9")
	}
}

func hasBushyJoin(op planner.Op) bool {
	j, ok := op.(*planner.Join)
	if !ok {
		if f, ok := op.(*planner.Final); ok {
			return hasBushyJoin(f.In)
		}
		return false
	}
	_, lJoin := j.L.(*planner.Join)
	_, rJoin := j.R.(*planner.Join)
	if lJoin && rJoin {
		return true
	}
	return hasBushyJoin(j.L) || hasBushyJoin(j.R)
}
