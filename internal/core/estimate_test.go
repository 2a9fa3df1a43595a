package core

import (
	"math"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// Property-style tests over the estimator: every cardinality that can
// enter a movement-cost comparison must be finite, at least one, and no
// larger than the cross product — and feedback-corrected estimates must
// honor the same bounds no matter what the feedback map carries.

// plannedJoin plans l ⋈ r over two one-column tables "l" and "r" with the
// given row and distinct counts of their column k, keyed on l.k = r.k or,
// without keyed, as a cross product, and returns the join the planner
// builds.
func plannedJoin(t *testing.T, lRows, lDistinct, rRows, rDistinct int64, keyed bool) *planner.Join {
	t.Helper()
	c := planner.NewCatalog()
	for _, tb := range []struct {
		name           string
		rows, distinct int64
	}{{"l", lRows, lDistinct}, {"r", rRows, rDistinct}} {
		c.Put(&planner.TableInfo{
			Name: tb.name, Node: "db1",
			Schema: sqltypes.NewSchema(sqltypes.Column{Name: "k", Type: sqltypes.TypeInt}),
			Stats: &engine.TableStats{RowCount: tb.rows,
				Columns: []engine.ColumnStats{{Name: "k", Distinct: tb.distinct}}},
		})
	}
	sql := "SELECT l.k FROM l, r"
	if keyed {
		sql += " WHERE l.k = r.k"
	}
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	a, err := planner.Analyze(c, sel)
	if err != nil {
		t.Fatal(err)
	}
	root, err := planner.Order(a, true, false)
	if err != nil {
		t.Fatal(err)
	}
	return root.In.(*planner.Join)
}

// TestEstimateJoinProperties sweeps a grid of input sizes and distinct
// counts: the keyed estimate is always finite, >= 1, and <= the cross
// product, and it never decreases when an input grows.
func TestEstimateJoinProperties(t *testing.T) {
	sizes := []int64{0, 1, 7, 100, 10_000, 1_000_000}
	distincts := func(rows int64) []int64 {
		out := []int64{1}
		if rows > 1 {
			out = append(out, rows/2, rows)
		}
		return out
	}
	for _, lr := range sizes {
		for _, rr := range sizes {
			for _, ld := range distincts(lr) {
				for _, rd := range distincts(rr) {
					j := plannedJoin(t, lr, ld, rr, rd, true)
					est := j.Est()
					if math.IsNaN(est) || math.IsInf(est, 0) {
						t.Fatalf("join estimate (%d/%d, %d/%d) = %v, non-finite", lr, ld, rr, rd, est)
					}
					if est < 1 {
						t.Errorf("join estimate (%d/%d, %d/%d) = %v < 1", lr, ld, rr, rd, est)
					}
					if cross := j.L.Est() * j.R.Est(); est > cross+1e-9 {
						t.Errorf("join estimate (%d/%d, %d/%d) = %v exceeds cross product %v",
							lr, ld, rr, rd, est, cross)
					}
					// No keys: exactly the cross product of the clamped inputs.
					cj := plannedJoin(t, lr, ld, rr, rd, false)
					if got := cj.Est(); got != cj.L.Est()*cj.R.Est() {
						t.Errorf("keyless join estimate = %v, want cross product %v", got, cj.L.Est()*cj.R.Est())
					}
				}
			}
		}
	}

	// Monotonicity in an input's cardinality, distinct counts held fixed.
	prev := 0.0
	for _, lr := range []int64{1, 10, 100, 1000, 100_000} {
		est := plannedJoin(t, lr, 10, 1000, 100, true).Est()
		if est < prev {
			t.Errorf("join estimate decreased when the left input grew to %d: %v < %v", lr, est, prev)
		}
		prev = est
	}
}
