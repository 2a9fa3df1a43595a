package core

import (
	"math"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
)

// Property-style tests over the estimator: every cardinality that can
// enter a movement-cost comparison must be finite, at least one, and no
// larger than the cross product — and feedback-corrected estimates must
// honor the same bounds no matter what the feedback map carries.

// statScan builds a synthetic scan with one key column "k".
func statScan(alias string, rows, distinct int64) *Scan {
	sc := &Scan{
		Table: alias,
		Alias: alias,
		Node:  "db1",
		Stats: &engine.TableStats{
			RowCount: rows,
			Columns:  []engine.ColumnStats{{Name: "k", Distinct: distinct}},
		},
	}
	sc.est = math.Max(float64(rows), 1)
	sc.width = 16
	return sc
}

func kref(alias string) *sqlparser.ColumnRef {
	return &sqlparser.ColumnRef{Table: alias, Name: "k"}
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
	keys := []JoinKey{{L: kref("l"), R: kref("r")}}
	for _, lr := range sizes {
		for _, rr := range sizes {
			for _, ld := range distincts(lr) {
				for _, rd := range distincts(rr) {
					l := statScan("l", lr, ld)
					r := statScan("r", rr, rd)
					est := estimateJoin(l, r, keys)
					if math.IsNaN(est) || math.IsInf(est, 0) {
						t.Fatalf("estimateJoin(%d/%d, %d/%d) = %v, non-finite", lr, ld, rr, rd, est)
					}
					if est < 1 {
						t.Errorf("estimateJoin(%d/%d, %d/%d) = %v < 1", lr, ld, rr, rd, est)
					}
					if cross := l.Est() * r.Est(); est > cross+1e-9 {
						t.Errorf("estimateJoin(%d/%d, %d/%d) = %v exceeds cross product %v",
							lr, ld, rr, rd, est, cross)
					}
					// No keys: exactly the cross product of the clamped inputs.
					if got := estimateJoin(l, r, nil); got != l.Est()*r.Est() {
						t.Errorf("keyless estimateJoin = %v, want cross product %v", got, l.Est()*r.Est())
					}
				}
			}
		}
	}

	// Monotonicity in an input's cardinality, distinct counts held fixed.
	r := statScan("r", 1000, 100)
	prev := 0.0
	for _, lr := range []int64{1, 10, 100, 1000, 100_000} {
		l := statScan("l", lr, 10)
		est := estimateJoin(l, r, keys)
		if est < prev {
			t.Errorf("estimateJoin decreased when the left input grew to %d: %v < %v", lr, est, prev)
		}
		prev = est
	}
}

// TestDistinctOfProperties pins the distinct estimate's caps: never
// above the base column distinct, never above the operator's (clamped)
// cardinality, and sensible fallbacks when statistics are missing.
func TestDistinctOfProperties(t *testing.T) {
	sc := statScan("l", 1000, 40)
	if got := distinctOf(sc, kref("l")); got != 40 {
		t.Errorf("distinctOf(scan, k) = %v, want the base distinct 40", got)
	}
	// A filtered scan caps the distinct at its output cardinality.
	sc.est = 5
	if got := distinctOf(sc, kref("l")); got != 5 {
		t.Errorf("distinctOf on a 5-row scan = %v, want 5", got)
	}
	// No statistics for the column: fall back to the row count.
	noStats := &Scan{Table: "l", Alias: "l", Stats: &engine.TableStats{RowCount: 300}}
	noStats.est = 300
	if got := distinctOf(noStats, kref("l")); got != 300 {
		t.Errorf("distinctOf without column stats = %v, want the row count 300", got)
	}
	// A column foreign to the operator resolves to +Inf base distinct and
	// must still come back capped by the operator's cardinality.
	if got := distinctOf(sc, kref("elsewhere")); math.IsInf(got, 0) || got > sc.Est() {
		t.Errorf("distinctOf(foreign column) = %v, want <= %v and finite", got, sc.Est())
	}
	// Joins take the smaller side's distinct.
	l, r := statScan("l", 1000, 40), statScan("r", 1000, 10)
	j := &Join{L: l, R: r, Keys: []JoinKey{{L: kref("l"), R: kref("r")}}}
	j.est = estimateJoin(l, r, j.Keys)
	if got := distinctOf(j, kref("r")); got != 10 {
		t.Errorf("distinctOf(join, r.k) = %v, want min(sides) = 10", got)
	}
}
