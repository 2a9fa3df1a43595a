package planner

import (
	"math"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

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
	j.est = j.estimate()
	if got := distinctOf(j, kref("r")); got != 10 {
		t.Errorf("distinctOf(join, r.k) = %v, want min(sides) = 10", got)
	}
}

// TestEstimateNonFiniteExtremes: a column whose extremes are a NaN or an
// infinity (ComputeStats orders NaN after +Inf) is not interpolated; a
// range or BETWEEN filter over it takes the default fraction, never NaN.
func TestEstimateNonFiniteExtremes(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, ext := range [][2]float64{{nan, nan}, {-inf, nan}, {-inf, inf}, {1, inf}, {1, nan}} {
		for _, c := range []struct {
			filter string
			want   float64
		}{
			{"k < 3", 1.0 / 3},
			{"3 <= k", 1.0 / 3},
			{"k > 2.5", 1.0 / 3},
			{"k BETWEEN 1 AND 5", 0.25},
			{"k NOT BETWEEN 1 AND 5", 0.75},
		} {
			sc := statScan("l", 1200, 40)
			sc.Stats.Columns[0].Min, sc.Stats.Columns[0].Max = sqltypes.NewFloat(ext[0]), sqltypes.NewFloat(ext[1])
			f, err := sqlparser.ParseExpr(c.filter)
			if err != nil {
				t.Fatal(err)
			}
			sc.Filter = f
			if got := estimateScan(sc); got != 1200*c.want {
				t.Errorf("extremes %v, %s: estimate %v, want %v", ext, c.filter, got, 1200*c.want)
			}
		}
	}
}
