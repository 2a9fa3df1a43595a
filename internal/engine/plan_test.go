package engine

import (
	"math"
	"testing"

	"xdb/internal/sqlparser"
)

// The negated predicate forms take the complement of the positive
// selectivity — NOT BETWEEN is not as selective as BETWEEN.
func TestEstimateSelectivityNegation(t *testing.T) {
	cases := []struct {
		pred string
		want float64
	}{
		{"a BETWEEN 1 AND 5", 0.25},
		{"a NOT BETWEEN 1 AND 5", 0.75},
		{"a IN (1, 2)", 0.1},
		{"a NOT IN (1, 2)", 0.9},
		{"s LIKE 'x%'", 0.1},
		{"s NOT LIKE 'x%'", 0.9},
		{"a IS NULL", 0.05},
		{"a IS NOT NULL", 0.95},
		{"NOT (a = 1)", 0.95},
		{"a NOT IN (1, 2) AND s NOT LIKE 'x%'", 0.81},
	}
	for _, tc := range cases {
		e, err := sqlparser.ParseExpr(tc.pred)
		if err != nil {
			t.Fatalf("%s: %v", tc.pred, err)
		}
		if got := estimateSelectivity(e); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("estimateSelectivity(%s) = %v, want %v", tc.pred, got, tc.want)
		}
	}
}
