package core

import (
	"math"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
)

// TestOrSelectivity pins the disjunction estimate to the textbook
// inclusion-exclusion formula s1 + s2 − s1·s2. The previous clamp01(s1+s2)
// saturated: two 0.6-selective disjuncts estimated the whole table, which
// erased the filter from join ordering.
func TestOrSelectivity(t *testing.T) {
	cases := []struct {
		name         string
		s1, s2, want float64
	}{
		{"both impossible", 0, 0, 0},
		{"left only", 0.5, 0, 0.5},
		{"right only", 0, 0.3, 0.3},
		{"independent overlap", 0.5, 0.5, 0.75},
		{"would saturate under plain addition", 0.6, 0.6, 0.84},
		{"certain disjunct dominates", 1, 0.7, 1},
		{"small disjuncts nearly add", 0.001, 0.001, 0.001999},
		{"negative input clamped", -0.2, 0.3, 0.3},
		{"overshooting input clamped", 2, 0.5, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := engine.OrSelectivity(tc.s1, tc.s2); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("OrSelectivity(%v, %v) = %v, want %v", tc.s1, tc.s2, got, tc.want)
			}
		})
	}
}

// TestExprSelectivityOr checks the statistics-free residual estimator
// composes OR the same way: two 0.05 equality leaves give 0.0975, not
// whatever clamped addition produced.
func TestExprSelectivityOr(t *testing.T) {
	sel, err := sqlparser.ParseSelect("SELECT s_id FROM small WHERE s_id = 1 OR s_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	want := 0.05 + 0.05 - 0.05*0.05
	if got := engine.Selectivity(sel.Where); math.Abs(got-want) > 1e-9 {
		t.Errorf("Selectivity = %v, want %v", got, want)
	}
}

// TestRangeSelectivityStringLiteral is the regression for the typed-bound
// guard: a string literal compared against a numerically-tracked column
// used to interpolate Float()==0 against the min/max range, pinning the
// selectivity to an endpoint (0.001 for <, 1.0 for >). Both directions
// must fall back to the 1/3 range default instead.
func TestRangeSelectivityStringLiteral(t *testing.T) {
	c := newTestCatalog()

	// m_id is int with min 0, max 10000. 'x'.Float() is 0: the broken
	// interpolation put the literal at the column minimum, estimating the
	// whole table for > and the 0.001 floor for <. The guard keeps both
	// at the 1/3 default, ~3333.
	a := analyze(t, c, "SELECT m_id FROM medium WHERE m_id > 'x'")
	if est := a.Scans[0].Est(); est < 3000 || est > 3700 {
		t.Errorf("int > string-literal estimate = %v, want ~3333 (1/3 default, no endpoint pinning)", est)
	}
	a = analyze(t, c, "SELECT m_id FROM medium WHERE m_id < 'x'")
	if est := a.Scans[0].Est(); est < 3000 || est > 3700 {
		t.Errorf("int < string-literal estimate = %v, want ~3333 (not the 0.001 floor)", est)
	}
	// Mirrored literal-first form takes the same guard.
	a = analyze(t, c, "SELECT m_id FROM medium WHERE 'x' < m_id")
	if est := a.Scans[0].Est(); est < 3000 || est > 3700 {
		t.Errorf("string-literal < int estimate = %v, want ~3333", est)
	}
	// Numeric literals still interpolate: m_id < 1000 over [0, 10000] is
	// one tenth of the table.
	a = analyze(t, c, "SELECT m_id FROM medium WHERE m_id < 1000")
	if est := a.Scans[0].Est(); est < 900 || est > 1100 {
		t.Errorf("numeric range estimate = %v, want ~1000 (guard must not disable interpolation)", est)
	}
}

// TestBetweenStringBounds is the companion regression for fraction():
// BETWEEN with string-typed bounds on a numeric column collapsed both
// bounds onto the column minimum (a = b = 0), leaving the 0.001 floor.
// String bounds on either side must take the 0.25 BETWEEN default.
func TestBetweenStringBounds(t *testing.T) {
	c := newTestCatalog()
	for _, sql := range []string{
		"SELECT m_id FROM medium WHERE m_id BETWEEN 'aaa' AND 'zzz'",
		"SELECT m_id FROM medium WHERE m_id BETWEEN 0 AND 'zzz'",
		"SELECT m_id FROM medium WHERE m_id BETWEEN 'aaa' AND 10000",
	} {
		a := analyze(t, c, sql)
		if est := a.Scans[0].Est(); est < 2000 || est > 3000 {
			t.Errorf("%s: estimate = %v, want ~2500 (0.25 default)", sql, est)
		}
	}
	// Numeric bounds still interpolate: the middle fifth of [0, 10000].
	a := analyze(t, c, "SELECT m_id FROM medium WHERE m_id BETWEEN 4000 AND 6000")
	if est := a.Scans[0].Est(); est < 1800 || est > 2200 {
		t.Errorf("numeric BETWEEN estimate = %v, want ~2000", est)
	}
}

// TestEstimateScanOrSelectivity drives the fix through the scan estimator
// with real column statistics: overlapping date ranges must not saturate
// to the full table.
func TestEstimateScanOrSelectivity(t *testing.T) {
	c := newTestCatalog()

	// Two equality disjuncts on m_tag (distinct=1000): each 0.001, OR
	// ~0.002 of 10k rows ≈ 20.
	a := analyze(t, c, "SELECT m_id FROM medium WHERE m_tag = 'a' OR m_tag = 'b'")
	if est := a.Scans[0].Est(); est < 15 || est > 25 {
		t.Errorf("eq-OR estimate = %v, want ~20", est)
	}

	// Overlapping ranges: ~0.57 and ~0.71 selective. Plain addition
	// saturated this to all 10000 rows; inclusion-exclusion keeps ~8776.
	a = analyze(t, c, `SELECT m_id FROM medium
		WHERE m_date < DATE '1996-01-01' OR m_date > DATE '1994-01-01'`)
	est := a.Scans[0].Est()
	if est < 8000 || est > 9500 {
		t.Errorf("range-OR estimate = %v, want ~8776 (not saturated to 10000)", est)
	}
}
