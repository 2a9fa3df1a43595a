package core

import (
	"testing"
	"time"

	"xdb/internal/planner"
)

// Estimate correction from drained edges (learn.go). The cluster's
// statistics are skewed with Engine.SkewStats — the engines report row
// counts that diverge from what their scans actually return, the
// stale-ANALYZE condition — and the tests pin what a finished query
// teaches the next one: a bare scan's drained edge that contradicts the
// catalog beyond learnThreshold is learned, one inside it is not, and the
// next query plans with the correction while returning the same rows.

// explicitOptions force every inter-task edge explicit, so each one is a
// materialization fetch that the consumer drains in full.
func explicitOptions() Options {
	opts := chaosOptions()
	opts.ForceMovement = planner.MoveExplicit
	return opts
}

// TestLearnDivergence pins the learn predicate: the threshold ratio is
// strict (exactly 4x does not count) and symmetric (under- and
// over-estimates both count), and empty relations clamp to one row.
func TestLearnDivergence(t *testing.T) {
	cases := []struct {
		est, actual float64
		want        bool
	}{
		{100, 100, false},
		{100, 400, false}, // exactly 4x: strict comparison
		{400, 100, false},
		{100, 401, true},
		{401, 100, true},
		{24, 100, true},  // 4.17x under-estimate
		{26, 100, false}, // 3.85x
		{0, 0, false},    // both clamp to 1
		{0, 3, false},
		{0, 5, true},
		{5, 0, true},
	}
	for _, c := range cases {
		if got := planner.Diverges(c.est, c.actual); got != c.want {
			t.Errorf("planner.Diverges(%v, %v) = %v, want %v", c.est, c.actual, got, c.want)
		}
	}
}

// TestLearnThresholdBoundary drives the strict threshold through the full
// stack: users' statistics skewed to just inside the 4x ratio teach the
// catalog nothing, one notch further is learned from users' drained edge.
// Either way the answer is the accurate run's.
func TestLearnThresholdBoundary(t *testing.T) {
	accurate := newChaosCluster(t, explicitOptions())
	want, err := accurate.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, skew float64) bool {
		cl := newChaosCluster(t, explicitOptions())
		if err := cl.engines["db1"].SkewStats("users", skew); err != nil {
			t.Fatal(err)
		}
		res, err := cl.sys.Query(failoverQuery)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsText(res); got != rowsText(want) {
			t.Errorf("rows differ from accurate baseline:\n%s", got)
		}
		assertQuiescent(t, cl.sys, cl.engines)
		info, _ := cl.sys.catalog.Lookup("users")
		return info.Learned
	}
	t.Run("just_under", func(t *testing.T) {
		// est 26 vs actual 100: ratio 3.85 < 4 — tolerated.
		if run(t, 0.26) {
			t.Error("a 3.85x divergence was learned")
		}
	})
	t.Run("just_over", func(t *testing.T) {
		// est 24 vs actual 100: ratio 4.17 > 4 — learned.
		if !run(t, 0.24) {
			t.Error("a 4.17x divergence was not learned")
		}
	})
}

// TestDrainedEdgeCrossQueryFeedback closes the cross-query loop on an
// explicit edge: orders' statistics under-report 10x, so the first query
// moves the (supposedly tiny) orders to users' home db1 and drains 400
// rows against an estimate of 40. The next query must plan with the
// actuals from the start — joining at orders' home — because the
// correction replaced the catalog's statistics and with them the keys of
// the consult cache built on the stale snapshot.
func TestDrainedEdgeCrossQueryFeedback(t *testing.T) {
	opts := explicitOptions()
	opts.ConsultCacheTTL = time.Minute // prove the correction, not TTL expiry
	cl := newChaosCluster(t, opts)
	if err := cl.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	first, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan.Root.Node != "db1" {
		t.Fatalf("first query joined at %s, want db1 — scenario broken", first.Plan.Root.Node)
	}
	if info, _ := cl.sys.catalog.Lookup("orders"); !info.Learned || info.Stats.RowCount != 400 {
		t.Fatalf("orders after the first query: learned=%v rows=%d, want the drained 400",
			info.Learned, info.Stats.RowCount)
	}

	second, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if second.Plan.Root.Node != "db2" {
		t.Errorf("second query joined at %s, want db2 — planned with stale stats", second.Plan.Root.Node)
	}
	if got, want := rowsText(second), rowsText(first); got != want {
		t.Errorf("second query's rows differ:\n%s\nvs\n%s", got, want)
	}

	// The node still reports the skewed snapshot; the correction must keep
	// standing in for it (quiescent, no flip-flop).
	third, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if third.Plan.Root.Node != "db2" {
		t.Errorf("third query joined at %s, want db2", third.Plan.Root.Node)
	}

	// Drift: the moment the node reports something other than the
	// snapshot the correction was derived against, the correction drops in
	// favour of the fresh truth.
	if err := cl.engines["db2"].SkewStats("orders", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.sys.Query(failoverQuery); err != nil {
		t.Fatal(err)
	}
	if info, _ := cl.sys.catalog.Lookup("orders"); info.Learned {
		t.Error("the correction survived the node reporting fresh statistics")
	}
	assertQuiescent(t, cl.sys, cl.engines)
}
