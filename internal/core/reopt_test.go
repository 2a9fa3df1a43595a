package core

import (
	"fmt"
	"testing"
	"time"

	"xdb/internal/sqltypes"
)

// Adaptive mid-query re-optimization scenarios (`make chaos`). The
// cluster's statistics are skewed with Engine.SkewStats — the engines
// report row counts that diverge from what their scans actually return,
// the stale-ANALYZE condition — and the tests assert the cardinality
// feedback loop's invariants: results stay byte-identical to an
// un-adaptive run, re-optimizations never consume the fault budget, the
// barrier probes are absent when MaxReopts is 0, and a node death in the
// middle of a re-optimization falls through to the fault failover
// without leaks.

// reoptOptions enable adaptive re-optimization on the chaos cluster.
// Movement is forced explicit so every inter-task edge materializes and
// is observable at a barrier; MaxReplans stays 0 — re-optimization must
// work with fault failover disabled, the budgets are independent.
func reoptOptions() Options {
	opts := chaosOptions()
	opts.ForceMovement = MoveExplicit
	opts.MaxReopts = 2
	return opts
}

// sumQueriesServed totals executed SELECTs across the cluster's engines.
func (cl *chaosCluster) sumQueriesServed() int64 {
	var n int64
	for _, eng := range cl.engines {
		n += eng.QueriesServed()
	}
	return n
}

// TestReoptSkewedJoinInput is the acceptance scenario: orders'
// statistics under-report 10x, so annotation moves the (supposedly
// tiny) orders to db1 — and the materialization barrier observes 400
// actual rows against the estimate of 40. The query must re-optimize
// its suffix mid-flight, flip the join back to db2, and return rows
// byte-identical to an un-adaptive run under the same skew.
func TestReoptSkewedJoinInput(t *testing.T) {
	// A/B: same data, same skew; only MaxReopts differs.
	optsOff := reoptOptions()
	optsOff.MaxReopts = 0
	clOff := newChaosCluster(t, optsOff)
	if err := clOff.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	baseline, err := clOff.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.Breakdown.Reopts != 0 || baseline.Breakdown.EstimateErrors != 0 {
		t.Fatalf("MaxReopts=0 run counted reopts=%d estimate_errors=%d, want 0/0",
			baseline.Breakdown.Reopts, baseline.Breakdown.EstimateErrors)
	}

	opts := reoptOptions()
	opts.Trace = true
	cl := newChaosCluster(t, opts)
	if err := cl.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	improvedBefore := met.reopts.With("improved").Value()
	res, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := rowsText(res), rowsText(baseline); got != want {
		t.Errorf("adaptive result differs from un-adaptive baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if res.Breakdown.Reopts < 1 {
		t.Errorf("Breakdown.Reopts = %d, want >= 1", res.Breakdown.Reopts)
	}
	if res.Breakdown.EstimateErrors < 1 {
		t.Errorf("Breakdown.EstimateErrors = %d, want >= 1", res.Breakdown.EstimateErrors)
	}
	// The corrected costing flipped the placement: that is an "improved"
	// verdict, and the final plan joins at orders' home.
	if got := met.reopts.With("improved").Value() - improvedBefore; got < 1 {
		t.Errorf("xdb_reopts_total{outcome=improved} delta = %d, want >= 1", got)
	}
	if res.Plan.Root.Node != "db2" {
		t.Errorf("re-optimized join placed on %s, want db2 (orders' home)", res.Plan.Root.Node)
	}
	// Re-optimizations never touch the fault budget.
	if res.Breakdown.Replans != 0 || res.Breakdown.FailedOver || res.Breakdown.MediatorFallback {
		t.Errorf("reopt spent fault state: replans=%d failed_over=%v mediator_fallback=%v",
			res.Breakdown.Replans, res.Breakdown.FailedOver, res.Breakdown.MediatorFallback)
	}

	// The loop is visible in the trace: a barrier observation with the
	// divergence, then the reopt decision, attributed and closed.
	osp := res.Trace.Find("observe")
	if osp == nil {
		t.Fatalf("no observe span in trace:\n%s", res.Trace)
	}
	rsp := res.Trace.Find("reopt")
	if rsp == nil {
		t.Fatalf("no reopt span in trace:\n%s", res.Trace)
	}
	if got := rsp.Attr("cause"); got != "cardinality" {
		t.Errorf("reopt cause = %q, want %q", got, "cardinality")
	}
	if rsp.Attr("est") == "" || rsp.Attr("actual") == "" {
		t.Errorf("reopt span lacks est/actual attribution: est=%q actual=%q",
			rsp.Attr("est"), rsp.Attr("actual"))
	}
	assertClosed(t, res.Trace)

	// No breaker was fed: the cluster is healthy, only the estimate was
	// wrong.
	for node, h := range cl.sys.NodeHealth() {
		if h.State != BreakerClosed {
			t.Errorf("node %s breaker = %v after a fault-free reopt, want closed", node, h.State)
		}
	}
	// Nothing leaks: the superseded deployment dropped with the query.
	assertQuiescent(t, cl.sys, cl.engines)
	cl.close()
	cl.assertTransportBalanced(t)
}

// TestReoptDisabledNoOp pins the paper configuration: with MaxReopts 0
// the barriers do not exist — not as queries on the engines, not as
// spans in the trace — and a skewed estimate simply executes the plan
// it produced.
func TestReoptDisabledNoOp(t *testing.T) {
	optsOff := reoptOptions()
	optsOff.MaxReopts = 0
	optsOff.Trace = true
	clOff := newChaosCluster(t, optsOff)
	beforeOff := clOff.sumQueriesServed()
	resOff, err := clOff.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	deltaOff := clOff.sumQueriesServed() - beforeOff
	if sp := resOff.Trace.Find("observe"); sp != nil {
		t.Error("MaxReopts=0 trace contains an observe span")
	}
	if sp := resOff.Trace.Find("reopt"); sp != nil {
		t.Error("MaxReopts=0 trace contains a reopt span")
	}

	// With accurate statistics and MaxReopts on, the only extra engine
	// work is the COUNT(*) barrier itself — one query per explicit edge
	// (the materialization it forces would have happened lazily during
	// execution anyway).
	opts := reoptOptions()
	opts.Trace = true
	cl := newChaosCluster(t, opts)
	before := cl.sumQueriesServed()
	res, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	delta := cl.sumQueriesServed() - before
	if res.Breakdown.Reopts != 0 || res.Breakdown.EstimateErrors != 0 {
		t.Errorf("accurate stats still re-optimized: reopts=%d estimate_errors=%d",
			res.Breakdown.Reopts, res.Breakdown.EstimateErrors)
	}
	_, explicit := res.Plan.Movements()
	if explicit < 1 {
		t.Fatalf("plan has no explicit edge under ForceMovement: %v", res.Plan)
	}
	if want := deltaOff + int64(explicit); delta != want {
		t.Errorf("engine queries with reopt on = %d, want %d (off %d + %d barriers)",
			delta, want, deltaOff, explicit)
	}
	if got, want := rowsText(res), rowsText(resOff); got != want {
		t.Errorf("results differ between MaxReopts on/off:\n%s\nvs\n%s", got, want)
	}
}

// TestReoptDivergence pins the trigger predicate: the threshold ratio is
// strict (exactly 4x does not trigger) and symmetric (under- and
// over-estimates both count), and empty relations clamp to one row.
func TestReoptDivergence(t *testing.T) {
	cases := []struct {
		est, actual, threshold float64
		want                   bool
	}{
		{100, 100, 4, false},
		{100, 400, 4, false}, // exactly 4x: strict comparison
		{400, 100, 4, false},
		{100, 401, 4, true},
		{401, 100, 4, true},
		{24, 100, 4, true},  // 4.17x under-estimate
		{26, 100, 4, false}, // 3.85x
		{0, 0, 4, false},    // both clamp to 1
		{0, 3, 4, false},
		{0, 5, 4, true},
		{5, 0, 4, true},
		{1, 10, 8, true},
		{1, 8, 8, false},
	}
	for _, c := range cases {
		if got := reoptDiverges(c.est, c.actual, c.threshold); got != c.want {
			t.Errorf("reoptDiverges(%v, %v, %v) = %v, want %v", c.est, c.actual, c.threshold, got, c.want)
		}
	}
}

// TestReoptThresholdBoundary drives the strict threshold through the
// full stack: users' statistics skewed to just inside the default 4x
// ratio change nothing, one notch further triggers exactly one
// re-optimization — whose corrected costing confirms the placement
// ("unchanged"), never loops, and still returns identical rows.
func TestReoptThresholdBoundary(t *testing.T) {
	accurate := newChaosCluster(t, reoptOptions())
	want, err := accurate.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("just_under", func(t *testing.T) {
		// est 26 vs actual 100: ratio 3.85 < 4 — tolerated.
		cl := newChaosCluster(t, reoptOptions())
		if err := cl.engines["db1"].SkewStats("users", 0.26); err != nil {
			t.Fatal(err)
		}
		res, err := cl.sys.Query(failoverQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown.Reopts != 0 || res.Breakdown.EstimateErrors != 0 {
			t.Errorf("3.85x divergence triggered: reopts=%d estimate_errors=%d",
				res.Breakdown.Reopts, res.Breakdown.EstimateErrors)
		}
		if got := rowsText(res); got != rowsText(want) {
			t.Errorf("rows differ from accurate baseline:\n%s", got)
		}
	})

	t.Run("just_over", func(t *testing.T) {
		// est 24 vs actual 100: ratio 4.17 > 4 — exactly one reopt, and
		// since users is the smaller side either way, the re-plan
		// confirms the placement: outcome "unchanged".
		cl := newChaosCluster(t, reoptOptions())
		if err := cl.engines["db1"].SkewStats("users", 0.24); err != nil {
			t.Fatal(err)
		}
		unchangedBefore := met.reopts.With("unchanged").Value()
		improvedBefore := met.reopts.With("improved").Value()
		res, err := cl.sys.Query(failoverQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown.Reopts != 1 {
			t.Errorf("Breakdown.Reopts = %d, want exactly 1", res.Breakdown.Reopts)
		}
		if res.Breakdown.EstimateErrors != 1 {
			t.Errorf("Breakdown.EstimateErrors = %d, want 1", res.Breakdown.EstimateErrors)
		}
		if got := met.reopts.With("unchanged").Value() - unchangedBefore; got != 1 {
			t.Errorf("xdb_reopts_total{outcome=unchanged} delta = %d, want 1", got)
		}
		if got := met.reopts.With("improved").Value() - improvedBefore; got != 0 {
			t.Errorf("xdb_reopts_total{outcome=improved} delta = %d, want 0", got)
		}
		if got := rowsText(res); got != rowsText(want) {
			t.Errorf("rows differ from accurate baseline:\n%s", got)
		}
		assertQuiescent(t, cl.sys, cl.engines)
	})
}

// TestReoptCrossQueryFeedback closes the cross-query loop: after one
// adaptive query corrected orders' cardinality mid-flight, the next
// query must plan with the actuals from the start — joining at orders'
// home with zero barriers tripped — because the statistics override
// refreshed the catalog and invalidated the caches built on the stale
// snapshot.
func TestReoptCrossQueryFeedback(t *testing.T) {
	opts := reoptOptions()
	opts.ConsultCacheTTL = time.Minute // prove the invalidation, not TTL expiry
	cl := newChaosCluster(t, opts)
	if err := cl.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	first, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Breakdown.Reopts < 1 {
		t.Fatalf("first query did not re-optimize (reopts=%d) — scenario broken", first.Breakdown.Reopts)
	}

	second, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if second.Breakdown.Reopts != 0 || second.Breakdown.EstimateErrors != 0 {
		t.Errorf("second query still diverged: reopts=%d estimate_errors=%d — stats feedback not applied",
			second.Breakdown.Reopts, second.Breakdown.EstimateErrors)
	}
	if second.Plan.Root.Node != "db2" {
		t.Errorf("second query joined at %s, want db2 — planned with stale stats", second.Plan.Root.Node)
	}
	if got, want := rowsText(second), rowsText(first); got != want {
		t.Errorf("second query's rows differ:\n%s\nvs\n%s", got, want)
	}

	// The node still reports the skewed snapshot; the override must keep
	// substituting the correction (quiescent, no flip-flop).
	third, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if third.Breakdown.Reopts != 0 {
		t.Errorf("third query re-optimized again: reopts=%d", third.Breakdown.Reopts)
	}

	// Drift: the moment the node reports something other than the
	// snapshot the correction was derived against, the override drops in
	// favour of the fresh truth.
	if err := cl.engines["db2"].SkewStats("orders", 1); err != nil {
		t.Fatal(err)
	}
	fourth, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Breakdown.Reopts != 0 {
		t.Errorf("accurate stats after drift still re-optimized: reopts=%d", fourth.Breakdown.Reopts)
	}
	if info, _ := cl.sys.catalog.Lookup("orders"); info.Learned {
		t.Error("stats override survived the node reporting fresh statistics")
	}
}

// TestReoptKillDuringReopt is the half-open composition: a node dies in
// the middle of a cardinality re-optimization — after the reopt replan
// deployed, during its barrier probe — and the failure must fall
// through to the fault failover, finish the query elsewhere, and leak
// nothing after revival plus one sweep. Run under -race via `make
// chaos`.
func TestReoptKillDuringReopt(t *testing.T) {
	opts := failoverOptions()
	opts.ForceMovement = MoveExplicit
	opts.MaxReopts = 2
	opts.Trace = true
	cl := newFailoverCluster(t, opts) // join lands on data-free db3

	baseline, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireTaskOn(t, baseline, "db3")

	// Skew orders so attempt 0's barrier triggers a reopt, then kill db3
	// once the re-optimized attempt (attempt 1) has deployed — its own
	// barrier probe hits the dead node.
	if err := cl.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	fired := false
	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 1 && !fired {
			fired = true
			cl.topo.CrashNode("db3")
		}
	}
	res, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatalf("query did not survive the crash mid-reopt: %v", err)
	}
	if !fired {
		t.Fatal("fault was never injected — the reopt never happened")
	}
	if got, want := rowsText(res), rowsText(baseline); got != want {
		t.Errorf("result differs from baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if res.Breakdown.Reopts < 1 {
		t.Errorf("Breakdown.Reopts = %d, want >= 1", res.Breakdown.Reopts)
	}
	if res.Breakdown.Replans < 1 {
		t.Errorf("Breakdown.Replans = %d, want >= 1 (fault must enter the fault budget)", res.Breakdown.Replans)
	}
	if !res.Breakdown.FailedOver {
		t.Error("Breakdown.FailedOver = false after surviving a mid-reopt crash")
	}
	for _, task := range res.Plan.Tasks {
		if task.Node == "db3" {
			t.Error("final plan still places a task on the dead node")
		}
	}
	// The fault is attributed once: breaker open via the failover trip.
	if st := cl.sys.NodeHealth()["db3"].State; st != BreakerOpen {
		t.Errorf("db3 breaker = %v, want open", st)
	}
	assertClosed(t, res.Trace)

	// Nothing leaks: survivors are clean; db3's objects are orphans that
	// one post-revival sweep collects.
	assertQuiescent(t, cl.sys, cl.engines, "db3")
	cl.topo.ReviveNode("db3")
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("post-revival sweep: remaining=%d err=%v", remaining, err)
	}
	assertQuiescent(t, cl.sys, cl.engines)

	cl.close()
	cl.assertTransportBalanced(t)
}

// TestReoptLogicalSigPlacementIndependent pins the feedback key's
// defining property: the same logical relation signs identically no
// matter which node its task was pinned to or how the plan was cut —
// otherwise a re-planned plan could not recognize already-observed
// stages.
func TestReoptLogicalSigPlacementIndependent(t *testing.T) {
	// The accurate plan moves users; the skewed plan moves orders. Both
	// plans sign their users/orders subtrees the same way regardless.
	cl := newChaosCluster(t, reoptOptions())
	planA, _, err := cl.sys.Plan(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	planB, _, err := cl.sys.Plan(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	sigsA := map[string]bool{}
	for _, e := range planA.Edges {
		if e.Sig == "" {
			t.Errorf("plan A edge %v has empty signature", e)
		}
		sigsA[e.Sig] = true
	}
	moved := false
	for _, e := range planB.Edges {
		if e.Sig == "" {
			t.Errorf("plan B edge %v has empty signature", e)
		}
		// The orders scan moves in plan B but not A; the signature is a
		// pure function of the logical subtree, so any scan edge present
		// in both plans must collide.
		if sigsA[e.Sig] {
			moved = true
		}
	}
	if planA.Root.Node == planB.Root.Node {
		t.Fatalf("skew did not flip placement (%s == %s) — scenario broken", planA.Root.Node, planB.Root.Node)
	}
	_ = moved // plans move different relations; the property checked is non-empty stable sigs
}

// loadSavingsTables builds the transfer-savings scenario on a chaos
// cluster: members (db1, 10 rows per key), tickets (db2, the table whose
// statistics will be skewed), and scans (db3, several rows per ticket,
// each with a note the query selects). The fan-out sits in the joins, so
// a misestimate on tickets deflates the tickets-scans join output
// estimate and mis-places the final join. The notes make the shipped rows
// outweigh a re-plan's fixed control-plane cost (barrier, re-deploy DDL)
// under the compact binary row codec, where keys take a byte or two.
func loadSavingsTables(t testing.TB, cl *chaosCluster) {
	t.Helper()
	load := func(node, table string, schema *sqltypes.Schema, rows []sqltypes.Row) {
		if err := cl.engines[node].LoadTable(table, schema, rows); err != nil {
			t.Fatal(err)
		}
		if err := cl.sys.RegisterTable(table, node); err != nil {
			t.Fatal(err)
		}
	}
	members := sqltypes.NewSchema(
		sqltypes.Column{Name: "m_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "m_name", Type: sqltypes.TypeString},
	)
	var mrows []sqltypes.Row
	for i := 0; i < 100; i++ { // 10 members per key
		mrows = append(mrows, sqltypes.Row{
			sqltypes.NewInt(int64(i % 10)), sqltypes.NewString(fmt.Sprintf("m-%03d", i)),
		})
	}
	load("db1", "members", members, mrows)
	tickets := sqltypes.NewSchema(
		sqltypes.Column{Name: "t_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "t_mid", Type: sqltypes.TypeInt},
	)
	var trows []sqltypes.Row
	for i := 0; i < 50; i++ {
		trows = append(trows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 10)),
		})
	}
	load("db2", "tickets", tickets, trows)
	scans := sqltypes.NewSchema(
		sqltypes.Column{Name: "s_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "s_tid", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "s_note", Type: sqltypes.TypeString},
	)
	var srows []sqltypes.Row
	for i := 0; i < 300; i++ { // 6 scans per ticket
		srows = append(srows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 50)),
			sqltypes.NewString(fmt.Sprintf("scan %03d of ticket %02d, read at the gate", i, i%50)),
		})
	}
	load("db3", "scans", scans, srows)
}

const reoptSavingsQuery = "SELECT m.m_name, t.t_id, s.s_id, s.s_note FROM members m, tickets t, scans s " +
	"WHERE m.m_id = t.t_mid AND t.t_id = s.s_tid ORDER BY s.s_id, m.m_name"

// TestReoptTransferSavings measures the robustness win end to end. With
// tickets under-reported 10x, the estimate of the tickets-scans join
// output deflates with it, so the un-adaptive plan ships that
// intermediate — 300 actual rows — to members' home for the final
// join. The adaptive run catches the divergence at the *first* barrier
// (tickets' 50 rows, the cheap edge, shipped before the inflated
// intermediate exists), re-plans the suffix with actuals, and the
// corrected placement moves members' 100 rows the other way instead;
// the already-materialized tickets stage is adopted by signature, never
// re-shipped. Bytes moved are deterministic, so the saving is asserted,
// not just logged (EXPERIMENTS.md "Adaptive re-optimization").
func TestReoptTransferSavings(t *testing.T) {
	run := func(t *testing.T, maxReopts int) (*Result, int64) {
		opts := reoptOptions()
		opts.MaxReopts = maxReopts
		cl := newChaosCluster(t, opts)
		loadSavingsTables(t, cl)
		if err := cl.engines["db2"].SkewStats("tickets", 0.1); err != nil {
			t.Fatal(err)
		}
		cl.topo.Ledger().Reset()
		res, err := cl.sys.Query(reoptSavingsQuery)
		if err != nil {
			t.Fatal(err)
		}
		return res, cl.topo.Ledger().Total()
	}

	unadaptive, bytesOff := run(t, 0)
	adaptive, bytesOn := run(t, 2)

	if got, want := rowsText(adaptive), rowsText(unadaptive); got != want {
		t.Fatalf("adaptive result differs from un-adaptive:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if adaptive.Breakdown.Reopts < 1 {
		t.Fatalf("adaptive run never re-optimized (reopts=%d)", adaptive.Breakdown.Reopts)
	}
	if bytesOn >= bytesOff {
		t.Errorf("adaptive moved %d bytes, un-adaptive %d — expected a transfer saving", bytesOn, bytesOff)
	}
	t.Logf("bytes moved: un-adaptive=%d adaptive=%d (%.0f%% saved), reopts=%d",
		bytesOff, bytesOn, 100*(1-float64(bytesOn)/float64(bytesOff)), adaptive.Breakdown.Reopts)
}

// BenchmarkReopt prices the barrier overhead: the same two-table join
// with accurate statistics, with re-optimization off and on. The on
// variant pays one COUNT(*) round trip per explicit edge and must stay
// within noise of off.
func BenchmarkReopt(b *testing.B) {
	run := func(b *testing.B, maxReopts int, skew float64) {
		opts := reoptOptions()
		opts.MaxReopts = maxReopts
		cl := newChaosCluster(b, opts)
		if skew != 1 {
			if err := cl.engines["db2"].SkewStats("orders", skew); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cl.sys.Query(failoverQuery); err != nil {
			b.Fatal(err) // warm: calibration, pools
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.sys.Query(failoverQuery); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("accurate/off", func(b *testing.B) { run(b, 0, 1) })
	b.Run("accurate/on", func(b *testing.B) { run(b, 2, 1) })
	b.Run("skewed/off", func(b *testing.B) { run(b, 0, 0.1) })
	b.Run("skewed/on", func(b *testing.B) { run(b, 2, 0.1) })
}

// TestReoptFailedReplanRunsSuperseded cuts the middleware off from orders'
// home between deployment and the re-plan: the barrier (db1 pulling from
// db2) still disproves the estimate, but the re-optimization cannot
// refresh orders' metadata and has no plan. The superseded deployment is
// intact, so the query executes it — same rows, no fault budget spent —
// and once the link heals one sweep leaves the cluster quiescent.
func TestReoptFailedReplanRunsSuperseded(t *testing.T) {
	optsOff := reoptOptions()
	optsOff.MaxReopts = 0
	clOff := newChaosCluster(t, optsOff)
	if err := clOff.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	baseline, err := clOff.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}

	opts := reoptOptions()
	opts.Trace = true
	cl := newChaosCluster(t, opts)
	if err := cl.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 0 {
			cl.topo.PartitionSites(chaosSite("xdb"), chaosSite("db2"))
		}
	}
	failedBefore := met.reopts.With("failed").Value()
	res, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatalf("query failed although the superseded deployment was intact: %v", err)
	}
	if got, want := rowsText(res), rowsText(baseline); got != want {
		t.Errorf("result differs from the un-adaptive baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if res.Plan.Root.Node != "db1" {
		t.Errorf("executed plan rooted on %s, want the superseded plan's db1", res.Plan.Root.Node)
	}
	if bd := res.Breakdown; bd.Reopts != 1 || bd.Replans != 0 || bd.FailedOver || bd.MediatorFallback {
		t.Errorf("breakdown = reopts %d replans %d failed_over %v mediator %v, want 1/0/false/false",
			bd.Reopts, bd.Replans, bd.FailedOver, bd.MediatorFallback)
	}
	if got := met.reopts.With("failed").Value() - failedBefore; got != 1 {
		t.Errorf("xdb_reopts_total{outcome=failed} delta = %d, want 1", got)
	}
	if res.Trace.Find("reopt_fallback") == nil {
		t.Errorf("no reopt_fallback span in trace:\n%s", res.Trace)
	}
	assertClosed(t, res.Trace)
	// The drops on db2 could not cross the cut link: they are parked, and
	// nothing else is left anywhere.
	if res.CleanupErr == nil {
		t.Error("CleanupErr = nil with db2 unreachable for its drops")
	}
	assertQuiescent(t, cl.sys, cl.engines, "db2")

	cl.topo.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, remaining, err := cl.sys.SweepOrphans(); err == nil && remaining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphans not collected after the heal: %v", cl.sys.Orphans())
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}
