package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestInflightLifecycleAndDebugEndpoint snapshots a query mid-flight —
// through System.Inflight and over the /debug/queries endpoint — then
// verifies both drain to empty when it finishes.
func TestInflightLifecycleAndDebugEndpoint(t *testing.T) {
	opts := chaosOptions()
	opts.MetricsAddr = "127.0.0.1:0"
	cl := newChaosCluster(t, opts)
	addr := cl.sys.MetricsAddr()
	if addr == "" {
		t.Fatal("metrics listener did not start")
	}
	url := "http://" + addr + "/debug/queries"

	get := func(rawURL string) string {
		t.Helper()
		resp, err := http.Get(rawURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var midJSON, midText string
	var midSnap []InflightQuery
	cl.sys.hookBeforeAttempt = func(attempt int) {
		if midJSON != "" {
			return
		}
		midJSON = get(url)
		midText = get(url + "?format=text")
		midSnap = cl.sys.Inflight()
	}
	res, err := cl.sys.Query(chaosQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatal(err)
	}

	// Mid-query: exactly this query, registered with its phase and shape.
	if len(midSnap) != 1 {
		t.Fatalf("Inflight() mid-query = %d entries, want 1", len(midSnap))
	}
	q := midSnap[0]
	if q.SQL != chaosQuery || q.ID <= 0 {
		t.Errorf("mid-query snapshot = %+v", q)
	}
	if q.Phase != "delegating" {
		t.Errorf("phase at the pre-execution hook = %q, want %q", q.Phase, "delegating")
	}
	if !strings.Contains(q.PlanShape, "tasks=") {
		t.Errorf("plan shape = %q, want tasks summary", q.PlanShape)
	}
	var served []InflightQuery
	if err := json.Unmarshal([]byte(midJSON), &served); err != nil {
		t.Fatalf("endpoint JSON does not decode: %v\n%s", err, midJSON)
	}
	if len(served) != 1 || served[0].SQL != chaosQuery || served[0].ID != q.ID {
		t.Errorf("endpoint snapshot = %s", midJSON)
	}
	if !strings.Contains(midText, fmt.Sprintf("#%d [delegating]", q.ID)) {
		t.Errorf("text rendering missing the query header:\n%s", midText)
	}

	// The finished result carries the accumulated flows: at minimum the
	// root task's result delivery, all streams drained.
	if res.QID <= 0 {
		t.Errorf("Result.QID = %d, want the executed deployment's qid", res.QID)
	}
	var sawResult bool
	for _, f := range res.Flows {
		if f.QID != res.QID {
			t.Errorf("flow from a foreign attempt: %+v", f)
		}
		if !f.Done {
			t.Errorf("flow not drained at completion: %+v", f)
		}
		if f.Kind == "result" {
			sawResult = true
			if f.Rows() != int64(len(res.Rows)) {
				t.Errorf("result flow rows = %d, want %d", f.Rows(), len(res.Rows))
			}
		}
		if f.Bytes() <= 0 || f.Rows() <= 0 {
			t.Errorf("flow without traffic: %+v", f)
		}
	}
	if !sawResult {
		t.Errorf("no result-delivery flow in %+v", res.Flows)
	}

	// Drained: registry and router empty, endpoint reports none.
	assertQuiescent(t, cl.sys, cl.engines)
	var after []InflightQuery
	if err := json.Unmarshal([]byte(get(url)), &after); err != nil || len(after) != 0 {
		t.Errorf("endpoint after drain = %v (err %v), want empty", after, err)
	}
	if txt := get(url + "?format=text"); !strings.Contains(txt, "no queries in flight") {
		t.Errorf("text endpoint after drain = %q", txt)
	}
}

// TestImplicitFlowFeedbackTransferSavings is the acceptance scenario for
// the implicit-edge feedback loop: the savings schema with tickets'
// statistics under-reported 10x and implicit movement, so the only
// cardinality observation is the wire flow accounting on the pulls
// themselves. Run 1 plans against the
// skew and mis-ships the inflated intermediate; its finished pull
// streams feed the observed tickets count into the learned-statistics loop;
// run 2 — same cluster, same SQL — must plan against the corrected
// statistics and move strictly fewer bytes for an identical result.
func TestImplicitFlowFeedbackTransferSavings(t *testing.T) {
	cl := newChaosCluster(t, chaosOptions())
	loadSavingsTables(t, cl)
	if err := cl.engines["db2"].SkewStats("tickets", 0.1); err != nil {
		t.Fatal(err)
	}

	cl.topo.Ledger().Reset()
	res1, err := cl.sys.Query(savingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	bytes1 := cl.topo.Ledger().Total()

	// Run 1 must have pulled tickets over an implicit edge and observed
	// the divergence — the feedback's raw material.
	var ticketsFlow *EdgeFlow
	for i, f := range res1.Flows {
		if f.Kind == "implicit" && f.Done && f.EstRows > 0 &&
			diverges(f.EstRows, float64(f.Rows())) {
			ticketsFlow = &res1.Flows[i]
		}
	}
	if ticketsFlow == nil {
		t.Fatalf("run 1 observed no diverging implicit edge — scenario broken:\n%+v", res1.Flows)
	}

	cl.topo.Ledger().Reset()
	res2, err := cl.sys.Query(savingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	bytes2 := cl.topo.Ledger().Total()

	if got, want := rowsText(res2), rowsText(res1); got != want {
		t.Fatalf("run 2 result differs from run 1:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if bytes2 >= bytes1 {
		t.Errorf("run 2 moved %d bytes, run 1 %d — implicit-edge feedback bought nothing", bytes2, bytes1)
	}
	t.Logf("bytes moved: run1=%d run2=%d (%.0f%% saved) — diverging edge %s est %.0f actual %d",
		bytes1, bytes2, 100*(1-float64(bytes2)/float64(bytes1)),
		ticketsFlow.Rel, ticketsFlow.EstRows, ticketsFlow.Rows())

	assertQuiescent(t, cl.sys, cl.engines)
}

// TestAnalyzeShowsEstVsActual checks the EXPLAIN ANALYZE rendering: the
// executed plan annotated with estimated vs observed cardinalities,
// per-edge wire volume, phase timings, per-DDL span timings, and the
// cache/failover verdicts.
func TestAnalyzeShowsEstVsActual(t *testing.T) {
	opts := chaosOptions()
	opts.Trace = true
	cl := newChaosCluster(t, opts)
	res, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Analyze()
	for _, want := range []string{
		"EXPLAIN ANALYZE",
		"edges (est vs observed):",
		"]: 2 cols, est ", // either side of the join exports its key and one read column
		", actual ",
		"result delivery:",
		"phases:",
		"consult_rounds=",
		"ddl timings",
		"verdicts:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Analyze() missing %q:\n%s", want, out)
		}
	}
	// A plan-cache miss, and no recovery on a clean run: the record's
	// zero facts are not listed.
	for _, absent := range []string{"plan_cache_hit", "replans=", "failed_over", "mediator_fallback", "reopts="} {
		if strings.Contains(out, absent) {
			t.Errorf("Analyze() of a clean cold run reports %q:\n%s", absent, out)
		}
	}
	if (&Result{}).Analyze() == "" || (*Result)(nil).Analyze() != "" {
		t.Error("Analyze() edge cases: empty Result must render, nil must not panic")
	}
}

// TestChaosInflightDrainsOnFailover kills the executing node mid-query:
// the query fails over, finishes, and the introspection layer must be
// empty — no stale registry entry, no orphaned flow route — despite the
// retired attempt's streams dying mid-flight.
func TestChaosInflightDrainsOnFailover(t *testing.T) {
	cl := newFailoverCluster(t, failoverOptions())
	if _, err := cl.sys.Query(failoverQuery); err != nil {
		t.Fatal(err) // warm: calibration, pools
	}

	fired := false
	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 0 && !fired {
			fired = true
			if len(cl.sys.Inflight()) != 1 {
				t.Error("query not visible in the registry at the kill point")
			}
			cl.topo.CrashNode("db3")
		}
	}
	res, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatalf("query did not survive the crash: %v", err)
	}
	if !fired || res.Breakdown.Replans < 1 {
		t.Fatalf("fault not exercised (fired=%v replans=%d)", fired, res.Breakdown.Replans)
	}
	// The executed attempt's flows survive in the result; the dead
	// attempt's qid must not linger in the router.
	if res.QID <= 0 {
		t.Errorf("Result.QID = %d after failover", res.QID)
	}
	assertQuiescent(t, cl.sys, cl.engines, "db3")

	cl.topo.ReviveNode("db3")
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("post-revival sweep: remaining=%d err=%v", remaining, err)
	}
}

// TestFlowSharedWarmDeployment is the regression for the shared-qid
// attribution lie: two concurrent queries leasing one warm deployment
// reuse one qid, and the router used to credit the whole overlap's
// traffic to whichever query attached last — with the other query's
// estimate and signature. The overlap must instead be detected
// (xdb_edge_attr_ambiguous_total), its streams demoted to kind=shared
// with per-query attribution withheld, and both routes still drained at
// the end.
func TestFlowSharedWarmDeployment(t *testing.T) {
	opts := chaosOptions()
	opts.PlanCacheSize = 4
	cl := newChaosCluster(t, opts)
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err) // warm the deployment both runs will lease
	}

	before := met.edgeAttrAmbiguous.Value()
	// Hold both queries at the pre-execution hook until each has attached
	// its attempt — the second attach is the ambiguity.
	var barrier sync.WaitGroup
	barrier.Add(2)
	cl.sys.hookBeforeAttempt = func(int) {
		barrier.Done()
		barrier.Wait()
	}
	var wg sync.WaitGroup
	var res [2]*Result
	var errs [2]error
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = cl.sys.Query(chaosQuery)
		}(i)
	}
	wg.Wait()
	cl.sys.hookBeforeAttempt = nil
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query %d: %v", i, err)
		}
	}
	if !res[0].Breakdown.PlanCacheHit || !res[1].Breakdown.PlanCacheHit {
		t.Fatalf("warm deployment not shared (hits %v/%v) — scenario broken",
			res[0].Breakdown.PlanCacheHit, res[1].Breakdown.PlanCacheHit)
	}

	if got := met.edgeAttrAmbiguous.Value() - before; got < 1 {
		t.Errorf("xdb_edge_attr_ambiguous_total delta = %d, want >= 1", got)
	}
	// The contended qid's streams surface as kind=shared with the
	// per-query attribution withheld, not as a silently mis-credited
	// implicit/result edge.
	var shared *EdgeFlow
	for i := range res {
		for j, f := range res[i].Flows {
			if f.Kind == "shared" {
				shared = &res[i].Flows[j]
			}
		}
	}
	if shared == nil {
		t.Fatalf("no kind=shared flow on either query:\n%+v\n%+v", res[0].Flows, res[1].Flows)
	}
	if shared.EstRows != 0 {
		t.Errorf("shared flow kept per-query attribution: est=%v", shared.EstRows)
	}
	if got, want := rowsText(res[0]), rowsText(res[1]); got != want {
		t.Errorf("concurrent warm results differ:\n%s\nvs\n%s", got, want)
	}
	// Both deregistrations clean their routes and the shared mark.
	assertQuiescent(t, cl.sys, cl.engines)
	flowRouter.RLock()
	sharedLeft := len(flowRouter.shared)
	flowRouter.RUnlock()
	if sharedLeft != 0 {
		t.Errorf("flow router still holds %d shared marks after drain", sharedLeft)
	}
}

// TestInflightDeregisterOnCancel cancels a query mid-flight and verifies
// the registry entry and its flow routes go with it.
func TestInflightDeregisterOnCancel(t *testing.T) {
	cl := newChaosCluster(t, chaosOptions())
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cl.sys.hookBeforeAttempt = func(attempt int) { cancel() }
	_, err := cl.sys.QueryContext(ctx, chaosQuery)
	cl.sys.hookBeforeAttempt = nil
	if err == nil {
		t.Fatal("query survived its own cancellation")
	}
	assertQuiescent(t, cl.sys, cl.engines)
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("sweep after cancel: remaining=%d err=%v", remaining, err)
	}
}
