package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"xdb/internal/netsim"
	"xdb/internal/planner"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// failoverQuery orders its output so a failed-over run can be compared
// byte-for-byte against a fault-free baseline.
const failoverQuery = "SELECT u.u_name, o.o_id FROM users u, orders o WHERE u.u_id = o.o_uid ORDER BY o.o_id"

// failoverOptions enable mid-query failover on the chaos cluster with a
// placement-relevant third node.
func failoverOptions() Options {
	opts := chaosOptions()
	opts.FullCandidateSet = true // db3 becomes a placement candidate
	opts.MaxReplans = 2
	opts.ReplanBackoff = 5 * time.Millisecond
	return opts
}

// newFailoverCluster builds the chaos cluster with an expensive db1<->db2
// link, so the data-free db3 wins the join placement — the node the
// scenarios then kill. Fails the test if placement doesn't cooperate.
func newFailoverCluster(t *testing.T, opts Options) *chaosCluster {
	t.Helper()
	cl := newChaosCluster(t, opts)
	// ~1000x slower than LAN: moving either base relation to the other's
	// node costs far more than moving both to db3 over LAN links.
	cl.topo.SetLink(chaosSite("db1"), chaosSite("db2"),
		netsim.LinkSpec{Bandwidth: 16 << 10, Latency: time.Millisecond})
	return cl
}

// rowsText renders result rows for byte-for-byte comparison.
func rowsText(res *Result) string {
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

// requireTaskOn fails unless the plan placed at least one task on node.
func requireTaskOn(t *testing.T, res *Result, node string) {
	t.Helper()
	for _, task := range res.Plan.Tasks {
		if task.Node == node {
			return
		}
	}
	t.Fatalf("plan placed no task on %s — placement setup broken:\n%v", node, res.Plan.Tasks)
}

// TestFailoverKillAfterDeploy is the acceptance scenario: the join node
// dies after deployment but before execution. With MaxReplans > 0 the
// query must replan the suffix around the dead node and return a result
// identical to the fault-free baseline, and after revival plus a sweep no
// xdb object may survive anywhere.
func TestFailoverKillAfterDeploy(t *testing.T) {
	opts := failoverOptions()
	opts.Trace = true
	cl := newFailoverCluster(t, opts)

	baseline, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireTaskOn(t, baseline, "db3")
	if len(baseline.Rows) == 0 {
		t.Fatal("baseline returned no rows")
	}

	// Kill db3 after the original attempt deployed, before it executes.
	fired := false
	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 0 && !fired {
			fired = true
			cl.topo.CrashNode("db3")
		}
	}
	res, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatalf("query did not survive the crash: %v", err)
	}
	if !fired {
		t.Fatal("fault was never injected")
	}
	if got, want := rowsText(res), rowsText(baseline); got != want {
		t.Errorf("failed-over result differs from baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if res.Breakdown.Replans < 1 {
		t.Errorf("Breakdown.Replans = %d, want >= 1", res.Breakdown.Replans)
	}
	if !res.Breakdown.FailedOver {
		t.Error("Breakdown.FailedOver = false after a surviving replan")
	}
	if res.Breakdown.MediatorFallback {
		t.Error("Breakdown.MediatorFallback = true on an in-situ recovery")
	}
	for _, task := range res.Plan.Tasks {
		if task.Node == "db3" {
			t.Error("replanned suffix still places a task on the dead node")
		}
	}
	// The replan is visible in the trace, attributed and closed.
	rsp := res.Trace.Find("replan")
	if rsp == nil {
		t.Fatalf("no replan span in trace:\n%s", res.Trace)
	}
	if got := rsp.Attr("cause"); got != "fault" {
		t.Errorf("replan cause = %q, want %q", got, "fault")
	}
	if got := rsp.Attr("excluded"); got != "db3" {
		t.Errorf("replan excluded = %q, want %q", got, "db3")
	}
	assertClosed(t, res.Trace)

	// db3's breaker was tripped by the failover, not by threshold counting.
	if st := cl.sys.NodeHealth()["db3"].State; st != BreakerOpen {
		t.Errorf("db3 breaker = %v after failover, want open", st)
	}

	// Nothing leaks: survivors are clean now; db3's objects are orphans
	// that one post-revival sweep collects.
	assertQuiescent(t, cl.sys, cl.engines, "db3")
	cl.topo.ReviveNode("db3")
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("post-revival sweep: remaining=%d err=%v", remaining, err)
	}
	assertQuiescent(t, cl.sys, cl.engines)

	cl.close()
	cl.assertTransportBalanced(t)
}

// TestFailoverRetryDeploysWholePlan: a retry deploys its whole plan under
// its own qid, whatever the movement. After the join node dies between
// deployment and execution, every task of the plan that answered reads a
// view of the answering attempt, none of the retired one's, and the rows
// equal the fault-free baseline under cost-based, forced-explicit and
// forced-implicit movement.
func TestFailoverRetryDeploysWholePlan(t *testing.T) {
	for _, tc := range []struct {
		name string
		move planner.Movement
	}{
		{"cost-based", 0},
		{"explicit", planner.MoveExplicit},
		{"implicit", planner.MoveImplicit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := failoverOptions()
			opts.ForceMovement = tc.move
			cl := newFailoverCluster(t, opts)
			baseline, err := cl.sys.Query(failoverQuery)
			if err != nil {
				t.Fatal(err)
			}
			requireTaskOn(t, baseline, "db3")

			cl.sys.hookBeforeAttempt = func(attempt int) {
				if attempt == 0 {
					cl.topo.CrashNode("db3")
				}
			}
			res, err := cl.sys.Query(failoverQuery)
			cl.sys.hookBeforeAttempt = nil
			if err != nil {
				t.Fatalf("query did not survive the crash: %v", err)
			}
			if res.Breakdown.Replans < 1 {
				t.Fatalf("Breakdown.Replans = %d, want >= 1", res.Breakdown.Replans)
			}
			if got, want := rowsText(res), rowsText(baseline); got != want {
				t.Errorf("failed-over result differs from baseline:\ngot:\n%s\nwant:\n%s", got, want)
			}
			prefix := fmt.Sprintf("xdb%d_", res.QID)
			for _, task := range res.Plan.Tasks {
				if !strings.HasPrefix(task.ViewName, prefix) {
					t.Errorf("task t%d on %s reads %s, not a view of the answering attempt (%s*)",
						task.ID, task.Node, task.ViewName, prefix)
				}
			}

			assertQuiescent(t, cl.sys, cl.engines, "db3")
			cl.topo.ReviveNode("db3")
			if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
				t.Errorf("post-revival sweep: remaining=%d err=%v", remaining, err)
			}
			assertQuiescent(t, cl.sys, cl.engines)
		})
	}
}

// TestFailoverDisabled pins the paper configuration: with MaxReplans 0
// the same mid-query crash fails the query with the typed transport
// fault, exactly as before failover existed.
func TestFailoverDisabled(t *testing.T) {
	opts := failoverOptions()
	opts.MaxReplans = 0
	cl := newFailoverCluster(t, opts)
	if _, err := cl.sys.Query(failoverQuery); err != nil {
		t.Fatal(err)
	}

	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 0 {
			cl.topo.CrashNode("db3")
		}
	}
	_, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err == nil {
		t.Fatal("query succeeded with MaxReplans=0 and the join node dead")
	}
	var fe *netsim.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want a *netsim.FaultError in the chain", err)
	}
	if !strings.Contains(err.Error(), "db3") {
		t.Errorf("error does not attribute db3: %v", err)
	}

	assertQuiescent(t, cl.sys, cl.engines, "db3")
	cl.topo.ReviveNode("db3")
	if _, remaining, serr := cl.sys.SweepOrphans(); serr != nil || remaining != 0 {
		t.Errorf("post-revival sweep: remaining=%d err=%v", remaining, serr)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}

// TestFailoverMediatorFallback exhausts in-situ recovery (MaxReplans 0)
// with the fallback enabled: the query must finish on the middleware's
// embedded engine from the surviving base-table fragments, flagged in the
// breakdown, with the same rows as the fault-free baseline.
func TestFailoverMediatorFallback(t *testing.T) {
	opts := failoverOptions()
	opts.MaxReplans = 0
	opts.MediatorFallback = true
	cl := newFailoverCluster(t, opts)

	baseline, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireTaskOn(t, baseline, "db3")

	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 0 {
			cl.topo.CrashNode("db3")
		}
	}
	res, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatalf("mediator fallback did not rescue the query: %v", err)
	}
	if got, want := rowsText(res), rowsText(baseline); got != want {
		t.Errorf("fallback result differs from baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if !res.Breakdown.MediatorFallback || !res.Breakdown.FailedOver {
		t.Errorf("Breakdown flags: MediatorFallback=%v FailedOver=%v, want both true",
			res.Breakdown.MediatorFallback, res.Breakdown.FailedOver)
	}
	if res.RootNode != "xdb" {
		t.Errorf("RootNode = %q on a mediator fallback, want the middleware", res.RootNode)
	}

	assertQuiescent(t, cl.sys, cl.engines, "db3")
	cl.topo.ReviveNode("db3")
	if _, remaining, serr := cl.sys.SweepOrphans(); serr != nil || remaining != 0 {
		t.Errorf("post-revival sweep: remaining=%d err=%v", remaining, serr)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}

// TestMediatorFallbackEveryQuery runs the mediator fallback on every TPC-H
// query under TD1 and compares its rows, in order, with the in-situ
// answer: the per-scan fragments and ExecuteLocal's final block (GROUP BY,
// HAVING, ORDER BY against output names, LIMIT) must spell each query as
// the task renderer does.
func TestMediatorFallbackEveryQuery(t *testing.T) {
	cl := newTPCHCluster(t, Options{})
	for _, qn := range tpch.QueryNames {
		want, err := cl.sys.Query(tpch.Queries[qn])
		if err != nil {
			t.Fatalf("%s: %v", qn, err)
		}
		got, err := cl.sys.mediatorFallback(context.Background(), nil, tpch.Queries[qn])
		if err != nil {
			t.Fatalf("%s fallback: %v", qn, err)
		}
		if len(got.Rows) != len(want.Rows) || len(want.Rows) == 0 {
			t.Fatalf("%s: fallback returned %d rows, in situ %d", qn, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if !sameRow(got.Rows[i], want.Rows[i]) {
				t.Fatalf("%s row %d: fallback %v, in situ %v", qn, i, got.Rows[i], want.Rows[i])
			}
		}
	}
}

// sameRow compares two rows value by value, floats to a relative 1e-9:
// the fallback sums in another order than the in-situ engines.
func sameRow(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].T == sqltypes.TypeFloat && b[j].T == sqltypes.TypeFloat {
			if math.Abs(a[j].F-b[j].F) > 1e-9*math.Max(1, math.Abs(b[j].F)) {
				return false
			}
		} else if !sqltypes.Equal(a[j], b[j]) {
			return false
		}
	}
	return true
}

// TestFailoverSlowNode wedges the join node instead of killing it: every
// byte through it stalls past the request deadline. The failover must
// classify the fault as "slow" — distinguishing a wedged node from a dead
// one — and still finish the query around it.
func TestFailoverSlowNode(t *testing.T) {
	opts := failoverOptions()
	opts.Trace = true
	opts.RequestTimeout = 200 * time.Millisecond
	// Keep probe timeouts from opening the breaker before the failover
	// machinery attributes the fault itself.
	opts.BreakerThreshold = 100
	cl := newFailoverCluster(t, opts)

	baseline, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	requireTaskOn(t, baseline, "db3")

	// Wall-clock stall well past RequestTimeout on everything db3 touches.
	cl.topo.SlowNode("db3", 600*time.Millisecond)
	res, err := cl.sys.Query(failoverQuery)
	cl.topo.SlowNode("db3", 0)
	if err != nil {
		t.Fatalf("query did not survive the slow node: %v", err)
	}
	if got, want := rowsText(res), rowsText(baseline); got != want {
		t.Errorf("failed-over result differs from baseline:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if res.Breakdown.Replans < 1 {
		t.Errorf("Breakdown.Replans = %d, want >= 1", res.Breakdown.Replans)
	}
	rsp := res.Trace.Find("replan")
	if rsp == nil {
		t.Fatalf("no replan span in trace:\n%s", res.Trace)
	}
	if got := rsp.Attr("cause"); got != "slow" {
		t.Errorf("replan cause = %q, want %q (wedged, not dead)", got, "slow")
	}
	if got := rsp.Attr("excluded"); got != "db3" {
		t.Errorf("replan excluded = %q, want %q", got, "db3")
	}
}

// TestClassifyFault pins the fault taxonomy: which errors are worth a
// replan, which node they indict, and which end the query outright.
func TestClassifyFault(t *testing.T) {
	cl := newChaosCluster(t, chaosOptions())
	s := cl.sys
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name      string
		ctx       context.Context
		err       error
		node      string
		cause     string
		retriable bool
	}{
		{"nil", ctx, nil, "", "", false},
		{"cancelled error", ctx, context.Canceled, "", "", false},
		{"dead query context", cancelled,
			&netsim.FaultError{From: "client", To: "db1", Reason: "node db1 crashed"}, "", "", false},
		{"open breaker", ctx, &NodeUnavailableError{Node: "db2"}, "db2", "breaker", true},
		{"crash, target registered", ctx,
			&netsim.FaultError{From: "client", To: "db3", Reason: "node db3 crashed"}, "db3", "fault", true},
		{"crash, source registered", ctx,
			&netsim.FaultError{From: "db2", To: "client", Reason: "node db2 crashed"}, "db2", "fault", true},
		{"crash between registered nodes names the dead one", ctx,
			&netsim.FaultError{From: "db1", To: "db2", Reason: "node db1 crashed"}, "db1", "fault", true},
		{"partition between registered nodes indicts the target", ctx,
			&netsim.FaultError{From: "db1", To: "db2", Reason: "partition between sites"}, "db2", "fault", true},
		{"fault touching no registered node", ctx,
			&netsim.FaultError{From: "a", To: "b", Reason: "node a crashed"}, "", "", false},
		{"wrapped fault", ctx,
			fmt.Errorf("wire: send to db3: %w", &netsim.FaultError{From: "xdb", To: "db3", Reason: "node db3 crashed"}),
			"db3", "fault", true},
		{"attributed deadline", ctx,
			&nodeFaultError{node: "db1", err: fmt.Errorf("ddl: %w", context.DeadlineExceeded)}, "db1", "slow", true},
		{"unattributed deadline", ctx, context.DeadlineExceeded, "", "", false},
		{"flattened cascade fault", ctx,
			errors.New("remote db1: fdw: netsim: db2 -> db3: node db3 crashed"), "db3", "fault", true},
		{"flattened partition stays final", ctx,
			errors.New("remote db1: fdw: netsim: db2 -> db3: partition between sites s2 and s3"), "", "", false},
		{"sql error", ctx, errors.New("remote db1: unknown column q"), "", "", false},
	}
	for _, tc := range cases {
		node, cause, retriable := s.classifyFault(tc.ctx, tc.err)
		if node != tc.node || cause != tc.cause || retriable != tc.retriable {
			t.Errorf("%s: classifyFault = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, node, cause, retriable, tc.node, tc.cause, tc.retriable)
		}
	}
}

// TestReplanWaitBacksOffAndHonoursContext bounds the jittered wait and
// pins that cancellation cuts it short.
func TestReplanWaitBacksOffAndHonoursContext(t *testing.T) {
	s := &System{opts: Options{ReplanBackoff: 20 * time.Millisecond}}
	start := time.Now()
	if err := s.replanWait(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Errorf("attempt-0 wait %v below the jitter floor of base/2", d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.replanWait(ctx, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled replanWait = %v, want context.Canceled", err)
	}
}

// TestBreakerBackoffExponential pins the satellite: each consecutive open
// doubles the window up to the backoffMax cap, the wait is jittered into
// [window/2, window], and a close resets the exponent.
func TestBreakerBackoffExponential(t *testing.T) {
	base, max := 100*time.Millisecond, 350*time.Millisecond
	h := newHealthTracker(1, base, max, nil)
	boom := errors.New("boom")

	window := func() time.Duration {
		h.mu.Lock()
		defer h.mu.Unlock()
		st := h.nodes["n"]
		return st.retryAt.Sub(st.openedAt)
	}
	expire := func() {
		h.mu.Lock()
		h.nodes["n"].retryAt = time.Now().Add(-time.Millisecond)
		h.mu.Unlock()
	}
	checkWindow := func(open int, want time.Duration) {
		t.Helper()
		if d := window(); d < want/2 || d > want {
			t.Errorf("open #%d: window = %v, want in [%v, %v]", open, d, want/2, want)
		}
	}

	h.record("n", boom) // threshold 1: first open
	checkWindow(1, base)
	for i, want := range []time.Duration{200 * time.Millisecond, max, max} {
		expire()
		if err := h.allow("n"); err != nil {
			t.Fatalf("half-open probe refused: %v", err)
		}
		h.record("n", boom) // probe fails: re-open, doubled window
		checkWindow(i+2, want)
	}

	// A success closes the breaker and resets the exponent.
	expire()
	if err := h.allow("n"); err != nil {
		t.Fatal(err)
	}
	h.record("n", nil)
	h.record("n", boom)
	checkWindow(1, base)
}

// TestTripNode pins the failover's forced open: one attributed fault
// opens the breaker immediately and fires the transition hook.
func TestTripNode(t *testing.T) {
	h := newHealthTracker(3, 50*time.Millisecond, time.Second, nil)
	var entered []BreakerState
	h.onTransition = func(_ string, st BreakerState) { entered = append(entered, st) }

	h.tripNode("n", context.Canceled) // non-signal
	if !h.healthy("n") {
		t.Fatal("cancellation tripped the breaker")
	}
	h.tripNode("n", errors.New("node n crashed"))
	if h.healthy("n") {
		t.Fatal("breaker not open after tripNode")
	}
	if err := h.allow("n"); err == nil {
		t.Fatal("allow succeeded inside the tripped window")
	}
	if len(entered) != 1 || entered[0] != BreakerOpen {
		t.Fatalf("transitions = %v, want one open", entered)
	}
	// Tripping again inside the window is a no-op (record already fed it).
	h.tripNode("n", errors.New("again"))
	if len(entered) != 1 {
		t.Fatalf("re-trip inside the window fired a transition: %v", entered)
	}
}
