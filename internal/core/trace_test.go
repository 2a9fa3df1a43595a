package core

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"xdb/internal/obs"
)

// Trace tests: the span tree must cover the full query lifecycle, stay
// well-formed on every exit path (success, node crash, cancellation),
// and cost nothing when tracing is off.

func traceOptions() Options {
	opts := chaosOptions()
	opts.Trace = true
	return opts
}

// assertClosed fails if any span in the tree is still open.
func assertClosed(t *testing.T, root *obs.Span) {
	t.Helper()
	root.Walk(func(_ int, sp *obs.Span) {
		if sp.End().IsZero() {
			t.Errorf("span %q left open", sp.Name())
		}
	})
}

// TestTraceFullLifecycle runs one cross-database query with tracing on
// and asserts a span per phase, child spans per probe and per DDL, and
// volumes on the execution span.
func TestTraceFullLifecycle(t *testing.T) {
	cl := newChaosCluster(t, traceOptions())
	res, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("Options.Trace set but Result.Trace is nil")
	}
	if tr.Name() != "query" {
		t.Fatalf("root span = %q, want query", tr.Name())
	}
	assertClosed(t, tr)

	for _, phase := range []string{"admission", "prep", "metadata", "lopt", "annotate", "probe", "place", "delegate", "ddl", "execute", "cleanup"} {
		if tr.Find(phase) == nil {
			t.Errorf("trace has no %q span:\n%s", phase, tr)
		}
	}

	// The delegation's DDL spans must match the breakdown's DDL count and
	// carry node + kind tags.
	if got, want := tr.Count("ddl"), res.Breakdown.DDLCount; got != want {
		t.Errorf("ddl spans = %d, want DDLCount %d", got, want)
	}
	kinds := map[string]bool{}
	tr.Walk(func(_ int, sp *obs.Span) {
		if sp.Name() != "ddl" {
			return
		}
		kinds[sp.Attr("kind")] = true
		if sp.Attr("node") == "" {
			t.Error("ddl span missing node attribute")
		}
	})
	for _, k := range []string{"view", "server", "foreign_table"} {
		if !kinds[k] {
			t.Errorf("no ddl span of kind %q (got %v)", k, kinds)
		}
	}

	// Probes carry their verdict; a healthy cluster consults.
	probe := tr.Find("probe")
	if got := probe.Attr("outcome"); got != "consulted" {
		t.Errorf("probe outcome = %q, want consulted", got)
	}
	if probe.Attr("node") == "" {
		t.Error("probe span missing node attribute")
	}
	wantProbes := res.Breakdown.ConsultRounds + res.Breakdown.DegradedProbes + res.Breakdown.CachedProbes
	if got := tr.Count("probe"); got != wantProbes {
		t.Errorf("probe spans = %d, want ConsultRounds+DegradedProbes+CachedProbes = %d",
			got, wantProbes)
	}

	exec := tr.Find("execute")
	if exec.Rows() != int64(len(res.Rows)) {
		t.Errorf("execute span rows = %d, want %d", exec.Rows(), len(res.Rows))
	}
	if exec.Attr("node") != res.RootNode {
		t.Errorf("execute span node = %q, want %q", exec.Attr("node"), res.RootNode)
	}

	// Renderings: the flame profile names every phase; the JSON export
	// round-trips.
	text := tr.String()
	for _, phase := range []string{"query", "annotate", "delegate", "execute"} {
		if !strings.Contains(text, phase) {
			t.Errorf("String() missing %q:\n%s", phase, text)
		}
	}
	if strings.Contains(text, "OPEN") {
		t.Errorf("String() reports open spans:\n%s", text)
	}
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var exported obs.SpanJSON
	if err := json.Unmarshal(raw, &exported); err != nil {
		t.Fatalf("trace JSON does not round-trip: %v", err)
	}
	if exported.Name != "query" || len(exported.Children) == 0 {
		t.Errorf("exported trace malformed: %+v", exported)
	}
}

// TestTraceDisabledByDefault: without Options.Trace or a caller span, no
// trace is built — the slow-query log's threshold does not turn one on.
func TestTraceDisabledByDefault(t *testing.T) {
	captureSlowLog(t) // keep the slow-query records out of the test output
	for name, threshold := range map[string]time.Duration{"default": 0, "slow-query log": time.Nanosecond} {
		opts := chaosOptions()
		opts.SlowQueryThreshold = threshold
		cl := newChaosCluster(t, opts)
		res, err := cl.sys.Query(chaosQuery)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace != nil {
			t.Fatalf("%s: tracing disabled but Result.Trace = \n%s", name, res.Trace)
		}
	}
}

// TestTraceCrashedNodeDDL crashes a data node and asserts the failing
// query's trace attributes the fault: a DDL span on the crashed node
// records the error, and the tree still closes (error paths must finish
// their spans).
func TestTraceCrashedNodeDDL(t *testing.T) {
	opts := traceOptions()
	// Keep the breaker closed through the degraded annotation probes:
	// the point is to reach the crashed node's DDL, not to fail fast.
	opts.BreakerThreshold = 100
	cl := newChaosCluster(t, opts)
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err) // warm: calibration, metadata cache
	}
	cl.topo.CrashNode("db2")

	parent := obs.NewSpan("test")
	ctx := obs.ContextWithSpan(context.Background(), parent)
	if _, err := cl.sys.QueryContext(ctx, chaosQuery); err == nil {
		t.Fatal("query succeeded with db2 crashed")
	}
	parent.FinishAll()
	assertClosed(t, parent)

	qspan := parent.Find("query")
	if qspan == nil {
		t.Fatalf("caller span did not adopt the query trace:\n%s", parent)
	}
	if qspan.Err() == "" {
		t.Error("query span records no error")
	}
	var faulted bool
	qspan.Walk(func(_ int, sp *obs.Span) {
		if sp.Name() == "ddl" && sp.Attr("node") == "db2" && sp.Err() != "" {
			faulted = true
		}
	})
	if !faulted {
		t.Errorf("no ddl span on db2 records the fault:\n%s", qspan)
	}
}

// TestTraceCancelledQueryWellFormed: a query cancelled mid-plan must
// produce a trace with no open spans and the cancellation recorded.
func TestTraceCancelledQueryWellFormed(t *testing.T) {
	cl := newChaosCluster(t, traceOptions())
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: planning aborts at its first ctx check
	parent := obs.NewSpan("test")
	_, err := cl.sys.QueryContext(obs.ContextWithSpan(ctx, parent), chaosQuery)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	parent.FinishAll()
	assertClosed(t, parent)
	qspan := parent.Find("query")
	if qspan == nil {
		t.Fatalf("no query span:\n%s", parent)
	}
	if !strings.Contains(qspan.Err(), "context canceled") {
		t.Errorf("query span err = %q, want context cancellation", qspan.Err())
	}
}

// TestTraceFailoverWellFormed runs the kill-after-deploy failover with
// tracing on and asserts the trace tells the whole story in one closed
// tree: two delegate spans, two execute spans (the severed one carrying
// the fault), and a replan span between them with the cause and the
// excluded node.
func TestTraceFailoverWellFormed(t *testing.T) {
	opts := failoverOptions()
	opts.Trace = true
	cl := newFailoverCluster(t, opts)
	if _, err := cl.sys.Query(failoverQuery); err != nil {
		t.Fatal(err)
	}

	cl.sys.hookBeforeAttempt = func(attempt int) {
		if attempt == 0 && !cl.topo.Crashed("db3") {
			cl.topo.CrashNode("db3")
		}
	}
	res, err := cl.sys.Query(failoverQuery)
	cl.sys.hookBeforeAttempt = nil
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	assertClosed(t, tr)
	if got := tr.Count("execute"); got != 2 {
		t.Errorf("execute spans = %d, want 2 (severed + resumed):\n%s", got, tr)
	}
	if got := tr.Count("delegate"); got != 2 {
		t.Errorf("delegate spans = %d, want 2 (original + suffix redeploy):\n%s", got, tr)
	}
	if got := tr.Count("replan"); got != 1 {
		t.Fatalf("replan spans = %d, want 1:\n%s", got, tr)
	}
	rsp := tr.Find("replan")
	if rsp.Attr("cause") != "fault" || rsp.Attr("excluded") != "db3" || rsp.Attr("attempt") != "1" {
		t.Errorf("replan attrs = cause=%q excluded=%q attempt=%q, want fault/db3/1",
			rsp.Attr("cause"), rsp.Attr("excluded"), rsp.Attr("attempt"))
	}
	if rsp.Err() == "" {
		t.Error("replan span carries no error — the fault that caused it is lost")
	}
	execSevered := tr.Find("execute")
	if execSevered.Err() == "" {
		t.Error("first execute span carries no error despite the severed stream")
	}
}

// TestBreakdownTotalIncludesAdmissionWait is the regression test for the
// Total() fix: a queued query's Total must cover its full wall time, not
// just the processing share.
func TestBreakdownTotalIncludesAdmissionWait(t *testing.T) {
	bd := Breakdown{
		Prep:          1 * time.Millisecond,
		Lopt:          2 * time.Millisecond,
		Ann:           3 * time.Millisecond,
		Deleg:         4 * time.Millisecond,
		Exec:          5 * time.Millisecond,
		AdmissionWait: 100 * time.Millisecond,
		Queued:        true,
	}
	if got, want := bd.Work(), 15*time.Millisecond; got != want {
		t.Errorf("Work() = %v, want %v", got, want)
	}
	if got, want := bd.Total(), 115*time.Millisecond; got != want {
		t.Errorf("Total() = %v, want %v (must include AdmissionWait)", got, want)
	}
}

// TestSystemStats asserts Stats() returns one coherent snapshot across
// admission, node health, transport, and orphans.
func TestSystemStats(t *testing.T) {
	opts := chaosOptions()
	opts.BreakerThreshold = 100 // reach the crashed node's DDL below
	cl := newChaosCluster(t, opts)
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	st := cl.sys.Stats()
	if st.Admission.Admitted < 1 || st.Admission.Completed < 1 {
		t.Errorf("admission not accounted: %+v", st.Admission)
	}
	for _, node := range []string{"db1", "db2", "db3"} {
		if _, ok := st.Nodes[node]; !ok {
			t.Errorf("Stats().Nodes missing %s", node)
		}
	}
	if st.Nodes["db1"].Successes == 0 {
		t.Errorf("db1 health records no successes: %+v", st.Nodes["db1"])
	}
	// All three connectors share the middleware client: aggregated, not
	// triple-counted.
	if got, want := st.Transport, cl.clients["mw"].Transport(); got != want {
		t.Errorf("Transport = %+v, want the shared client's %+v", got, want)
	}
	if st.Transport.Dials == 0 || st.Transport.BytesSent == 0 {
		t.Errorf("transport counters empty: %+v", st.Transport)
	}
	if len(st.Orphans) != 0 {
		t.Errorf("unexpected orphans: %+v", st.Orphans)
	}

	// A crashed node shows up in the same snapshot: failed drops park as
	// orphans and the node's health degrades.
	cl.topo.CrashNode("db2")
	if _, err := cl.sys.Query(chaosQuery); err == nil {
		t.Fatal("query succeeded with db2 crashed")
	}
	st = cl.sys.Stats()
	if st.Nodes["db2"].Failures == 0 {
		t.Errorf("db2 health records no failures: %+v", st.Nodes["db2"])
	}
	if len(st.Orphans) == 0 {
		t.Error("no orphans after crashed-node query")
	}
}
