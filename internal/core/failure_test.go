package core_test

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

func TestNodeFailureDuringDelegation(t *testing.T) {
	// Kill one DBMS after planning metadata has been cached; delegation
	// must fail with a node-attributed error and leave no xdb objects on
	// the surviving nodes.
	tb, err := testbed.NewTPCH("TD1", 0.002, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.System.CacheStats = true

	// Warm: a successful query populates calibration and stats.
	if _, err := tb.System.Query(tpch.Queries["Q3"]); err != nil {
		t.Fatal(err)
	}

	// db2 (customer+orders) goes away.
	tb.Nodes["db2"].Server.Close()
	_, err = tb.System.Query(tpch.Queries["Q3"])
	if err == nil {
		t.Fatal("query succeeded with a dead node")
	}

	// Nothing leaks after the failed delegation.
	core.AssertQuiescent(t, tb.System, tbEngines(tb), "db2")
}

// TestCacheStatsRehomedTable: under CacheStats a catalog entry with schema
// and statistics is final — but only for the home it was gathered from.
// Re-homing a table resets its entry, and the next plan must see the new
// home's statistics, not a second copy of the old home's.
func TestCacheStatsRehomedTable(t *testing.T) {
	tb, err := testbed.New([]string{"db1", "db2"}, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.System.CacheStats = true
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "k", Type: sqltypes.TypeInt})
	rows := func(n int) []sqltypes.Row {
		out := make([]sqltypes.Row, n)
		for i := range out {
			out[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
		}
		return out
	}
	if err := tb.LoadTable("db1", "t", schema, rows(100)); err != nil {
		t.Fatal(err)
	}
	rowCount := func() int64 {
		t.Helper()
		if _, _, err := tb.System.Plan("SELECT t.k FROM t"); err != nil {
			t.Fatal(err)
		}
		info, _ := tb.System.Catalog().Lookup("t")
		return info.Stats.RowCount
	}
	if got := rowCount(); got != 100 {
		t.Fatalf("RowCount = %d on db1, want 100", got)
	}
	if err := tb.LoadTable("db2", "t", schema, rows(7)); err != nil {
		t.Fatal(err)
	}
	if got := rowCount(); got != 7 {
		t.Errorf("RowCount = %d after re-homing to db2, want its 7 — the old home's statistics survived", got)
	}
}

func TestNodeFailureDuringPrep(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.001, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.Nodes["db1"].Server.Close() // lineitem's home
	if _, err := tb.System.Query(tpch.Queries["Q3"]); err == nil {
		t.Fatal("query succeeded without lineitem's node")
	}
}

func TestConcurrentXDBQueries(t *testing.T) {
	// Per-query object naming (qid) must keep concurrent delegations from
	// colliding on the shared engines.
	tb, err := testbed.NewTPCH("TD1", 0.002, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.System.CacheStats = true
	if _, err := tb.System.Query(tpch.Queries["Q3"]); err != nil {
		t.Fatal(err) // warm calibration
	}

	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	counts := make([]int, workers)
	queries := []string{"Q3", "Q5", "Q10"}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := queries[i%len(queries)]
			res, err := tb.System.Query(tpch.Queries[q])
			if err != nil {
				errs[i] = err
				return
			}
			counts[i] = len(res.Rows)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	// Workers running the same query must agree on cardinality.
	for i := 3; i < workers; i++ {
		if errs[i] == nil && errs[i-3] == nil && counts[i] != counts[i-3] {
			t.Errorf("workers %d/%d disagree: %d vs %d rows", i-3, i, counts[i-3], counts[i])
		}
	}
	// And nothing leaks.
	core.AssertQuiescent(t, tb.System, tbEngines(tb))
}

func TestStatsCacheReducesPrepProbes(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.001, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.System.CacheStats = true

	if _, err := tb.System.Query(tpch.Queries["Q3"]); err != nil {
		t.Fatal(err)
	}
	// Second run: stats come from the cache, so the only probes are the
	// annotation's cost consulting.
	conn, _ := tb.System.Connector("db2")
	conn.ResetProbes()
	res, err := tb.System.Query(tpch.Queries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.ConsultRounds == 0 {
		t.Error("no consulting at all")
	}
	// db2 should see only cost probes now (no stats/schema fetches):
	// with Q3's single cross-database join that is a handful.
	if got := conn.Probes(); got > int64(bd.ConsultRounds) {
		t.Errorf("db2 probes = %d > consult rounds %d — stats cache ineffective", got, bd.ConsultRounds)
	}
}

func TestDescribePlan(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.001, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	plan, _, err := tb.System.Plan(tpch.Queries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	out, err := plan.Describe()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"t1 @", "SELECT", "-->"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe missing %q:\n%s", want, out)
		}
	}
	// Describe must not leave placeholders bound (plan still deployable).
	for _, task := range plan.Tasks {
		for _, e := range task.Inputs {
			if e.Placeholder.Rel != "" {
				t.Errorf("describe left placeholder bound to %q", e.Placeholder.Rel)
			}
		}
	}
	// And the plan still executes afterwards.
	if _, err := tb.System.Query(tpch.Queries["Q3"]); err != nil {
		t.Errorf("query after describe: %v", err)
	}
}

func TestOptionsAccessor(t *testing.T) {
	sys := core.NewSystem("m", "c", nil, core.Options{NoJoinReorder: true})
	if !sys.Options().NoJoinReorder {
		t.Error("options not retained")
	}
}

// TestHungNodeFailsBounded: a node that accepts connections but never
// answers (dead above TCP) must not hang the middleware — with
// RequestTimeout and CleanupTimeout set, the query fails within a bound
// and the sweep still clears the survivors.
func TestHungNodeFailsBounded(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.002, testbed.Config{
		DefaultVendor: engine.VendorTest,
		Options: core.Options{
			RequestTimeout: 300 * time.Millisecond,
			CleanupTimeout: 200 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.System.CacheStats = true
	if _, err := tb.System.Query(tpch.Queries["Q3"]); err != nil {
		t.Fatal(err) // warm calibration and the stats cache
	}

	// Replace db2 with a listener that reads forever and never replies.
	addr := tb.Nodes["db2"].Server.Addr()
	tb.Nodes["db2"].Server.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	start := time.Now()
	_, err = tb.System.Query(tpch.Queries["Q3"])
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query succeeded against a hung node")
	}
	if !strings.Contains(err.Error(), "db2") {
		t.Errorf("error does not attribute the failure to db2: %v", err)
	}
	// The bound is a generous multiple of the per-RPC timeouts: without
	// deadlines this test would hang forever.
	if elapsed > 30*time.Second {
		t.Errorf("query against hung node took %v", elapsed)
	}
	core.AssertQuiescent(t, tb.System, tbEngines(tb), "db2")
}

// TestPooledDialsPerQuery: after a warm query, the middleware's control
// traffic (probes, DDL, drops) must ride pooled connections — per-query
// dials collapse from O(RPCs) to at most O(distinct peers).
func TestPooledDialsPerQuery(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.002, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.System.CacheStats = true
	if _, err := tb.System.Query(tpch.Queries["Q3"]); err != nil {
		t.Fatal(err) // warm: calibration, stats, and the connection pool
	}

	conn, _ := tb.System.Connector("db2")
	before := conn.Transport()
	res, err := tb.System.Query(tpch.Queries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	after := conn.Transport()
	dials := after.Dials - before.Dials
	reuses := after.Reuses - before.Reuses
	rpcs := reuses + dials
	// TD1 has 3 DBMS nodes; a warm pool may add at most a few dials when
	// concurrent delegation briefly exceeds the parked connections.
	if dials > 3 {
		t.Errorf("second query dialed %d times (rpcs=%d) — pool not reused", dials, rpcs)
	}
	if reuses < 5 {
		t.Errorf("second query reused only %d connections over %d RPCs", reuses, rpcs)
	}
	if res.Breakdown.DDLCount == 0 {
		t.Error("no DDL deployed?")
	}
}
