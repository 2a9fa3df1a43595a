package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// planCacheOptions enables the delegation-plan cache on top of the chaos
// harness's tight fault timeouts, with a TTL long enough that nothing
// expires mid-test unless a test shortens it.
func planCacheOptions() Options {
	opts := chaosOptions()
	opts.PlanCacheSize = 8
	opts.DeploymentTTL = time.Hour
	return opts
}

// waitNoXDBObjects polls until every asynchronously dropped short-lived
// relation is gone, then runs the strict assertion.
func waitNoXDBObjects(t *testing.T, cl *chaosCluster) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(leftoverXDB(cl.engines, nil)) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}

// TestPlanCacheWarmRepeatZeroDDL is the tentpole's acceptance check: a
// repeated identical query is served from the plan cache — no planning
// round trips, no DDL RPCs, just one SELECT on the root DBMS — and
// returns the same rows as the cold run.
func TestPlanCacheWarmRepeatZeroDDL(t *testing.T) {
	cl := newChaosCluster(t, planCacheOptions())

	cold, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Breakdown.PlanCacheHit {
		t.Error("cold query reported a plan-cache hit")
	}
	if cold.Breakdown.DDLCount == 0 {
		t.Fatal("cold query deployed no DDL — nothing to cache")
	}

	ddlsBefore := met.ddls.Value()
	warm, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Breakdown.PlanCacheHit {
		t.Fatal("repeat of an identical query missed the plan cache")
	}
	if warm.Breakdown.DDLCount != 0 {
		t.Errorf("warm DDLCount = %d, want 0", warm.Breakdown.DDLCount)
	}
	if warm.Breakdown.ConsultRounds != 0 {
		t.Errorf("warm ConsultRounds = %d, want 0 (planning skipped)", warm.Breakdown.ConsultRounds)
	}
	if got := met.ddls.Value() - ddlsBefore; got != 0 {
		t.Errorf("warm repeat issued %d DDL RPCs, want 0", got)
	}
	if len(warm.Rows) != len(cold.Rows) {
		t.Errorf("warm run returned %d rows, cold returned %d", len(warm.Rows), len(cold.Rows))
	}

	st := cl.sys.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want Hits=1 Misses=1 Entries=1", st)
	}
	if st.ActiveLeases != 0 {
		t.Errorf("ActiveLeases = %d after both queries returned, want 0", st.ActiveLeases)
	}
	if sys := cl.sys.Stats(); sys.PlanCache != st {
		t.Errorf("SystemStats.PlanCache = %+v, want %+v", sys.PlanCache, st)
	}

	// A canonically equivalent rendering (keyword case, whitespace) hits
	// the same entry.
	variant := strings.ToLower(strings.Join(strings.Fields(chaosQuery), " "))
	variant = strings.Replace(variant, "u.u_name", "u.u_name ", 1)
	if res, err := cl.sys.Query(variant); err != nil {
		t.Fatalf("reformatted repeat: %v", err)
	} else if !res.Breakdown.PlanCacheHit {
		t.Error("reformatted-but-equivalent statement missed the plan cache")
	}

	cl.sys.FlushPlans()
	if st := cl.sys.PlanCacheStats(); st.Entries != 0 {
		t.Errorf("Entries = %d after FlushPlans, want 0", st.Entries)
	}
	waitNoXDBObjects(t, cl)
}

// TestPlanCacheTTLExpiry shortens DeploymentTTL so the janitor expires an
// idle warm deployment and drops its objects without any query running.
func TestPlanCacheTTLExpiry(t *testing.T) {
	opts := planCacheOptions()
	opts.DeploymentTTL = 40 * time.Millisecond
	cl := newChaosCluster(t, opts)

	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}
	if st := cl.sys.PlanCacheStats(); st.Entries != 1 {
		t.Fatalf("Entries = %d after cold query, want 1", st.Entries)
	}

	deadline := time.Now().Add(5 * time.Second)
	for cl.sys.PlanCacheStats().Entries > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := cl.sys.PlanCacheStats(); st.Entries != 0 {
		t.Fatalf("entry never expired: %+v", st)
	}
	if st := cl.sys.PlanCacheStats(); st.Evictions == 0 {
		t.Errorf("Evictions = 0 after TTL expiry: %+v", st)
	}
	waitNoXDBObjects(t, cl)
}

// TestPlanCacheBreakerInvalidation opens a node's breaker and verifies
// every cached plan deployed there is invalidated (its objects may not
// have survived the outage), and that after recovery the same statement
// replans from scratch.
func TestPlanCacheBreakerInvalidation(t *testing.T) {
	cl := newChaosCluster(t, planCacheOptions())
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	cl.topo.CrashNode("db2")
	for i := 0; i < 3; i++ {
		if err := probeNode(cl.sys, "db2"); err == nil {
			t.Fatal("cost probe reached a crashed node")
		}
	}
	if st := cl.sys.NodeHealth()["db2"].State; st != BreakerOpen {
		t.Fatalf("db2 breaker = %v, want open", st)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cl.sys.PlanCacheStats().Entries > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := cl.sys.PlanCacheStats()
	if st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("breaker transition did not invalidate: %+v", st)
	}

	cl.topo.ReviveNode("db2")
	deadline = time.Now().Add(5 * time.Second)
	var res *Result
	var err error
	for {
		if res, err = cl.sys.Query(chaosQuery); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query still failing after revival: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if res.Breakdown.PlanCacheHit {
		t.Error("post-recovery query hit the cache — the entry should be gone")
	}
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("post-recovery sweep: remaining=%d err=%v", remaining, err)
	}
	cl.sys.FlushPlans()
	waitNoXDBObjects(t, cl)
}

// TestPlanCacheStatsChangeInvalidation grows a table between queries: once
// another query's metadata refresh has changed its statistics, a cached
// plan that read the table must not be served — its placements were
// functions of the old statistics.
func TestPlanCacheStatsChangeInvalidation(t *testing.T) {
	cl := newChaosCluster(t, planCacheOptions())
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}
	if st := cl.sys.PlanCacheStats(); st.Entries != 1 {
		t.Fatalf("Entries = %d after cold query, want 1", st.Entries)
	}

	// Grow orders on db2 behind the middleware's back, then run a
	// different statement over it so its statistics are refetched.
	if err := cl.engines["db2"].Exec("INSERT INTO orders VALUES (9999, 1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.sys.Query("SELECT o_id FROM orders"); err != nil {
		t.Fatal(err)
	}

	res, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	st := cl.sys.PlanCacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("changed statistics did not invalidate: %+v", st)
	}
	if res.Breakdown.PlanCacheHit {
		t.Error("stale plan served from cache after its statistics changed")
	}

	cl.sys.FlushPlans()
	waitNoXDBObjects(t, cl)
}

// loadInts loads table name with one int column a holding 0..rows-1 on
// the cluster's node.
func loadInts(t *testing.T, cl *chaosCluster, node, name string, rows int) {
	t.Helper()
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
	data := make([]sqltypes.Row, rows)
	for i := range data {
		data[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
	}
	if err := cl.engines[node].LoadTable(name, schema, data); err != nil {
		t.Fatal(err)
	}
}

// countRows runs a COUNT(*) statement and returns its count and whether
// the plan cache served it.
func countRows(t *testing.T, sys *System, sql string) (n int64, hit bool) {
	t.Helper()
	res, err := sys.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res.Rows[0][0].Int(), res.Breakdown.PlanCacheHit
}

// TestPlanCacheRehomedTable re-registers a cached statement's table on
// another node: the cached plan read the table on its old home, so the
// next query must miss and answer from the new one.
func TestPlanCacheRehomedTable(t *testing.T) {
	cl := newCluster(t, planCacheOptions(), "db1", "db2")
	loadInts(t, cl, "db1", "t", 100)
	loadInts(t, cl, "db2", "t", 7)
	if err := cl.sys.RegisterTable("t", "db1"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) FROM t"
	for i, wantHit := range []bool{false, true} {
		if n, hit := countRows(t, cl.sys, q); n != 100 || hit != wantHit {
			t.Fatalf("run %d on db1: count=%d hit=%v, want 100 hit=%v", i, n, hit, wantHit)
		}
	}

	if err := cl.sys.RegisterTable("t", "db2"); err != nil {
		t.Fatal(err)
	}
	if n, hit := countRows(t, cl.sys, q); n != 7 || hit {
		t.Errorf("after re-homing t on db2: count=%d hit=%v, want 7 from a miss", n, hit)
	}
	if st := cl.sys.PlanCacheStats(); st.Invalidations != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want the old plan invalidated and the new one cached", st)
	}
	cl.sys.FlushPlans()
	waitNoXDBObjects(t, cl)
}

// TestPlanCacheUnrelatedStatsKeepsPlan changes the statistics of a table
// on a node a cached plan runs on but never read: the plan stays warm.
func TestPlanCacheUnrelatedStatsKeepsPlan(t *testing.T) {
	cl := newCluster(t, planCacheOptions(), "db1", "db2")
	for _, tbl := range []struct {
		name, node string
		rows       int
	}{{"t", "db1", 100}, {"v", "db2", 50}, {"u", "db1", 20}} {
		loadInts(t, cl, tbl.node, tbl.name, tbl.rows)
		if err := cl.sys.RegisterTable(tbl.name, tbl.node); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT COUNT(*) FROM t, v WHERE t.a = v.a"
	if n, _ := countRows(t, cl.sys, q); n != 50 {
		t.Fatalf("cold join counted %d, want 50", n)
	}
	if n, _ := countRows(t, cl.sys, "SELECT COUNT(*) FROM u"); n != 20 {
		t.Fatalf("u counted %d, want 20", n)
	}
	if err := cl.engines["db1"].Exec("INSERT INTO u VALUES (1000)"); err != nil {
		t.Fatal(err)
	}
	// Another statement over u refetches its statistics.
	if _, err := cl.sys.Query("SELECT a FROM u"); err != nil {
		t.Fatal(err)
	}
	if info, _ := cl.sys.Catalog().Lookup("u"); info.Stats.RowCount != 21 {
		t.Fatalf("u's statistics hold %d rows after the refetch, want 21", info.Stats.RowCount)
	}

	res, err := cl.sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Breakdown.PlanCacheHit || res.Breakdown.DDLCount != 0 {
		t.Errorf("join repeat: hit=%v DDLs=%d, want a hit with 0 DDLs", res.Breakdown.PlanCacheHit, res.Breakdown.DDLCount)
	}
	if st := cl.sys.PlanCacheStats(); st.Invalidations != 0 {
		t.Errorf("Invalidations = %d, want 0: no cached plan read u", st.Invalidations)
	}
	cl.sys.FlushPlans()
	waitNoXDBObjects(t, cl)
}

// TestChaosPlanCacheLeases hammers the cache from concurrent queries while
// a node crashes and recovers mid-burst. The refcounted leases must keep
// every in-flight execution's views alive through invalidation, and once
// the cluster settles no short-lived relation may leak. Named TestChaos*
// so `make chaos` runs it under -race with the fixed fault seed.
func TestChaosPlanCacheLeases(t *testing.T) {
	opts := planCacheOptions()
	opts.PlanCacheSize = 4
	cl := newChaosCluster(t, opts)
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				cl.sys.Query(chaosQuery) // errors expected while db2 is down
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	cl.topo.CrashNode("db2")
	time.Sleep(50 * time.Millisecond)
	cl.topo.ReviveNode("db2")
	wg.Wait()

	// Settle: queries succeed again and the orphan registry drains.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl.sys.Query(chaosQuery); err == nil {
			if _, remaining, serr := cl.sys.SweepOrphans(); serr == nil && remaining == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not settle: orphans=%v", cl.sys.Orphans())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if leases := cl.sys.PlanCacheStats().ActiveLeases; leases != 0 {
		t.Errorf("ActiveLeases = %d after burst drained, want 0", leases)
	}
	cl.sys.FlushPlans()
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("final sweep: remaining=%d err=%v", remaining, err)
	}
	waitNoXDBObjects(t, cl)
}

// execFailCluster is a single-DBMS cluster whose client sits on its own
// site, so a partition between the client and the DBMS fails execution
// while the middleware's control plane (deploy, cleanup) keeps working.
func execFailCluster(t *testing.T, opts Options) (*netsim.Topology, *System) {
	t.Helper()
	topo := netsim.NewTopology()
	topo.AddNode("db1", netsim.Site("s1"))
	topo.AddNode("xdb", netsim.Site("sm"))
	topo.AddNode("client", netsim.Site("sc"))
	topo.SetDefaultLink(netsim.LANLink)
	topo.TimeScale = 1000

	eng := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.TypeInt},
	)
	if err := eng.LoadTable("t", schema, []sqltypes.Row{{sqltypes.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	sys := NewSystem("xdb", "client", topo, opts)
	mw := wire.NewClientWith("xdb", topo, opts.Wire)
	t.Cleanup(func() { sys.Close(); mw.Close() })
	sys.Register(connector.New("db1", srv.Addr(), engine.VendorTest, mw))
	if err := sys.RegisterTable("t", "db1"); err != nil {
		t.Fatal(err)
	}
	return topo, sys
}

// TestExecErrorCarriesCleanupOutcome partitions the client away from the
// root DBMS so execution fails while deployment succeeded. When the
// post-failure cleanup also fails, the returned error must carry both
// outcomes instead of silently dropping the cleanup failure.
func TestExecErrorCarriesCleanupOutcome(t *testing.T) {
	opts := chaosOptions()
	topo, sys := execFailCluster(t, opts)
	if _, err := sys.Query("SELECT a FROM t"); err != nil {
		t.Fatal(err) // warm: calibration, pools
	}

	topo.PartitionSites(netsim.Site("sc"), netsim.Site("s1"))
	_, err := sys.Query("SELECT a FROM t")
	if err == nil {
		t.Fatal("query succeeded with the client partitioned from the root DBMS")
	}
	// Control plane untouched: the cleanup succeeded, so the error is the
	// bare execution failure.
	if strings.Contains(err.Error(), "cleanup") {
		t.Errorf("cleanup succeeded but the error mentions it: %v", err)
	}
	if n := len(sys.Orphans()); n != 0 {
		t.Fatalf("%d orphans parked though cleanup worked", n)
	}

	// Now make every cleanup drop fail too: an already-expired cleanup
	// deadline deterministically fails each drop.
	topo.Heal()
	opts.CleanupTimeout = time.Nanosecond
	topo2, sys2 := execFailCluster(t, opts)
	if _, _, err := sys2.Plan("SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	topo2.PartitionSites(netsim.Site("sc"), netsim.Site("s1"))
	_, err = sys2.Query("SELECT a FROM t")
	if err == nil {
		t.Fatal("query succeeded with the client partitioned from the root DBMS")
	}
	if !strings.Contains(err.Error(), "cleanup after failure") {
		t.Errorf("execution error does not carry the cleanup outcome: %v", err)
	}
	if n := len(sys2.Orphans()); n == 0 {
		t.Error("failed cleanup parked no orphans")
	}
}

// TestTruncateSQLRuneSafe places a multi-byte rune across the truncation
// boundary: the cut must land on a rune start so the result stays valid
// UTF-8.
func TestTruncateSQLRuneSafe(t *testing.T) {
	sql := strings.Repeat("a", 199) + "日本語のテキストが続く" + strings.Repeat("b", 100)
	got := truncateSQL(sql)
	if !utf8.ValidString(got) {
		t.Fatalf("truncateSQL produced invalid UTF-8: %q", got)
	}
	if !strings.HasSuffix(got, "...") {
		t.Errorf("long SQL not marked truncated: %q", got)
	}
	if len(got) > 203 {
		t.Errorf("truncateSQL returned %d bytes, want <= 203", len(got))
	}
	if short := "SELECT 1"; truncateSQL(short) != short {
		t.Errorf("short SQL was modified: %q", truncateSQL(short))
	}
}

// TestDDLCountOnFailedDeploy verifies the issued-DDL counter moves even
// when the deployment fails partway: every statement actually sent is
// counted, not just those of fully successful deployments.
func TestDDLCountOnFailedDeploy(t *testing.T) {
	cl := newChaosCluster(t, chaosOptions())
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}
	plan, _, err := cl.sys.Plan(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}

	cl.topo.CrashNode("db2")
	before := met.ddls.Value()
	dep, err := cl.sys.deploy(context.Background(), plan, 999)
	if err == nil {
		t.Fatal("deploy succeeded with db2 crashed")
	}
	cl.sys.cleanupDeployment(context.Background(), dep) // failed drops park as orphans
	if got := met.ddls.Value() - before; got == 0 {
		t.Error("failed deployment reported zero issued DDLs")
	}

	cl.topo.ReviveNode("db2")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, remaining, err := cl.sys.SweepOrphans(); err == nil && remaining == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("orphans not collected after revival: %v", cl.sys.Orphans())
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}
