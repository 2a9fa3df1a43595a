package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/obs"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// The chaos harness: a small cross-database cluster on a simulated
// multi-site topology, driven through netsim's fault injectors. Each
// scenario kills, partitions, or degrades part of the cluster at a
// different point in the query lifecycle and asserts the middleware's
// invariants: queries avoiding the dead part succeed (with DegradedProbes
// accounted), failures are attributed to the faulty node, no short-lived
// relation leaks past recovery plus one sweep, and every wire client
// closes as many connections as it dialed. Run via `make chaos` (fixed
// fault seed, -race).

const chaosQuery = "SELECT u.u_name, o.o_id FROM users u, orders o WHERE u.u_id = o.o_uid"

// chaosCluster is a three-DBMS cluster where every node sits on its own
// site (so partitions and flakes can target single links) and the
// middleware+client share a fourth site.
type chaosCluster struct {
	topo    *netsim.Topology
	sys     *System
	engines map[string]*engine.Engine
	servers map[string]*wire.Server
	clients map[string]*wire.Client // keyed by owning node, plus "mw"
}

// siteOf maps chaos cluster nodes to their sites.
func chaosSite(node string) netsim.Site {
	switch node {
	case "xdb", "client":
		return netsim.Site("sm")
	default:
		return netsim.Site("s" + node[len(node)-1:])
	}
}

func newChaosCluster(t testing.TB, opts Options) *chaosCluster {
	t.Helper()
	cl := newCluster(t, opts, "db1", "db2", "db3")
	sys := cl.sys

	// users on db1, orders on db2; db3 holds no data — it only matters as
	// a placement candidate under FullCandidateSet.
	users := sqltypes.NewSchema(
		sqltypes.Column{Name: "u_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "u_name", Type: sqltypes.TypeString},
	)
	var urows []sqltypes.Row
	for i := 0; i < 100; i++ {
		urows = append(urows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("user-%d", i)),
		})
	}
	if err := cl.engines["db1"].LoadTable("users", users, urows); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable("users", "db1"); err != nil {
		t.Fatal(err)
	}
	orders := sqltypes.NewSchema(
		sqltypes.Column{Name: "o_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "o_uid", Type: sqltypes.TypeInt},
	)
	var orows []sqltypes.Row
	for i := 0; i < 400; i++ {
		orows = append(orows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 100)),
		})
	}
	if err := cl.engines["db2"].LoadTable("orders", orders, orows); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable("orders", "db2"); err != nil {
		t.Fatal(err)
	}
	return cl
}

func (cl *chaosCluster) close() {
	for _, srv := range cl.servers {
		srv.Close()
	}
	if cl.sys != nil {
		cl.sys.Close()
	}
	for _, c := range cl.clients {
		c.Close()
	}
}

// assertTransportBalanced fails when any wire client closed fewer
// connections than it dialed (the pool-leak invariant). Call after close.
func (cl *chaosCluster) assertTransportBalanced(t *testing.T) {
	t.Helper()
	check := func(owner string, st wire.TransportStats) {
		if st.Dials != st.Closes {
			t.Errorf("client %s: dials=%d closes=%d — connection leak", owner, st.Dials, st.Closes)
		}
	}
	for owner, c := range cl.clients {
		check(owner, c.Transport())
	}
	check("sys", cl.sys.clientWire.Transport())
}

// newCluster starts the named DBMS nodes, each on its own site with its own
// FDW client, and a System on the shared middleware site. No tables.
func newCluster(t testing.TB, opts Options, dbNodes ...string) *chaosCluster {
	t.Helper()
	topo := netsim.NewTopology()
	for _, n := range append(append([]string{}, dbNodes...), "xdb", "client") {
		topo.AddNode(n, chaosSite(n))
	}
	topo.SetDefaultLink(netsim.LANLink)
	topo.TimeScale = 1000 // collapse shaping delays: chaos tests probe faults, not timing

	cl := &chaosCluster{
		topo:    topo,
		engines: map[string]*engine.Engine{},
		servers: map[string]*wire.Server{},
		clients: map[string]*wire.Client{},
	}
	t.Cleanup(func() { cl.close() })

	for _, name := range dbNodes {
		eng := engine.New(engine.Config{Name: name, Vendor: engine.VendorTest})
		fdw := wire.NewClientWith(name, topo, opts.Wire)
		cl.clients[name] = fdw
		eng.SetRemote(&wire.FDW{Client: fdw})
		srv, err := wire.NewServer(eng)
		if err != nil {
			t.Fatal(err)
		}
		cl.engines[name] = eng
		cl.servers[name] = srv
	}

	cl.sys = NewSystem("xdb", "client", topo, opts)
	mw := wire.NewClientWith("xdb", topo, opts.Wire)
	cl.clients["mw"] = mw
	for _, name := range dbNodes {
		cl.sys.Register(connector.New(name, cl.servers[name].Addr(), engine.VendorTest, mw))
	}
	return cl
}

// chaosOptions are timeouts tight enough that a dead node cannot stall a
// scenario, with a short breaker backoff so recovery is observable in-test.
func chaosOptions() Options {
	return Options{
		RequestTimeout:   2 * time.Second,
		CleanupTimeout:   time.Second,
		BreakerThreshold: 3,
		BreakerBackoff:   100 * time.Millisecond,
	}
}

// TestChaosKillMidDeployment deploys a plan, crashes a node before
// cleanup, and verifies the sweep retains the dead node's drops as
// orphans, clears the survivors, and collects everything after recovery.
func TestChaosKillMidDeployment(t *testing.T) {
	cl := newChaosCluster(t, chaosOptions())
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err) // warm: calibration, pool
	}

	plan, _, err := cl.sys.Plan(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cl.sys.deploy(context.Background(), plan, 777)
	if err != nil {
		t.Fatal(err)
	}

	cl.topo.CrashNode("db2")
	cerr := cl.sys.cleanupDeployment(context.Background(), dep)
	if cerr == nil {
		t.Fatal("cleanup reported success with db2 crashed")
	}
	if !strings.Contains(cerr.Error(), "db2") {
		t.Errorf("cleanup error does not attribute db2: %v", cerr)
	}
	orphans := cl.sys.Orphans()
	if len(orphans) == 0 {
		t.Fatal("failed drops were not parked as orphans")
	}
	for _, o := range orphans {
		if o.Node != "db2" {
			t.Errorf("orphan on healthy node %s: %s", o.Node, o.SQL)
		}
	}
	// Survivors must already be clean; db2 still holds its objects.
	assertQuiescent(t, cl.sys, cl.engines, "db2")

	cl.topo.ReviveNode("db2")
	dropped, remaining, err := cl.sys.SweepOrphans()
	if err != nil {
		t.Fatalf("sweep after revival: %v", err)
	}
	if dropped == 0 || remaining != 0 {
		t.Errorf("sweep dropped=%d remaining=%d, want all collected", dropped, remaining)
	}
	if n := len(cl.sys.Orphans()); n != 0 {
		t.Errorf("%d orphans still registered after full sweep", n)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}

// TestChaosKillMidQuery crashes a node between queries: the next query
// must fail attributed to the dead node without leaking objects on the
// survivors, and after revival (plus breaker backoff) queries succeed
// again and a sweep leaves the cluster clean.
func TestChaosKillMidQuery(t *testing.T) {
	cl := newChaosCluster(t, chaosOptions())
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	cl.topo.CrashNode("db2")
	if _, err := cl.sys.Query(chaosQuery); err == nil {
		t.Fatal("query succeeded with orders' home crashed")
	}
	assertQuiescent(t, cl.sys, cl.engines, "db2")

	cl.topo.ReviveNode("db2")
	deadline := time.Now().Add(5 * time.Second)
	var qerr error
	for {
		if _, qerr = cl.sys.Query(chaosQuery); qerr == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query still failing after revival: %v", qerr)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("post-recovery sweep: remaining=%d err=%v", remaining, err)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}

// TestChaosPartitionDuringPlanning partitions a placement candidate away
// from the middleware: once its breaker opens, planning must exclude it
// and queries succeed with DegradedProbes accounted; healing the
// partition restores fully-consulted planning.
func TestChaosPartitionDuringPlanning(t *testing.T) {
	opts := chaosOptions()
	opts.FullCandidateSet = true // db3 becomes a placement candidate
	cl := newChaosCluster(t, opts)
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	cl.topo.PartitionSites(chaosSite("db3"), chaosSite("xdb"))
	// Trip db3's breaker: three failed probes reach the threshold.
	for i := 0; i < 3; i++ {
		if err := probeNode(cl.sys, "db3"); err == nil {
			t.Fatal("cost probe crossed a partitioned link")
		}
	}
	if st := cl.sys.NodeHealth()["db3"].State; st != BreakerOpen {
		t.Fatalf("db3 breaker = %v after %d failures, want open", st, 3)
	}

	res, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatalf("query failed despite db3 being irrelevant to its data: %v", err)
	}
	if res.Breakdown.DegradedProbes == 0 {
		t.Error("DegradedProbes = 0 — degraded planning not recorded")
	}
	for _, task := range res.Plan.Tasks {
		if task.Node == "db3" {
			t.Error("plan placed a task on the partitioned node")
		}
	}

	cl.topo.Heal()
	time.Sleep(opts.BreakerBackoff + 50*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err = cl.sys.Query(chaosQuery)
		if err == nil && res.Breakdown.DegradedProbes == 0 {
			break // fully-consulted planning restored
		}
		if time.Now().After(deadline) {
			t.Fatalf("planning still degraded after heal: err=%v probes=%d",
				err, res.Breakdown.DegradedProbes)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := cl.sys.NodeHealth()["db3"].State; st != BreakerClosed {
		t.Errorf("db3 breaker = %v after recovery, want closed", st)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}

// TestChaosFlakyLink runs a query burst over a lossy middleware link
// (fixed fault seed), then clears the flake and verifies the system
// settles clean: queries succeed, a sweep collects every orphan the burst
// left behind, no engine holds xdb objects, and no client leaks
// connections.
func TestChaosFlakyLink(t *testing.T) {
	cl := newChaosCluster(t, chaosOptions())
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	cl.topo.SetFaultSeed(20240806)
	cl.topo.SetFlake(chaosSite("xdb"), chaosSite("db2"), netsim.Flake{DropRate: 0.05})
	var ok, failed int
	for i := 0; i < 8; i++ {
		if _, err := cl.sys.Query(chaosQuery); err != nil {
			failed++
		} else {
			ok++
		}
		// A flake-opened breaker fails fast; give it a chance to half-open
		// so later iterations exercise the link again.
		time.Sleep(25 * time.Millisecond)
	}
	t.Logf("flaky burst: %d ok, %d failed, %d orphans parked", ok, failed, len(cl.sys.Orphans()))

	cl.topo.SetFlake(chaosSite("xdb"), chaosSite("db2"), netsim.Flake{}) // heal the link
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl.sys.Query(chaosQuery); err == nil {
			if _, remaining, serr := cl.sys.SweepOrphans(); serr == nil && remaining == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not settle after flake cleared: orphans=%v", cl.sys.Orphans())
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertQuiescent(t, cl.sys, cl.engines)

	cl.close()
	cl.assertTransportBalanced(t)
}

// TestChaosPartitionMidStream severs the client<->root link while the
// result stream is draining: rows are already flowing when the partition
// lands. The query must fail with the typed transport fault attributed to
// the root DBMS, the root's breaker must be fed exactly once, the trace
// must close every span, cleanup must still run (the middleware's own
// link to the root is intact), and no connection may leak.
func TestChaosPartitionMidStream(t *testing.T) {
	// The client sits on its own site here, so the partition cuts only
	// the execution stream, not the middleware's control plane.
	topo := netsim.NewTopology()
	topo.AddNode("db1", netsim.Site("s1"))
	topo.AddNode("xdb", netsim.Site("sm"))
	topo.AddNode("client", netsim.Site("sc"))
	topo.SetDefaultLink(netsim.LANLink)
	topo.TimeScale = 1000

	opts := chaosOptions()
	eng := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	fdw := wire.NewClientWith("db1", topo, opts.Wire)
	defer fdw.Close()
	eng.SetRemote(&wire.FDW{Client: fdw})
	srv, err := wire.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sys := NewSystem("xdb", "client", topo, opts)
	defer sys.Close()
	mw := wire.NewClientWith("xdb", topo, opts.Wire)
	defer mw.Close()
	sys.Register(connector.New("db1", srv.Addr(), engine.VendorTest, mw))

	// Enough rows for many row-batch frames, so the stream is genuinely
	// mid-drain when the partition lands.
	users := sqltypes.NewSchema(
		sqltypes.Column{Name: "u_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "u_name", Type: sqltypes.TypeString},
	)
	var urows []sqltypes.Row
	for i := 0; i < 20000; i++ {
		urows = append(urows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("user-%d", i)),
		})
	}
	if err := eng.LoadTable("users", users, urows); err != nil {
		t.Fatal(err)
	}
	if err := sys.RegisterTable("users", "db1"); err != nil {
		t.Fatal(err)
	}

	// Pace the stream (wall-clock, per frame) so the watcher below can
	// partition between row batches deterministically.
	topo.SlowNode("db1", 10*time.Millisecond)
	partitioned := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			// A couple of row frames have reached the client; many more
			// are still to come.
			if topo.Ledger().Between("db1", "client") > 64<<10 {
				topo.PartitionSites(netsim.Site("s1"), netsim.Site("sc"))
				partitioned <- true
				return
			}
			time.Sleep(time.Millisecond)
		}
		partitioned <- false
	}()

	before := sys.NodeHealth()["db1"].Failures
	parent := obs.NewSpan("test")
	ctx := obs.ContextWithSpan(context.Background(), parent)
	_, qerr := sys.QueryContext(ctx, "SELECT u.u_id, u.u_name FROM users u")
	if !<-partitioned {
		t.Fatal("stream never reached the partition trigger")
	}
	if qerr == nil {
		t.Fatal("query succeeded across a mid-stream partition")
	}
	var fe *netsim.FaultError
	if !errors.As(qerr, &fe) {
		t.Fatalf("err = %v, want a *netsim.FaultError in the chain", qerr)
	}
	if fe.From != "db1" || fe.To != "client" {
		t.Errorf("fault endpoints = %s -> %s, want db1 -> client", fe.From, fe.To)
	}
	// The execution failure fed db1's breaker exactly once.
	if delta := sys.NodeHealth()["db1"].Failures - before; delta != 1 {
		t.Errorf("db1 failure count delta = %d, want exactly 1", delta)
	}
	// Cleanup crossed the intact xdb<->db1 link: nothing parked, nothing
	// left behind.
	assertQuiescent(t, sys, map[string]*engine.Engine{"db1": eng})
	// Every span closed, including the execute span the fault interrupted.
	parent.FinishAll()
	assertClosed(t, parent)
	if parent.Find("execute") == nil {
		t.Errorf("no execute span in trace:\n%s", parent)
	}

	// No connection leaked: the severed stream's connection was discarded,
	// and discarded counts as closed.
	topo.Heal()
	sys.Close()
	mw.Close()
	fdw.Close()
	for owner, c := range map[string]*wire.Client{"mw": mw, "fdw": fdw, "sys": sys.clientWire} {
		if st := c.Transport(); st.Dials != st.Closes {
			t.Errorf("client %s: dials=%d closes=%d — connection leak", owner, st.Dials, st.Closes)
		}
	}
}
