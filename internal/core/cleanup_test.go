package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/tpch"
	"xdb/internal/wire"
)

// hungListener accepts connections and reads them forever without ever
// answering — a node that is up at the TCP level but dead above it.
func hungListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
	return ln
}

// TestCleanupSweepsPastHungNode: a drop against a hung node must time out
// per CleanupTimeout and the sweep must still drop the survivors' objects.
func TestCleanupSweepsPastHungNode(t *testing.T) {
	live := engine.New(engine.Config{Name: "live", Vendor: engine.VendorTest})
	srv, err := wire.NewServer(live)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hung := hungListener(t)

	sys := NewSystem("m", "c", nil, Options{CleanupTimeout: 150 * time.Millisecond})
	defer sys.Close()
	client := wire.NewClient("m", nil)
	defer client.Close()
	sys.Register(connector.New("live", srv.Addr(), engine.VendorTest, client))
	sys.Register(connector.New("hung", hung.Addr().String(), engine.VendorTest, client))

	if err := live.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := live.Exec("CREATE VIEW xdb1_t1 AS SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := live.Exec("CREATE VIEW xdb1_t2 AS SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}

	// Reverse creation order puts the hung node's drop between the two
	// live drops: both sides of it must still execute.
	dep := &Deployment{cleanup: []cleanupItem{
		{node: "live", sql: "DROP VIEW xdb1_t1"},
		{node: "hung", sql: "DROP VIEW xdb1_x"},
		{node: "live", sql: "DROP VIEW xdb1_t2"},
	}}
	start := time.Now()
	err = sys.cleanupDeployment(context.Background(), dep)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cleanup reported success despite the hung node")
	}
	if !strings.Contains(err.Error(), "hung") {
		t.Errorf("cleanup error does not name the hung node: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cleanup took %v; each drop must be bounded by CleanupTimeout", elapsed)
	}
	// The sweep did not stop at the hung node: the survivor is clean.
	assertQuiescent(t, sys, map[string]*engine.Engine{"live": live}, "hung")
}

// TestCleanupUnboundedWithoutTimeouts: with no timeouts configured,
// cleanupCtx leaves drops unbounded (the paper configuration) — verify the
// context carries no deadline rather than hanging a real sweep.
func TestCleanupUnboundedWithoutTimeouts(t *testing.T) {
	sys := NewSystem("m", "c", nil, Options{})
	defer sys.Close()
	ctx, cancel := sys.cleanupCtx()
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero Options must leave cleanup unbounded")
	}
	// CleanupTimeout falls back to RequestTimeout when unset.
	sys2 := NewSystem("m", "c", nil, Options{RequestTimeout: time.Second})
	defer sys2.Close()
	ctx2, cancel2 := sys2.cleanupCtx()
	defer cancel2()
	if _, ok := ctx2.Deadline(); !ok {
		t.Error("cleanup must inherit RequestTimeout when CleanupTimeout is unset")
	}
}

// TestDeployScriptBooks: what a delegation script's outcome does to the
// deployment's books, statement by statement. The DBMS runs every
// statement of a script, so each one's outcome is its own.
func TestDeployScriptBooks(t *testing.T) {
	script := func(second string) []*deployStmt {
		var stmts []*deployStmt
		for i, sel := range []string{"SELECT u.u_id FROM users u", second, "SELECT v.u_id FROM xdb9_t1 v"} {
			name := fmt.Sprintf("xdb9_t%d", i+1)
			stmts = append(stmts, &deployStmt{
				node: "db1", kind: "view", object: name, weight: 1,
				sql: "CREATE VIEW " + name + " AS " + sel, undo: "DROP VIEW IF EXISTS " + name,
			})
		}
		return stmts
	}
	parked := func(sys *System) []string {
		var out []string
		for _, o := range sys.Orphans() {
			out = append(out, o.Node+": "+o.SQL)
		}
		sort.Strings(out)
		return out
	}

	t.Run("the second statement is refused", func(t *testing.T) {
		cl := newChaosCluster(t, chaosOptions())
		dep := &Deployment{QID: 9}
		err := cl.sys.deployScript(context.Background(), dep, "db1", script("SELECT u.nosuch FROM users u"))
		if err == nil || !strings.Contains(err.Error(), "deploy view xdb9_t2 on db1") {
			t.Fatalf("err = %v, want the second statement's", err)
		}
		// The first and — the script ran on — the third are deployed and
		// counted; only the refused one is parked. Every statement's drop is
		// on the deployment's books.
		if dep.DDLCount != 2 || len(dep.cleanup) != 3 {
			t.Errorf("DDLCount = %d, %d cleanup items; want 2 and 3", dep.DDLCount, len(dep.cleanup))
		}
		if got := parked(cl.sys); len(got) != 1 || got[0] != "db1: DROP VIEW IF EXISTS xdb9_t2" {
			t.Errorf("parked = %v, want only the refused statement's drop", got)
		}
		if got := leftoverXDB(cl.engines, nil); len(got) != 2 {
			t.Errorf("deployed = %v, want xdb9_t1 and xdb9_t3", got)
		}
		// The deployment's own cleanup drops what ran and un-parks the rest.
		if err := cl.sys.cleanupDeployment(context.Background(), dep); err != nil {
			t.Errorf("cleanup: %v", err)
		}
		assertQuiescent(t, cl.sys, cl.engines)
		if h := cl.sys.NodeHealth()["db1"]; h.Failures != 1 {
			t.Errorf("the script fed the breaker %d failures, want 1", h.Failures)
		}
	})

	t.Run("the reply is lost", func(t *testing.T) {
		cl := newChaosCluster(t, chaosOptions())
		if _, err := cl.sys.Query(chaosQuery); err != nil {
			t.Fatal(err) // a pooled connection to db1: the script pays no handshake
		}
		// A coin-flip link and the seed that lets the first frame — the
		// script — through and drops the second, its reply.
		seed := int64(1)
		for ; ; seed++ {
			if r := rand.New(rand.NewSource(seed)); r.Float64() >= 0.5 && r.Float64() < 0.5 {
				break
			}
		}
		cl.topo.SetFaultSeed(seed)
		cl.topo.SetFlake(chaosSite("xdb"), chaosSite("db1"), netsim.Flake{DropRate: 0.5})
		dep := &Deployment{QID: 9}
		err := cl.sys.deployScript(context.Background(), dep, "db1", script("SELECT u.u_name FROM users u"))
		cl.topo.SetFlake(chaosSite("xdb"), chaosSite("db1"), netsim.Flake{})
		var fe *netsim.FaultError
		if !errors.As(err, &fe) || fe.From != "db1" {
			t.Fatalf("err = %v, want the fault on the return path", err)
		}
		// The script ran; the middleware cannot know: nothing is recorded,
		// every statement's drop is parked.
		if got := leftoverXDB(cl.engines, nil); len(got) != 3 {
			t.Fatalf("on db1: %v, want all three views (the request was delivered)", got)
		}
		dep.mu.Lock()
		items, ddls := len(dep.cleanup), dep.DDLCount
		dep.mu.Unlock()
		if items != 0 || ddls != 0 {
			t.Errorf("books after a lost reply: %d cleanup items, DDLCount %d; want none", items, ddls)
		}
		if got := parked(cl.sys); len(got) != 3 {
			t.Errorf("parked = %v, want every statement's drop", got)
		}
		if err := cl.sys.cleanupDeployment(context.Background(), dep); err != nil {
			t.Errorf("cleanup of a deployment with nothing on its books: %v", err)
		}
		dropped, remaining, err := cl.sys.SweepOrphans()
		if dropped != 3 || remaining != 0 || err != nil {
			t.Errorf("sweep: dropped=%d remaining=%d err=%v", dropped, remaining, err)
		}
		assertQuiescent(t, cl.sys, cl.engines)
	})
}

// TestDeployRegistersServerOncePerPair: two edges between the same
// consumer and producer share one SQL/MED server registration — rendered
// once, sent once, counted once — and every statement of a node travels in
// that node's one script.
func TestDeployRegistersServerOncePerPair(t *testing.T) {
	cl := newTPCHCluster(t, chaosOptions())
	// Under TD1 Q8's root task pulls nation twice and supplier from db3.
	plan, _, err := cl.sys.Plan(tpch.Queries["Q8"])
	if err != nil {
		t.Fatal(err)
	}
	twice := false
	for _, task := range plan.Tasks {
		from := map[string]int{}
		for _, e := range task.Inputs {
			from[e.From.Node]++
			twice = twice || from[e.From.Node] > 1
		}
	}
	if !twice {
		desc, _ := plan.Describe()
		t.Fatalf("no task with two inputs from one node:\n%s", desc)
	}
	before := requests(cl.clients["mw"])
	dep, err := cl.sys.deploy(context.Background(), plan, 778)
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]bool{}
	nodes := map[string]bool{}
	for _, task := range plan.Tasks {
		nodes[task.Node] = true
		for _, e := range task.Inputs {
			servers[task.Node+"<-"+e.From.Node] = true
		}
	}
	if want := len(plan.Tasks) + len(plan.Edges) + len(servers); dep.DDLCount != want {
		t.Errorf("DDLCount = %d, want %d: a view per task, a foreign table per edge, a server per node pair", dep.DDLCount, want)
	}
	if got := requests(cl.clients["mw"]) - before; got != int64(len(nodes)) {
		t.Errorf("%d deploy requests for %d nodes", got, len(nodes))
	}
	if err := cl.sys.cleanupDeployment(context.Background(), dep); err != nil {
		t.Error(err)
	}
	assertQuiescent(t, cl.sys, cl.engines)
}
