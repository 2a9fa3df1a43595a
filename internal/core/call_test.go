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
	"xdb/internal/obs"
	"xdb/internal/planner"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// callCluster is one live DBMS ("db1", holding table t) and one wedged one
// ("hung": accepts connections, never answers) behind a System.
func callCluster(t *testing.T, opts Options) (*System, *wire.Client) {
	t.Helper()
	eng := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
	if err := eng.LoadTable("t", schema, []sqltypes.Row{{sqltypes.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(eng)
	if err != nil {
		t.Fatal(err)
	}
	client := wire.NewClient("m", nil)
	sys := NewSystem("m", "c", nil, opts)
	t.Cleanup(func() {
		sys.Close()
		client.Close()
		srv.Close()
	})
	sys.Register(connector.New("db1", srv.Addr(), engine.VendorTest, client))
	sys.Register(connector.New("hung", hungListener(t).Addr().String(), engine.VendorTest, client))
	return sys, client
}

// TestCall drives the one guarded control-plane call through each stage of
// its discipline — gate, budget, deadline, breaker feed, attribution — and
// checks what reached the node (requests) and its breaker (failures).
func TestCall(t *testing.T) {
	stats := func(rctx context.Context, c *connector.Connector) error {
		_, err := c.Stats(rctx, "t")
		return err
	}
	cases := []struct {
		name string
		opts Options
		node string
		// arrange prepares the system and returns the call's context.
		arrange func(t *testing.T, sys *System) context.Context
		fn      func(context.Context, *connector.Connector) error

		check        func(t *testing.T, err error, elapsed time.Duration)
		wantRequests int64 // round trips that reached a node
		wantFailures int64 // failures fed to the node's breaker
	}{
		{
			name: "healthy node: one round trip, success fed",
			node: "db1", fn: stats,
			check: func(t *testing.T, err error, _ time.Duration) {
				if err != nil {
					t.Errorf("err = %v", err)
				}
			},
			wantRequests: 1,
		},
		{
			name: "open breaker: NodeUnavailableError, nothing sent",
			node: "db1", fn: stats,
			arrange: func(t *testing.T, sys *System) context.Context {
				sys.health.tripNode("db1", errors.New("down"))
				return context.Background()
			},
			check: func(t *testing.T, err error, _ time.Duration) {
				var nue *NodeUnavailableError
				if !errors.As(err, &nue) || nue.Node != "db1" {
					t.Errorf("err = %v, want NodeUnavailableError for db1", err)
				}
			},
		},
		{
			name: "exhausted MaxPerNode: waits for the budget, then honours ctx",
			opts: Options{MaxPerNode: 1},
			node: "db1", fn: stats,
			arrange: func(t *testing.T, sys *System) context.Context {
				release, err := sys.nodes.acquire(context.Background(), "db1", 1)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(release)
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
				t.Cleanup(cancel)
				return ctx
			},
			check: func(t *testing.T, err error, elapsed time.Duration) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("err = %v, want DeadlineExceeded", err)
				}
				if elapsed < 30*time.Millisecond { // the clock started a little after the deadline was set
					t.Errorf("returned after %v: did not wait for the budget", elapsed)
				}
				var nfe *nodeFaultError
				if errors.As(err, &nfe) {
					t.Errorf("a budget wait was pinned on node %s", nfe.node)
				}
			},
		},
		{
			name: "RequestTimeout bounds a wedged node and feeds its breaker",
			opts: Options{RequestTimeout: 80 * time.Millisecond},
			node: "hung", fn: stats,
			check: func(t *testing.T, err error, elapsed time.Duration) {
				if !isTimeout(err) {
					t.Errorf("err = %v, want a deadline expiry", err)
				}
				var nfe *nodeFaultError
				if !errors.As(err, &nfe) || nfe.node != "hung" {
					t.Errorf("err = %v, want it pinned on hung", err)
				}
				if elapsed > 2*time.Second {
					t.Errorf("took %v; RequestTimeout must bound the call", elapsed)
				}
			},
			wantRequests: 1,
			wantFailures: 1,
		},
		{
			name: "caller cancels mid-call: a non-signal for the breaker",
			node: "db1",
			arrange: func(t *testing.T, sys *System) context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(20*time.Millisecond, cancel)
				return ctx
			},
			fn: func(rctx context.Context, _ *connector.Connector) error {
				<-rctx.Done() // the RPC's context dies with the caller's
				return fmt.Errorf("wire: request to db1: %w", rctx.Err())
			},
			check: func(t *testing.T, err error, _ time.Duration) {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want Canceled", err)
				}
			},
		},
		{
			name: "dead context: nothing sent, nothing fed",
			opts: Options{RequestTimeout: time.Second},
			node: "db1", fn: stats,
			arrange: func(t *testing.T, sys *System) context.Context {
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				t.Cleanup(cancel)
				return ctx
			},
			check: func(t *testing.T, err error, _ time.Duration) {
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("err = %v, want DeadlineExceeded", err)
				}
			},
		},
		{
			name: "unknown node: NoConnectorError",
			node: "ghost", fn: stats,
			check: func(t *testing.T, err error, _ time.Duration) {
				var nce *NoConnectorError
				if !errors.As(err, &nce) || nce.Node != "ghost" {
					t.Errorf("err = %v, want NoConnectorError for ghost", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, client := callCluster(t, tc.opts)
			ctx := context.Background()
			if tc.arrange != nil {
				ctx = tc.arrange(t, sys)
			}
			before := client.Transport()
			start := time.Now()
			err := sys.call(ctx, tc.node, 1, tc.fn)
			tc.check(t, err, time.Since(start))
			after := client.Transport()
			if got := (after.Dials + after.Reuses) - (before.Dials + before.Reuses); got != tc.wantRequests {
				t.Errorf("%d requests reached a node, want %d", got, tc.wantRequests)
			}
			if got := sys.NodeHealth()[tc.node].Failures; got != tc.wantFailures {
				t.Errorf("breaker was fed %d failures, want %d", got, tc.wantFailures)
			}
		})
	}
}

// TestProbeBatchToWedgedNode: an annotation's consultation of a node is
// one round trip carrying a probe per join; when the node never answers,
// every probe that rode it degrades to the local cost model and counts in
// DegradedProbes, and the breaker hears of one failure, not one per probe.
func TestProbeBatchToWedgedNode(t *testing.T) {
	sys, client := callCluster(t, Options{RequestTimeout: 80 * time.Millisecond})
	var joins []*planner.Join
	for _, sql := range []string{
		"SELECT s.s_id FROM small s, medium m WHERE s.s_id = m.m_sid",
		"SELECT m.m_id FROM medium m, large l WHERE m.m_id = l.l_mid",
		"SELECT s.s_id FROM small s, large l WHERE s.s_id = l.l_mid",
	} {
		_, root := ordered(t, newTestCatalog(), sql, Options{})
		joins = append(joins, root.In.(*planner.Join))
	}
	asksAt := func(node string) []planner.Ask {
		asks := make([]planner.Ask, len(joins))
		for i, j := range joins {
			asks[i] = planner.Ask{Join: j, Node: node}
		}
		return asks
	}
	sites := planner.NewSites(sys.health.healthy, sys.linkFactor, nil)

	a := &planner.Annotation{}
	before := requests(client)
	prices := consult(context.Background(), a, asksAt("hung"), sites, sys.priceJoins, nil, false)
	sent := requests(client) - before
	for _, ask := range asksAt("hung") {
		l, r, out := ask.Est()
		if got, want := prices[ask], engine.JoinPricesOf(planner.LocalCost, l, r, out); got != want {
			t.Errorf("join %v priced %+v, want the local model's %+v", ask.Join.Est(), got, want)
		}
	}
	if a.ConsultRounds != 3 || a.DegradedProbes != 3 || a.CachedProbes != 0 {
		t.Errorf("consulted/degraded/cached = %d/%d/%d, want 3/3/0", a.ConsultRounds, a.DegradedProbes, a.CachedProbes)
	}
	if sent != 1 {
		t.Errorf("%d requests reached the node, want 1", sent)
	}
	if got := sys.NodeHealth()["hung"].Failures; got != 1 {
		t.Errorf("breaker was fed %d failures, want 1", got)
	}

	// The live node answers the same consultation in one round trip too.
	a = &planner.Annotation{}
	before = requests(client)
	consult(context.Background(), a, asksAt("db1"), sites, sys.priceJoins, nil, false)
	if got := requests(client) - before; got != 1 || a.ConsultRounds != 3 || a.DegradedProbes != 0 {
		t.Errorf("live node: %d requests, %d consulted, %d degraded; want 1, 3, 0", got, a.ConsultRounds, a.DegradedProbes)
	}
}

// probeNode sends node one join probe, the way an annotation consults it,
// and returns the probe's outcome.
func probeNode(sys *System, node string) error {
	_, errs := sys.priceJoins(context.Background(), node, []connector.JoinProbe{{Left: 100, Right: 100, Out: 100}})
	return errs[0]
}

// TestNoConnectorEveryEntryPoint: a node no connector is registered for
// yields the same typed error whichever way the middleware reaches for it.
func TestNoConnectorEveryEntryPoint(t *testing.T) {
	sys, _ := callCluster(t, Options{RequestTimeout: 50 * time.Millisecond}) // bounds calibrating hung
	if err := sys.RegisterTable("t", "db1"); err != nil {
		t.Fatal(err)
	}
	plan, _, err := sys.Plan("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	plan.Root.Node = "ghost" // a plan cached before the topology changed
	ctx := context.Background()
	entries := map[string]func() error{
		"probe": func() error {
			return probeNode(sys, "ghost")
		},
		"sample": func() error {
			return sys.sampleNode(ctx, "ghost", []*planner.Scan{{Table: "t", Alias: "t"}}, 10)
		},
		"deploy": func() error {
			_, err := sys.deploy(ctx, plan, nextQID())
			return err
		},
		"execute": func() error {
			_, err := sys.executeDeployment(ctx, nil, &Deployment{Node: "ghost", XDBQuery: "SELECT 1"})
			return err
		},
		"drop": func() error {
			_, err := sys.drop("ghost", []string{"DROP VIEW IF EXISTS xdb1_t1"})
			return err
		},
	}
	for name, entry := range entries {
		var nce *NoConnectorError
		if err := entry(); !errors.As(err, &nce) || nce.Node != "ghost" {
			t.Errorf("%s: err = %v, want NoConnectorError for ghost", name, err)
		}
	}
}

// TestFailedQueryKeepsPhaseTimes: a query that fails in a phase still
// reports the time that phase took — the slow-query record of a failure
// carries what it actually spent.
func TestFailedQueryKeepsPhaseTimes(t *testing.T) {
	sys, _ := callCluster(t, Options{RequestTimeout: 50 * time.Millisecond})
	if err := sys.RegisterTable("t", "hung"); err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("test")
	_, bd, err := sys.PlanContext(obs.ContextWithSpan(context.Background(), root), "SELECT a FROM t")
	if err == nil {
		t.Fatal("planning succeeded against a wedged node")
	}
	if bd.Prep < 50*time.Millisecond {
		t.Errorf("Breakdown.Prep = %v after a metadata fetch that ran into the 50ms RequestTimeout", bd.Prep)
	}
	if sp := root.Find("prep"); sp == nil || sp.Err() == "" || sp.End().IsZero() {
		t.Errorf("prep span not closed with the error:\n%s", root)
	}
}

// TestSerialDelegationOrder: under Options.serial the deploy round runs
// inline too — one script per node, the nodes in sorted order, and inside
// a node the statements in Algorithm 1's depth-first order.
func TestSerialDelegationOrder(t *testing.T) {
	opts := chaosOptions()
	opts.serial = true
	opts.Trace = true
	cl := newChaosCluster(t, opts)
	items := sqltypes.NewSchema(
		sqltypes.Column{Name: "i_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "i_oid", Type: sqltypes.TypeInt},
	)
	var rows []sqltypes.Row
	for i := 0; i < 400; i++ { // as large as orders: the small users ships to the join, not the reverse
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i))})
	}
	if err := cl.engines["db3"].LoadTable("items", items, rows); err != nil {
		t.Fatal(err)
	}
	if err := cl.sys.RegisterTable("items", "db3"); err != nil {
		t.Fatal(err)
	}
	res, err := cl.sys.Query(`SELECT u.u_name, o.o_id FROM users u, orders o, items i
		WHERE u.u_id = o.o_uid AND o.o_id = i.i_oid`)
	if err != nil {
		t.Fatal(err)
	}

	// The expected order, from the plan alone: Algorithm 1's traversal,
	// split by the node each statement lands on.
	perNode := map[string][]string{}
	wide := false
	var walk func(task *planner.Task)
	walk = func(task *planner.Task) {
		wide = wide || len(task.Inputs) > 1
		for _, e := range task.Inputs {
			walk(e.From)
			perNode[task.Node] = append(perNode[task.Node], fmt.Sprintf("xdb%d_ft%d", res.QID, e.From.ID))
		}
		perNode[task.Node] = append(perNode[task.Node], fmt.Sprintf("xdb%d_t%d", res.QID, task.ID))
	}
	walk(res.Plan.Root)
	if !wide || len(perNode) < 2 {
		desc, _ := res.Plan.Describe()
		t.Fatalf("no task with two inputs, or a single node — the plan cannot tell the order:\n%s", desc)
	}
	var want []string
	for _, node := range []string{"db1", "db2", "db3"} {
		want = append(want, perNode[node]...)
	}
	var got []string
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		if sp.Name() == "ddl" && sp.Attr("kind") != "server" {
			got = append(got, sp.Attr("object"))
		}
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("DDL order under serial:\n got %v\nwant %v", got, want)
	}
}

// TestNodeMetadataOutcomePerTable: a node holding two tables of a query
// gets one metadata batch, and each table's outcome is its own. v is a
// view whose base table is dropped after registration, so its schema item
// succeeds and its stats item fails: the query fails with v's error, yet
// t's entry and v's schema are published, and the next query's batch to
// the node carries only what is still missing — v's statistics.
func TestNodeMetadataOutcomePerTable(t *testing.T) {
	cl := newCluster(t, Options{}, "db1")
	cl.sys.CacheStats = true
	eng := cl.engines["db1"]
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
	for _, table := range []string{"t", "base"} {
		if err := eng.LoadTable(table, schema, []sqltypes.Row{{sqltypes.NewInt(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Exec("CREATE VIEW v AS SELECT a FROM base"); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"t", "v"} {
		if err := cl.sys.RegisterTable(table, "db1"); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Exec("DROP TABLE base"); err != nil {
		t.Fatal(err)
	}
	const query = "SELECT t.a FROM t, v WHERE t.a = v.a"
	led := cl.topo.Ledger()
	frames := func() int64 { return led.FramesBetween("xdb", "db1") }
	bytes := func() int64 { return led.Between("xdb", "db1") }

	if _, err := cl.sys.Query(query); err == nil || !strings.Contains(err.Error(), "metadata of v") {
		t.Fatalf("query over a view that cannot report statistics: err = %v, want v's error", err)
	}
	if info, _ := cl.sys.Catalog().Lookup("t"); info.Schema == nil || info.Stats == nil {
		t.Errorf("sibling t not published in full: %+v", info)
	}
	if info, _ := cl.sys.Catalog().Lookup("v"); info.Schema == nil || info.Stats != nil {
		t.Errorf("v = %+v, want its schema published and no statistics", info)
	}

	// What a batch of v's statistics alone puts on the wire.
	conn, _ := cl.sys.Connector("db1")
	var only wire.Batch
	only.Stats("v")
	f0, b0 := frames(), bytes()
	if _, err := conn.Do(context.Background(), &only); err != nil {
		t.Fatal(err)
	}
	wantFrames, wantBytes := frames()-f0, bytes()-b0

	f0, b0 = frames(), bytes()
	if _, err := cl.sys.Query(query); err == nil || !strings.Contains(err.Error(), "metadata of v") {
		t.Fatalf("second query: err = %v, want v's error", err)
	}
	if f, b := frames()-f0, bytes()-b0; f != wantFrames || b != wantBytes {
		t.Errorf("second query sent db1 %d frames of %d bytes, want one batch of v's statistics (%d frames, %d bytes)", f, b, wantFrames, wantBytes)
	}
}
