package core

import (
	"strings"
	"testing"

	"xdb/internal/obs"
	"xdb/internal/sqlparser"
	"xdb/internal/tpch"
	"xdb/internal/wire"
)

// newTPCHCluster is a four-DBMS cluster holding TPC-H under distribution
// TD1, with no shaping to speak of.
func newTPCHCluster(t *testing.T, opts Options) *chaosCluster {
	t.Helper()
	cl := newCluster(t, opts, "db1", "db2", "db3", "db4")
	data := tpch.NewGenerator(0.002, 42).GenAll()
	for _, table := range tpch.TableNames {
		schema, err := tpch.Schema(table)
		if err != nil {
			t.Fatal(err)
		}
		node := tpch.Distributions["TD1"][table]
		if err := cl.engines[node].LoadTable(table, schema, data[table]); err != nil {
			t.Fatal(err)
		}
		if err := cl.sys.RegisterTable(table, node); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func requests(c *wire.Client) int64 {
	st := c.Transport()
	return st.Dials + st.Reuses
}

// TestColdQueryRoundTripBudget counts every request a cold Q8 makes and
// holds each phase to one round trip per node: a table's metadata is its
// statistics plus, the first time it is seen, its schema; a Rule-4
// decision asks each candidate at most once; delegation
// is one script per node and so is cleanup, and the engines ask each other
// for rows only — never for statistics. The counts are exact (the ledger
// sees one frame per request), so a round trip added anywhere fails here
// however noisy the box. Before the control plane was batched this query
// made 77 middleware requests and its engines 24 of each other (18 of them
// for statistics); now 31 and 6.
func TestColdQueryRoundTripBudget(t *testing.T) {
	cl := newTPCHCluster(t, Options{Trace: true})
	if _, err := cl.sys.Query(tpch.Queries["Q3"]); err != nil {
		t.Fatal(err) // calibration and the pools; everything else is per query
	}
	dbs := []string{"db1", "db2", "db3", "db4"}
	led := cl.topo.Ledger()
	sent := func() (toNode map[string]int64, mw, engines int64) {
		toNode = map[string]int64{}
		for _, n := range dbs {
			toNode[n] = led.FramesBetween("xdb", n)
			engines += requests(cl.clients[n])
		}
		return toNode, requests(cl.clients["mw"]), engines
	}
	// What the query owes each node: for its metadata, from the catalog as
	// the query finds it ...
	want := map[string]int64{}
	sel, err := sqlparser.ParseSelect(tpch.Queries["Q8"])
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ref := range sel.From {
		name := strings.ToLower(ref.Name)
		if seen[name] {
			continue
		}
		seen[name] = true
		info, _ := cl.sys.Catalog().Lookup(name)
		want[info.Node]++ // statistics
		if info.Schema == nil {
			want[info.Node]++
		}
	}

	nodeBefore, mwBefore, engBefore := sent()
	res, err := cl.sys.Query(tpch.Queries["Q8"])
	if err != nil {
		t.Fatal(err)
	}
	nodeAfter, mwAfter, engAfter := sent()
	if res.CleanupErr != nil || len(cl.sys.Orphans()) != 0 {
		t.Fatalf("cleanup: %v, %d orphans", res.CleanupErr, len(cl.sys.Orphans()))
	}

	// ... and for the rest from its trace and its plan.
	decisions, asked := 0, map[string]bool{}
	res.Trace.Walk(func(_ int, sp *obs.Span) {
		switch {
		case sp.Name() == "probe" && sp.Attr("outcome") == "consulted":
			asked[sp.Attr("node")] = true
		case sp.Name() == "place":
			decisions++
			for n := range asked {
				want[n]++ // one consultation per candidate the decision asked
			}
			asked = map[string]bool{}
		}
	})
	for _, task := range res.Plan.Tasks {
		if !seen["task@"+task.Node] {
			seen["task@"+task.Node] = true
			want[task.Node] += 2 // one deploy script, one drop script
		}
	}

	var total int64
	for _, n := range dbs {
		got := nodeAfter[n] - nodeBefore[n]
		total += got
		if got != want[n] {
			t.Errorf("%s served %d middleware requests, want %d", n, got, want[n])
		}
	}
	if got := mwAfter - mwBefore; got != total {
		t.Errorf("the middleware's client counts %d requests, the ledger %d", got, total)
	}
	if decisions < 3 || res.Breakdown.ConsultRounds <= 2*decisions {
		t.Errorf("%d Rule-4 decisions, %d probes: the query does not exercise consultation batching", decisions, res.Breakdown.ConsultRounds)
	}
	if total > 35 {
		t.Errorf("%d middleware requests for a cold Q8, budget 35", total)
	}
	t.Logf("cold Q8: %d middleware requests (%d decisions, %d probes, %d DDLs); per node %v", total, decisions, res.Breakdown.ConsultRounds, res.Breakdown.DDLCount, want)

	// Engine to engine: one row fetch per dataflow edge and nothing else —
	// in particular no statistics request at plan time.
	if got, edges := engAfter-engBefore, int64(len(res.Plan.Edges)); got != edges {
		t.Errorf("the engines made %d requests of each other for %d dataflow edges", got, edges)
	}
}
