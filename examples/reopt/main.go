// Adaptive mid-query re-optimization: skew a table's statistics — the
// engine reports one row count, its scans return another, exactly what
// stale ANALYZE data does in a real DBMS — and watch the middleware
// catch the misestimate mid-query and re-plan the rest.
//
// With Options.MaxReopts set, every explicit-movement stage doubles as a
// checkpoint: the stage materializes the producer's full output on the
// consumer, so before running the query the middleware forces each
// materialization with a COUNT(*) barrier and compares the actual row
// count against the optimizer's estimate. A divergence beyond
// xdb.DefaultReoptThreshold (4x, either direction) re-runs
// annotation for the unexecuted suffix with the observed cardinality
// substituted — flipping the join placement or movement the stale
// statistics got wrong — while every already-materialized stage is
// adopted by structural signature, never re-shipped. The observation
// also refreshes the cached statistics, so the *next* query plans with
// actuals from the start.
//
// Run with: go run ./examples/reopt
package main

import (
	"fmt"
	"log"

	"xdb"
)

const query = "SELECT u.name, o.id FROM users u, orders o " +
	"WHERE u.id = o.user_id ORDER BY o.id"

func main() {
	cluster, err := xdb.NewCluster([]string{"db1", "db2"}, xdb.ClusterConfig{
		DefaultVendor: xdb.VendorTest,
		TimeScale:     1000,
		Options: xdb.Options{
			ForceMovement: xdb.MoveExplicit, // every edge materializes => observable
			MaxReopts:     2,
			Trace:         true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	load(cluster)

	// --- Accurate statistics: users (100 rows) is the smaller join input,
	// so it moves to orders' home db2. No barrier diverges.
	res, err := cluster.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accurate stats: %d rows, join on %s (reopts=%d)\n",
		len(res.Rows), res.RootNode, res.Breakdown.Reopts)
	fmt.Println(res.Plan)

	// --- Skew: db2 now reports orders at a tenth of its true size, the
	// way a table looks right after a bulk load, before ANALYZE. The
	// optimizer believes 40 < 100 and moves orders to db1 instead.
	fmt.Println("SkewStats(orders, 0.1) — db2 reports 40 rows, scans return 400")
	if err := cluster.SkewStats("orders", 0.1); err != nil {
		log.Fatal(err)
	}
	res, err = cluster.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	bd := res.Breakdown
	fmt.Printf("  caught mid-query: reopts=%d estimate_errors=%d, final join on %s\n",
		bd.Reopts, bd.EstimateErrors, res.RootNode)
	if sp := res.Trace.Find("reopt"); sp != nil {
		fmt.Printf("  barrier saw est=%s actual=%s on %s\n",
			sp.Attr("est"), sp.Attr("actual"), sp.Attr("rel"))
	}
	fmt.Println(res.Plan)

	// --- Cross-query feedback: the observation corrected the cached
	// statistics, so the next query plans with actuals from the start —
	// right placement, zero barriers tripped, zero re-optimizations.
	res, err = cluster.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("next query: join on %s first try (reopts=%d, estimate_errors=%d)\n",
		res.RootNode, res.Breakdown.Reopts, res.Breakdown.EstimateErrors)

	// --- The paper configuration: MaxReopts=0 executes whatever the stale
	// statistics produced. Same rows — robustness changes the plan, never
	// the answer.
	off, err := xdb.NewCluster([]string{"db1", "db2"}, xdb.ClusterConfig{
		DefaultVendor: xdb.VendorTest,
		TimeScale:     1000,
		Options:       xdb.Options{ForceMovement: xdb.MoveExplicit},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer off.Close()
	load(off)
	if err := off.SkewStats("orders", 0.1); err != nil {
		log.Fatal(err)
	}
	resOff, err := off.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MaxReopts=0 under the same skew: join stays on %s (reopts=%d), %d rows — identical answer\n",
		resOff.RootNode, resOff.Breakdown.Reopts, len(resOff.Rows))
}

func load(c *xdb.Cluster) {
	users := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "name", Type: xdb.TypeString},
	)
	var userRows []xdb.Row
	for i := 0; i < 100; i++ {
		userRows = append(userRows, xdb.Row{xdb.NewInt(int64(i)), xdb.NewString(fmt.Sprintf("user-%d", i))})
	}
	if err := c.Load("db1", "users", users, userRows); err != nil {
		log.Fatal(err)
	}
	orders := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "user_id", Type: xdb.TypeInt},
	)
	var orderRows []xdb.Row
	for i := 0; i < 400; i++ {
		orderRows = append(orderRows, xdb.Row{xdb.NewInt(int64(i)), xdb.NewInt(int64(i % 100))})
	}
	if err := c.Load("db2", "orders", orders, orderRows); err != nil {
		log.Fatal(err)
	}
}
