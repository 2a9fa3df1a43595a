// Mid-query failover: kill or wedge the node executing a delegated query
// and watch the middleware re-plan around it and finish anyway.
//
// The walkthrough steers the join onto db3 — a data-free placement
// candidate behind a fast link — then crashes it. With Options.MaxReplans
// set, the failed attempt trips db3's breaker, planning re-runs with db3
// excluded, the new plan is deployed whole under a fresh query id, and the
// query returns the same rows with Breakdown.Replans counting the recovery. A second
// round wedges db3 instead (SlowNode: alive but stalled), which fails over
// on the request deadline with cause "slow". Finally a cluster with
// replans disabled shows the last-resort path: MediatorFallback ships the
// surviving fragments to the middleware and finishes there.
//
// Run with: go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	"xdb"
)

const query = "SELECT u.name, COUNT(*) AS n FROM users u, orders o " +
	"WHERE u.id = o.user_id GROUP BY u.name ORDER BY u.name"

func main() {
	cluster, err := xdb.NewCluster([]string{"db1", "db2", "db3"}, xdb.ClusterConfig{
		Scenario:      "geo", // every DBMS on its own site
		DefaultVendor: xdb.VendorTest,
		TimeScale:     1000,
		Options: xdb.Options{
			RequestTimeout:   500 * time.Millisecond,
			CleanupTimeout:   time.Second,
			BreakerThreshold: 100, // only failover trips breakers here
			BreakerBackoff:   100 * time.Millisecond,
			FullCandidateSet: true, // consider data-free db3 for placement
			MaxReplans:       2,
			ReplanBackoff:    10 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	load(cluster)

	// The link between the two data homes is dreadful; db3 sits behind
	// fast links. The optimizer places the join there — a node we can
	// kill without losing any base data.
	cluster.SetLink(cluster.SiteOf("db1"), cluster.SiteOf("db2"),
		xdb.LinkSpec{Bandwidth: 16 << 10, Latency: time.Millisecond})

	res, err := cluster.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy: %d rows, executed on %s\n\n", len(res.Rows), res.RootNode)

	// --- Kill the executing node. The deploy hits the corpse, the fault
	// is attributed, db3's breaker trips, and planning re-runs without it.
	fmt.Println("CrashNode(db3)")
	cluster.CrashNode("db3")
	res, err = cluster.Query(query)
	if err != nil {
		log.Fatalf("failover did not save the query: %v", err)
	}
	bd := res.Breakdown
	fmt.Printf("  survived: %d rows on %s (replans=%d failed_over=%v, db3 breaker: %s)\n\n",
		len(res.Rows), res.RootNode, bd.Replans, bd.FailedOver,
		cluster.NodeHealth()["db3"].State)

	// --- Revive. The janitor sweeps whatever the severed attempt left
	// behind once the node answers again.
	fmt.Println("ReviveNode(db3)")
	cluster.ReviveNode("db3")
	time.Sleep(300 * time.Millisecond) // let the breaker half-open
	dropped, remaining, _ := cluster.SweepOrphans()
	fmt.Printf("  janitor: dropped %d orphans (%d remaining)\n\n", dropped, remaining)

	// --- Wedge instead of kill: the process is alive but every frame
	// stalls past the request deadline. Failover classifies this "slow"
	// and routes around it just the same.
	fmt.Println("SlowNode(db3, 1.5s)")
	cluster.SlowNode("db3", 1500*time.Millisecond)
	res, err = cluster.Query(query)
	if err != nil {
		log.Fatalf("failover did not save the query: %v", err)
	}
	fmt.Printf("  survived: %d rows on %s (replans=%d)\n\n",
		len(res.Rows), res.RootNode, res.Breakdown.Replans)
	cluster.SlowNode("db3", 0)

	// --- Last resort: replans disabled, mediator fallback on. The
	// middleware fetches the surviving fragments itself and finishes the
	// query on its embedded engine.
	fmt.Println("MaxReplans=0, MediatorFallback=true, CrashNode(db3)")
	fb, err := xdb.NewCluster([]string{"db1", "db2", "db3"}, xdb.ClusterConfig{
		Scenario:      "geo",
		DefaultVendor: xdb.VendorTest,
		TimeScale:     1000,
		Options: xdb.Options{
			RequestTimeout:   500 * time.Millisecond,
			CleanupTimeout:   time.Second,
			BreakerThreshold: 100,
			BreakerBackoff:   100 * time.Millisecond,
			FullCandidateSet: true,
			MediatorFallback: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fb.Close()
	load(fb)
	fb.SetLink(fb.SiteOf("db1"), fb.SiteOf("db2"),
		xdb.LinkSpec{Bandwidth: 16 << 10, Latency: time.Millisecond})
	if _, err := fb.Query(query); err != nil {
		log.Fatal(err)
	}
	fb.CrashNode("db3")
	res, err = fb.Query(query)
	if err != nil {
		log.Fatalf("mediator fallback did not save the query: %v", err)
	}
	fmt.Printf("  survived: %d rows on %s (mediator_fallback=%v)\n",
		len(res.Rows), res.RootNode, res.Breakdown.MediatorFallback)
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
