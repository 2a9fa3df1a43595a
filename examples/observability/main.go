// Observability: tracing, metrics, and the slow-query log on one cluster.
//
// The cluster runs with Options.Trace (every query carries a span tree),
// Options.MetricsAddr (a Prometheus text endpoint on a loopback port),
// and Options.SlowQueryThreshold (one structured log record per outlier,
// carrying the query's record — the same Breakdown the Result returns;
// the threshold alone builds no span tree). The example runs a
// cross-database join, prints its flame-style trace and the system
// snapshot, then scrapes its own metrics endpoint.
//
// Run with: go run ./examples/observability
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"xdb"
)

func main() {
	cluster, err := xdb.NewCluster([]string{"db1", "db2"}, xdb.ClusterConfig{
		DefaultVendor: xdb.VendorTest,
		Options: xdb.Options{
			Trace:              true,
			MetricsAddr:        "127.0.0.1:0",
			SlowQueryThreshold: 50 * time.Millisecond,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	users := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "name", Type: xdb.TypeString},
	)
	userRows := []xdb.Row{
		{xdb.NewInt(1), xdb.NewString("ada")},
		{xdb.NewInt(2), xdb.NewString("grace")},
	}
	if err := cluster.Load("db1", "users", users, userRows); err != nil {
		log.Fatal(err)
	}
	orders := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "user_id", Type: xdb.TypeInt},
	)
	var orderRows []xdb.Row
	for i := 0; i < 50; i++ {
		orderRows = append(orderRows, xdb.Row{
			xdb.NewInt(int64(i)), xdb.NewInt(int64(1 + i%2)),
		})
	}
	if err := cluster.Load("db2", "orders", orders, orderRows); err != nil {
		log.Fatal(err)
	}

	res, err := cluster.Query(
		"SELECT u.name, COUNT(*) AS n FROM users u, orders o WHERE u.id = o.user_id GROUP BY u.name")
	if err != nil {
		log.Fatal(err)
	}

	// 1. The per-query trace: one span per lifecycle phase, one per
	// consultation probe, one per deployed DDL.
	fmt.Println("=== trace ===")
	fmt.Print(res.Trace.String())

	// 2. The system snapshot: admission, node health, transport, orphans.
	st := cluster.Stats()
	fmt.Println("=== stats ===")
	fmt.Printf("admission: admitted=%d completed=%d in_flight=%d\n",
		st.Admission.Admitted, st.Admission.Completed, st.Admission.InFlight)
	for node, h := range st.Nodes {
		fmt.Printf("node %s: state=%s ok=%d fail=%d\n", node, h.State, h.Successes, h.Failures)
	}
	fmt.Printf("transport: %s\n", st.Transport)
	fmt.Printf("orphans pending: %d\n", len(st.Orphans))

	// 3. The metrics endpoint, as a scraper would see it.
	resp, err := http.Get("http://" + cluster.MetricsAddr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== metrics (excerpt) ===")
	for _, line := range strings.Split(string(body), "\n") {
		for _, name := range []string{"xdb_queries_total", "xdb_ddl_deployed_total", "xdb_wire_dials_total"} {
			if strings.HasPrefix(line, name) {
				fmt.Println(line)
			}
		}
	}
}
