// Overload: drive a burst of concurrent queries into a cluster whose
// middleware admits only a few at a time, and watch admission control
// queue, shed, and finally drain.
//
// The walkthrough below configures MaxInFlight=3 with a wait queue of 6,
// fires a burst of 32 concurrent QueryContext calls, and classifies the
// outcomes: executed (some after queueing, visible in Breakdown), shed
// with OverloadError when the queue was full or the per-query deadline
// expired while waiting, never a hung goroutine. It then drains the
// system and shows late arrivals rejected with DrainingError.
//
// Run with: go run ./examples/overload
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"xdb"
)

func main() {
	cluster, err := xdb.NewCluster([]string{"db1", "db2"}, xdb.ClusterConfig{
		DefaultVendor: xdb.VendorTest,
		Options: xdb.Options{
			RequestTimeout: 2 * time.Second,
			QueryTimeout:   3 * time.Second, // end-to-end bound per query
			MaxInFlight:    3,               // admit at most 3 concurrent queries
			MaxQueue:       6,               // park at most 6 more; shed the rest
			MaxPerNode:     2,               // at most 2 concurrent RPCs per DBMS
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
	var userRows []xdb.Row
	for i := 0; i < 50; i++ {
		userRows = append(userRows, xdb.Row{xdb.NewInt(int64(i)), xdb.NewString(fmt.Sprintf("user-%d", i))})
	}
	if err := cluster.Load("db1", "users", users, userRows); err != nil {
		log.Fatal(err)
	}
	orders := xdb.NewSchema(
		xdb.Column{Name: "id", Type: xdb.TypeInt},
		xdb.Column{Name: "user_id", Type: xdb.TypeInt},
	)
	var orderRows []xdb.Row
	for i := 0; i < 200; i++ {
		orderRows = append(orderRows, xdb.Row{xdb.NewInt(int64(i)), xdb.NewInt(int64(i % 50))})
	}
	if err := cluster.Load("db2", "orders", orders, orderRows); err != nil {
		log.Fatal(err)
	}

	const query = "SELECT u.name, COUNT(*) AS n FROM users u, orders o WHERE u.id = o.user_id GROUP BY u.name"

	// --- Burst: 32 clients at once against MaxInFlight=3.
	const burst = 32
	fmt.Printf("burst: %d concurrent queries, MaxInFlight=3, MaxQueue=6\n", burst)
	var (
		mu               sync.Mutex
		ok, queued, shed int
		wg               sync.WaitGroup
	)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cluster.QueryContext(context.Background(), query)
			mu.Lock()
			defer mu.Unlock()
			var oe *xdb.OverloadError
			switch {
			case err == nil:
				ok++
				if res.Breakdown.Queued {
					queued++
				}
			case errors.As(err, &oe):
				shed++
			default:
				log.Fatalf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	fmt.Printf("  executed: %d (%d of them waited in the queue), shed with OverloadError: %d\n",
		ok, queued, shed)

	st := cluster.AdmissionStats()
	fmt.Printf("  admission stats: admitted=%d completed=%d shed(overload=%d, deadline=%d) peak in-flight=%d peak queued=%d\n\n",
		st.Admitted, st.Completed, st.ShedOverload, st.ShedQueueTimeout, st.PeakInFlight, st.PeakQueued)

	// --- Deadline propagation: a caller with an already-tight deadline is
	// admitted (the burst is over) but its context bounds every downstream
	// RPC, so the query fails fast instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := cluster.QueryContext(ctx, query); err != nil {
		fmt.Printf("impatient caller: %v\n\n", err)
	}

	// --- Drain: stop admitting, wait out in-flight work, sweep orphans.
	fmt.Println("Drain()")
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := cluster.Drain(dctx); err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.QueryContext(context.Background(), query); err != nil {
		var de *xdb.DrainingError
		fmt.Printf("  late query rejected (DrainingError=%v): %v\n", errors.As(err, &de), err)
	}
	st = cluster.AdmissionStats()
	fmt.Printf("  drained: in-flight=%d queued=%d shed-while-draining=%d\n",
		st.InFlight, st.Queued, st.ShedDraining)
}
