// Command xdb runs cross-database queries against an in-process TPC-H
// testbed — a quick way to poke at the middleware: show delegation plans,
// execute queries, inspect phase timings and transfer volumes.
//
// Usage:
//
//	xdb [flags] <sql | @queryname>
//
// The query is either literal SQL over the TPC-H global schema or a paper
// query by name (@Q3, @Q5, @Q7, @Q8, @Q9, @Q10).
//
// Flags:
//
//	-td TD1|TD2|TD3   table distribution (default TD1)
//	-sf <f>           TPC-H scale factor (default 0.01)
//	-plan             print the delegation plan without executing
//	-system xdb|garlic|presto|sclera  which system executes (default xdb)
//	-workers <n>      presto worker count (default 4)
//	-trace            print the query's span tree (xdb system only)
//	-metrics <addr>   serve Prometheus metrics on addr (e.g. :9090)
//	-slow <d>         log queries slower than d (e.g. 100ms)
//	-plan-cache <n>   cache up to n delegation plans with their deployed
//	                  views kept warm (0 disables; xdb system only)
//	-deploy-ttl <d>   drop a warm deployment idle longer than d
//	-repeat <n>       run the query n times (shows plan-cache warmup)
//	-max-replans <n>  re-plan around up to n mid-query node faults
//	-mediator-fallback  finish on the middleware when replans are exhausted
//	-max-reopts <n>   re-optimize the suffix around up to n misestimates
//	-sample-limit <n>  probe low-confidence relations with bounded samples
//	                  of up to n rows before placement (0 disables)
//	-inspect          poll /debug/queries while the query runs and print
//	                  the live in-flight snapshots (xdb system only)
//	-explain-analyze  print EXPLAIN ANALYZE after the run: the executed
//	                  plan with est-vs-actual per-edge cardinalities, wire
//	                  volumes, phase timings, and verdicts (xdb system only)
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"xdb"
	"xdb/internal/tpch"
)

func main() {
	td := flag.String("td", "TD1", "table distribution (TD1, TD2, TD3)")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	planOnly := flag.Bool("plan", false, "print the delegation plan without executing")
	system := flag.String("system", "xdb", "executing system: xdb, garlic, presto, sclera")
	workers := flag.Int("workers", 4, "presto worker count")
	bushy := flag.Bool("bushy", false, "allow bushy delegation plans (footnote-5 extension)")
	trace := flag.Bool("trace", false, "print the query's span tree (xdb system only)")
	metricsAddr := flag.String("metrics", "", "serve Prometheus metrics on this address (e.g. :9090)")
	slow := flag.Duration("slow", 0, "log queries slower than this (e.g. 100ms)")
	planCache := flag.Int("plan-cache", 0, "cache up to n delegation plans with deployed views kept warm (0 disables)")
	deployTTL := flag.Duration("deploy-ttl", 0, "drop a warm deployment idle longer than this (default 30s)")
	repeat := flag.Int("repeat", 1, "run the query this many times (shows plan-cache warmup)")
	maxReplans := flag.Int("max-replans", 0, "re-plan around up to n mid-query node faults (0 disables failover)")
	mediatorFallback := flag.Bool("mediator-fallback", false, "finish on the middleware when replans are exhausted")
	maxReopts := flag.Int("max-reopts", 0, "re-optimize the unexecuted suffix around up to n cardinality misestimates (0 disables)")
	sampleLimit := flag.Int("sample-limit", 0, "probe low-confidence relations with bounded samples of up to n rows before placement (0 disables)")
	inspect := flag.Bool("inspect", false, "poll /debug/queries while the query runs and print live snapshots (xdb system only)")
	explainAnalyze := flag.Bool("explain-analyze", false, "print EXPLAIN ANALYZE after the run (xdb system only)")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: xdb [flags] <sql | @Q3>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	sql := strings.Join(flag.Args(), " ")
	if strings.HasPrefix(sql, "@") {
		q, err := tpch.Query(strings.TrimPrefix(sql, "@"))
		if err != nil {
			fatal(err)
		}
		sql = q
	}

	dist, err := tpch.TD(*td)
	if err != nil {
		fatal(err)
	}
	if *inspect && *metricsAddr == "" {
		// The inspector polls the debug endpoint over HTTP, so it needs
		// the metrics listener even when nobody asked for /metrics.
		*metricsAddr = "127.0.0.1:0"
	}
	fmt.Fprintf(os.Stderr, "starting %d DBMS nodes, loading TPC-H sf=%g under %s...\n",
		len(dist.Nodes()), *sf, *td)
	cluster, err := xdb.NewCluster(dist.Nodes(), xdb.ClusterConfig{
		Options: xdb.Options{
			BushyPlans:         *bushy,
			Trace:              *trace,
			MetricsAddr:        *metricsAddr,
			SlowQueryThreshold: *slow,
			PlanCacheSize:      *planCache,
			DeploymentTTL:      *deployTTL,
			MaxReplans:         *maxReplans,
			MediatorFallback:   *mediatorFallback,
			MaxReopts:          *maxReopts,
			SampleLimit:        *sampleLimit,
		},
	})
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()
	if addr := cluster.MetricsAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n", addr)
	}
	if err := cluster.LoadTPCH(*td, *sf); err != nil {
		fatal(err)
	}

	if *planOnly {
		plan, bd, err := cluster.PlanOnly(sql)
		if err != nil {
			fatal(err)
		}
		fmt.Println("delegation plan (per-task SQL):")
		desc, err := plan.Describe()
		if err != nil {
			fatal(err)
		}
		fmt.Print(desc)
		fmt.Printf("\nphases: prep=%v lopt=%v ann=%v (consult rounds: %d)\n",
			bd.Prep, bd.Lopt, bd.Ann, bd.ConsultRounds)
		return
	}

	cluster.ResetTransfers()
	if *inspect {
		stop := make(chan struct{})
		defer close(stop)
		go pollInflight(cluster.MetricsAddr(), stop)
	}
	start := time.Now()
	switch *system {
	case "xdb":
		var res *xdb.Result
		for i := 0; i < *repeat; i++ {
			iterStart := time.Now()
			res, err = cluster.Query(sql)
			if err != nil {
				fatal(err)
			}
			if *repeat > 1 {
				tag := "cold"
				if res.Breakdown.PlanCacheHit {
					tag = "plan-cache hit"
				}
				fmt.Fprintf(os.Stderr, "run %d/%d: %v (%s, %d DDLs)\n",
					i+1, *repeat, time.Since(iterStart).Round(time.Millisecond),
					tag, res.Breakdown.DDLCount)
			}
		}
		total := time.Since(start)
		fmt.Print(xdb.FormatResult(res.Result))
		fmt.Printf("\n%d rows in %v via %s (exec on %s)\n",
			len(res.Rows), total.Round(time.Millisecond), *system, res.RootNode)
		bd := res.Breakdown
		fmt.Printf("phases: prep=%v lopt=%v ann=%v deleg=%v exec=%v (consult rounds: %d, ddls: %d, plan cache hit: %v)\n",
			bd.Prep.Round(time.Millisecond), bd.Lopt.Round(time.Microsecond),
			bd.Ann.Round(time.Millisecond), bd.Deleg.Round(time.Millisecond),
			bd.Exec.Round(time.Millisecond), bd.ConsultRounds, bd.DDLCount, bd.PlanCacheHit)
		if bd.Replans > 0 || bd.MediatorFallback {
			fmt.Printf("failover: replans=%d failed_over=%v mediator_fallback=%v\n",
				bd.Replans, bd.FailedOver, bd.MediatorFallback)
		}
		if bd.Reopts > 0 || bd.EstimateErrors > 0 {
			fmt.Printf("reopt: reopts=%d estimate_errors=%d\n",
				bd.Reopts, bd.EstimateErrors)
		}
		if bd.SampleProbes > 0 {
			fmt.Printf("sampling: probes=%d\n", bd.SampleProbes)
		}
		fmt.Println("delegation plan:")
		fmt.Print(res.Plan)
		if *trace && res.Trace != nil {
			fmt.Println("\ntrace:")
			fmt.Print(res.Trace.String())
		}
		if *explainAnalyze {
			fmt.Println()
			fmt.Print(res.Analyze())
		}
	case "garlic", "presto":
		var m *xdb.MediatorSystem
		if *system == "garlic" {
			m, err = cluster.NewGarlic()
		} else {
			m, err = cluster.NewPresto(*workers)
		}
		if err != nil {
			fatal(err)
		}
		res, st, err := m.Query(sql)
		if err != nil {
			fatal(err)
		}
		total := time.Since(start)
		fmt.Print(xdb.FormatResult(res))
		fmt.Printf("\n%d rows in %v via %s\n", len(res.Rows), total.Round(time.Millisecond), m.Name())
		fmt.Printf("fetch=%v local=%v fragments=%d rows_fetched=%d bytes_fetched=%d\n",
			st.FetchTime.Round(time.Millisecond), st.LocalTime.Round(time.Millisecond),
			st.Fragments, st.RowsFetched, st.BytesFetched)
	case "sclera":
		s, err := cluster.NewSclera()
		if err != nil {
			fatal(err)
		}
		res, st, err := s.Query(sql)
		if err != nil {
			fatal(err)
		}
		total := time.Since(start)
		fmt.Print(xdb.FormatResult(res))
		fmt.Printf("\n%d rows in %v via Sclera (moved %d rows through the coordinator in %d steps)\n",
			len(res.Rows), total.Round(time.Millisecond), st.RowsMoved, st.Steps)
	default:
		fatal(fmt.Errorf("unknown system %q", *system))
	}
	fmt.Printf("total inter-node transfer: %.1f KB\n", float64(cluster.TransferTotal())/1024)
}

// pollInflight polls the middleware's /debug/queries endpoint until stop
// closes, printing each non-empty text snapshot to stderr. Consecutive
// identical snapshots print once — the inspector shows progress, not a
// metronome.
func pollInflight(addr string, stop <-chan struct{}) {
	if addr == "" {
		return
	}
	url := "http://" + addr + "/debug/queries?format=text"
	last := ""
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		resp, err := http.Get(url)
		if err != nil {
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			continue
		}
		snap := string(body)
		if snap == last || strings.HasPrefix(snap, "no queries in flight") {
			continue
		}
		last = snap
		fmt.Fprintf(os.Stderr, "--- in flight ---\n%s", snap)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xdb:", err)
	os.Exit(1)
}
