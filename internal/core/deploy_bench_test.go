package core

import (
	"testing"
	"time"

	"xdb/internal/sqltypes"
)

// benchQuery joins three tables homed on three DBMSes — two Rule-4
// decisions, the consultation-heavy shape of Fig. 15.
const benchQuery = `SELECT u.u_name, o.o_id FROM users u, orders o, items i
	WHERE u.u_id = o.o_uid AND o.o_id = i.i_oid`

// loadItems adds a third table on db3 so the bench plan crosses all three
// DBMSes.
func loadItems(tb testing.TB, cl *chaosCluster) {
	tb.Helper()
	items := sqltypes.NewSchema(
		sqltypes.Column{Name: "i_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "i_oid", Type: sqltypes.TypeInt},
	)
	var rows []sqltypes.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 400)),
		})
	}
	if err := cl.engines["db3"].LoadTable("items", items, rows); err != nil {
		tb.Fatal(err)
	}
	if err := cl.sys.RegisterTable("items", "db3"); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkDeploy measures the full query path — planning, delegation,
// execution, cleanup — on the chaos cluster at real network speed
// (TimeScale=1), isolating what deployment DDL costs a repeated query:
//
//   - drop-per-query:  the paper's lifecycle — every query deploys its
//     short-lived relations and drops them afterwards, even for an
//     identical repeat (consult cache on, so the delta is DDL);
//   - plan-cache-warm: the delegation-plan cache keeps the deployed
//     objects warm under leases — after the first iteration every query
//     is one SELECT on the root DBMS with zero DDL round trips.
//
// Run via `make bench-deploy`; EXPERIMENTS.md records the numbers.
func BenchmarkDeploy(b *testing.B) {
	variants := []struct {
		name string
		tune func(*Options)
	}{
		{"drop-per-query", func(o *Options) { o.ConsultCacheTTL = time.Hour }},
		{"plan-cache-warm", func(o *Options) {
			o.ConsultCacheTTL = time.Hour
			o.PlanCacheSize = 16
			o.DeploymentTTL = time.Hour
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opts := chaosOptions()
			v.tune(&opts)
			cl := newChaosCluster(b, opts)
			cl.topo.TimeScale = 1 // real shaping delays: round trips cost wall time
			loadItems(b, cl)
			cl.sys.CacheStats = true
			if _, err := cl.sys.Query(benchQuery); err != nil {
				b.Fatal(err) // warm: calibration, catalog, pools, caches
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.sys.Query(benchQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
