package engine

import (
	"fmt"
	"testing"

	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// Component microbenchmarks for the engine substrate: scan, filter, hash
// join, and aggregation throughput on the batch executor.

func benchEngine(b *testing.B, rows int) *Engine {
	b.Helper()
	e := New(Config{Name: "bench", Vendor: VendorTest})
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "grp", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "val", Type: sqltypes.TypeFloat},
		sqltypes.Column{Name: "tag", Type: sqltypes.TypeString},
	)
	data := make([]sqltypes.Row, rows)
	for i := range data {
		data[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(i % 100)),
			sqltypes.NewFloat(float64(i) * 0.5),
			sqltypes.NewString(fmt.Sprintf("tag-%d", i%7)),
		}
	}
	if err := e.LoadTable("t", schema, data); err != nil {
		b.Fatal(err)
	}
	dim := sqltypes.NewSchema(
		sqltypes.Column{Name: "gid", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "name", Type: sqltypes.TypeString},
	)
	dimRows := make([]sqltypes.Row, 100)
	for i := range dimRows {
		dimRows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("g%d", i))}
	}
	if err := e.LoadTable("d", dim, dimRows); err != nil {
		b.Fatal(err)
	}
	return e
}

func runQuery(b *testing.B, e *Engine, sql string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryAll(sql)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkEngineScan100k(b *testing.B) {
	e := benchEngine(b, 100_000)
	runQuery(b, e, "SELECT id FROM t")
}

func BenchmarkEngineFilter100k(b *testing.B) {
	e := benchEngine(b, 100_000)
	runQuery(b, e, "SELECT id FROM t WHERE val > 10000 AND grp < 50")
}

func BenchmarkEngineHashJoin100k(b *testing.B) {
	e := benchEngine(b, 100_000)
	runQuery(b, e, "SELECT COUNT(*) FROM t, d WHERE t.grp = d.gid")
}

func BenchmarkEngineAggregate100k(b *testing.B) {
	e := benchEngine(b, 100_000)
	runQuery(b, e, "SELECT grp, COUNT(*), SUM(val), AVG(val) FROM t GROUP BY grp")
}

func BenchmarkEngineSortLimit100k(b *testing.B) {
	e := benchEngine(b, 100_000)
	runQuery(b, e, "SELECT id, val FROM t ORDER BY val DESC LIMIT 10")
}

func BenchmarkEngineExplain(b *testing.B) {
	e := benchEngine(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain("SELECT grp, COUNT(*) FROM t, d WHERE t.grp = d.gid GROUP BY grp"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineProbeSpine runs TestProbeSpineAllocsBoundedByWindow's
// statement over its fixture, a Q5-shaped probe spine of 100 morsels whose
// build side opens late, on GOMAXPROCS exchange workers; -benchmem shows
// what one execution allocates.
func BenchmarkEngineProbeSpine(b *testing.B) {
	e := probeSpineEngine(b, 100)
	b.ReportAllocs()
	runQuery(b, e, probeSpineSQL)
}

// lineitemProbeBuildSQL makes the build side of TPC-H Q5's db1 task under
// TD1: the rows its upstream tasks send there (ph2), made here from the same
// tables in one statement.
const lineitemProbeBuildSQL = `SELECT nation.n_name AS nation_n_name, supplier.s_suppkey AS supplier_s_suppkey, orders.o_orderkey AS orders_o_orderkey
FROM region, nation, supplier, customer, orders
WHERE region.r_name = 'ASIA' AND region.r_regionkey = nation.n_regionkey AND nation.n_nationkey = supplier.s_nationkey
AND supplier.s_nationkey = customer.c_nationkey AND customer.c_custkey = orders.o_custkey
AND orders.o_orderdate >= DATE '1994-01-01' AND orders.o_orderdate < DATE '1995-01-01'`

// lineitemProbeSQL is TPC-H Q5's db1 statement under TD1 (render.golden),
// over a stored ph2.
const lineitemProbeSQL = `SELECT ph2.nation_n_name AS n_name, SUM(lineitem.l_extendedprice * (1 - lineitem.l_discount)) AS revenue
FROM ph2, lineitem WHERE (ph2.orders_o_orderkey = lineitem.l_orderkey AND ph2.supplier_s_suppkey = lineitem.l_suppkey)
GROUP BY ph2.nation_n_name ORDER BY revenue DESC`

// BenchmarkEngineLineitemProbe runs Q5's db1 statement over the SF 0.02
// lineitem the benchmark's workloads hold: every row probes a two-key join
// whose build side has the shape and rows of the one Q5's upstream tasks
// send. It reports nanoseconds per probe row, on GOMAXPROCS exchange
// workers.
func BenchmarkEngineLineitemProbe(b *testing.B) {
	e := New(Config{Name: "bench", Vendor: VendorTest})
	data := tpch.NewGenerator(0.02, 1).GenAll()
	for _, name := range []string{tpch.Region, tpch.Nation, tpch.Supplier, tpch.Customer, tpch.Orders, tpch.Lineitem} {
		schema, err := tpch.Schema(name)
		if err != nil {
			b.Fatal(err)
		}
		if err := e.LoadTable(name, schema, data[name]); err != nil {
			b.Fatal(err)
		}
	}
	build, err := e.QueryAll(lineitemProbeBuildSQL)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.LoadTable("ph2", build.Schema, build.Rows); err != nil {
		b.Fatal(err)
	}
	runQuery(b, e, lineitemProbeSQL)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(data[tpch.Lineitem])), "ns/probe-row")
}
