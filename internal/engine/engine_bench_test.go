package engine

import (
	"fmt"
	"testing"

	"xdb/internal/sqltypes"
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
