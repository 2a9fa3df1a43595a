package wire

import (
	"testing"
	"time"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// frameShapes are rows shaped like the TPC-H edges that carry most of a
// benchmark cycle's row bytes: Q3's (o_orderkey, o_orderdate,
// o_shippriority), ints and dates only, one per order; Q5's (n_name,
// s_suppkey, o_orderkey), one per lineitem; and Q10's (n_name, c_custkey,
// c_name, c_address, c_phone, c_acctbal, c_comment, o_orderkey), one per
// order.
func frameShapes() []struct {
	name string
	rows []sqltypes.Row
} {
	gen := tpch.NewGenerator(0.005, 42)
	nations, suppliers, customers := gen.GenNation(), gen.GenSupplier(), gen.GenCustomer()
	orders := gen.GenOrders()
	lineitem := gen.GenLineitem(orders)
	nation := func(key sqltypes.Value) sqltypes.Value { return nations[key.I()][1] }
	var q3, q5, q10 []sqltypes.Row
	for _, l := range lineitem {
		s := suppliers[l[2].I()-1]
		q5 = append(q5, sqltypes.Row{nation(s[3]), s[0], l[0]})
	}
	for _, o := range orders {
		q3 = append(q3, sqltypes.Row{o[0], o[4], o[7]})
		c := customers[o[1].I()-1]
		q10 = append(q10, sqltypes.Row{nation(c[3]), c[0], c[1], c[2], c[4], c[5], c[7], o[0]})
	}
	return []struct {
		name string
		rows []sqltypes.Row
	}{{"Q3", q3}, {"Q5", q5}, {"Q10", q10}}
}

// BenchmarkRowFrame frames the rows as the server does and decodes every
// frame as the client does, in the binary encoding, and reports the time
// and the payload bytes per row.
func BenchmarkRowFrame(b *testing.B) {
	for _, shape := range frameShapes() {
		b.Run(shape.name, func(b *testing.B) {
			f := newRowFrame(engine.EncodingBinary)
			var batch sqltypes.Batch
			var bytes int
			emit := func(payload []byte) {
				bytes += len(payload)
				if err := decodeRowBatch(payload, msgRows, &batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				bytes = 0
				streamRows(f, shape.rows, emit)
			}
			rows := float64(b.N * len(shape.rows))
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/rows, "ns/row")
			b.ReportMetric(float64(bytes)/float64(len(shape.rows)), "B/row")
		})
	}
}
