package wire

import (
	"testing"

	"xdb/internal/engine"
	"xdb/internal/tpch"
)

// TestStatsReplyBytesPinned pins the stats reply (encodeStats) of every
// TPC-H table at SF 0.002, and holds each reply to decoding back to the
// engine's statistics exactly.
func TestStatsReplyBytesPinned(t *testing.T) {
	want := map[string]int{
		"region": 139, "nation": 179, "supplier": 343, "part": 429,
		"partsupp": 286, "customer": 329, "orders": 394, "lineitem": 472,
	}
	e := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	for name, rows := range tpch.NewGenerator(0.002, 42).GenAll() {
		schema, err := tpch.Schema(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadTable(name, schema, rows); err != nil {
			t.Fatal(err)
		}
	}
	for name, size := range want {
		st, err := e.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		enc := encodeStats(st)
		if len(enc) != size {
			t.Errorf("%s: stats reply of %d B, want %d", name, len(enc), size)
		}
		if got, err := decodeStats(enc); err != nil || !got.Same(st) {
			t.Errorf("%s: decoded %+v (err %v), sent %+v", name, got, err, st)
		}
	}
}

// TestRowFrameBytesPinned pins the payload bytes BenchmarkRowFrame's three
// shapes take in the binary encoding. Q3's ints and dates travel as bare
// varints, Q5's nation names mostly as one-byte references and Q10's
// c_acctbal as a decimal, so a frame that tags a declared column's values
// again, loses a reference or writes a decimal's 8 bytes fails here and
// not only in a benchmark run.
func TestRowFrameBytesPinned(t *testing.T) {
	want := map[string]int{"Q3": 44507, "Q5": 125688, "Q10": 984884} // 5.934, 4.148 and 131.3 B/row
	for _, shape := range frameShapes() {
		bytes := 0
		streamRows(newRowFrame(engine.EncodingBinary), shape.rows, func(payload []byte) { bytes += len(payload) })
		if bytes != want[shape.name] {
			t.Errorf("%s: %d B (%.4g B/row), want %d (%.4g B/row)", shape.name, bytes,
				float64(bytes)/float64(len(shape.rows)), want[shape.name], float64(want[shape.name])/float64(len(shape.rows)))
		}
	}
}
