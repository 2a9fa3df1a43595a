package mediator

import (
	"context"
	"testing"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

// Presto fetches every fragment text-encoded, so its BytesFetched is the
// fragments' rows in the text encoding; Garlic over test-vendor engines
// receives them binary-encoded and counts that.
func TestBytesFetchedCountsArrivedEncoding(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.003, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	dist, _ := tpch.TD("TD1")
	presto := NewPresto(testbed.MiddlewareNode, tb.Topo, tb.Connectors(), 4)
	garlic := NewGarlic(testbed.MiddlewareNode, tb.Topo, tb.Connectors())
	for _, m := range []*Mediator{presto, garlic} {
		t.Cleanup(func() { m.Close() })
		for table, node := range dist {
			if err := m.RegisterTable(table, node); err != nil {
				t.Fatal(err)
			}
		}
	}
	q3 := tpch.Queries["Q3"]
	_, pst, err := presto.Query(q3)
	if err != nil {
		t.Fatal(err)
	}
	_, gst, err := garlic.Query(q3)
	if err != nil {
		t.Fatal(err)
	}

	// The rows each fragment ships, fetched on their own.
	sel, err := sqlparser.ParseSelect(q3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(presto.catalog, sel)
	if err != nil {
		t.Fatal(err)
	}
	frags, _ := decompose(a)
	var text, binary int64
	for _, f := range frags {
		res, err := tb.Connectors()[f.node].Query(context.Background(), f.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rows {
			text += int64(sqltypes.TextEncodedSize(r))
			binary += int64(r.EncodedSize())
		}
	}
	if text == binary {
		t.Fatalf("text and binary sizes coincide (%d B): the test cannot tell them apart", text)
	}
	if pst.BytesFetched != text {
		t.Errorf("Presto BytesFetched = %d, want the text-encoded rows' %d B (binary: %d B)", pst.BytesFetched, text, binary)
	}
	if gst.BytesFetched != binary {
		t.Errorf("Garlic BytesFetched = %d, want the binary-encoded rows' %d B", gst.BytesFetched, binary)
	}
}
