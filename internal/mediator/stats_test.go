package mediator

import (
	"testing"

	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

// BytesFetched is what the fetches received on the wire: for one Presto
// run (every fragment text-encoded) and one Garlic run (binary frames from
// test-vendor engines) it equals the bytes the transfer ledger records into
// the mediator's node, once the metadata is cached and only the fetches
// move. The text encoding costs Presto more bytes than Garlic's frames.
func TestBytesFetchedCountsArrivedEncoding(t *testing.T) {
	tb, err := testbed.NewTPCH("TD1", 0.003, testbed.Config{DefaultVendor: engine.VendorTest})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	dist, _ := tpch.TD("TD1")
	presto := NewPresto(testbed.MiddlewareNode, tb.Topo, tb.Connectors(), 4)
	garlic := NewGarlic(testbed.MiddlewareNode, tb.Topo, tb.Connectors())
	led := tb.Topo.Ledger()
	fetched := map[*Mediator]int64{}
	for _, m := range []*Mediator{presto, garlic} {
		t.Cleanup(func() { m.Close() })
		for table, node := range dist {
			if err := m.RegisterTable(table, node); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := m.Query(tpch.Queries["Q3"]); err != nil {
			t.Fatal(err) // the catalog's metadata
		}
		led.Reset()
		_, st, err := m.Query(tpch.Queries["Q3"])
		if err != nil {
			t.Fatal(err)
		}
		recv := led.TotalMatching(func(e netsim.Edge) bool { return e.To == testbed.MiddlewareNode })
		if st.BytesFetched != recv || recv == 0 {
			t.Errorf("%s BytesFetched = %d, the ledger records %d B into %s", m.Name(), st.BytesFetched, recv, testbed.MiddlewareNode)
		}
		fetched[m] = st.BytesFetched
	}
	if fetched[presto] <= fetched[garlic] {
		t.Errorf("Presto's text fetches took %d B, Garlic's binary ones %d B", fetched[presto], fetched[garlic])
	}
}
