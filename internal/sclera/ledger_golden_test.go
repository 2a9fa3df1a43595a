package sclera_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sclera"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestLedgerGolden pins what Sclera sends through the netsim transfer
// ledger: the bytes and frames on every edge for each TPC-H query and
// distribution, compared with testdata/ledger.golden. Every view, CTAS,
// CREATE TABLE and INSERT statement crosses an edge, so a statement that
// changes by one byte changes its edge's total. `go test
// ./internal/sclera/ -run TestLedgerGolden -update` rewrites it, only when
// a spelling change is meant.
func TestLedgerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every TPC-H query on three testbeds")
	}
	var w strings.Builder
	for _, tdName := range tpch.TDNames {
		tb, err := testbed.NewTPCH(tdName, 0.002, testbed.Config{DefaultVendor: engine.VendorTest})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tb.Close)
		dist, _ := tpch.TD(tdName)
		for _, qn := range tpch.QueryNames {
			s := sclera.New(sclera.Config{Node: testbed.MiddlewareNode, Topo: tb.Topo, Connectors: tb.Connectors()})
			for table, node := range dist {
				if err := s.RegisterTable(table, node); err != nil {
					t.Fatal(err)
				}
			}
			tb.ResetTransfers()
			if _, _, err := s.Query(tpch.Queries[qn]); err != nil {
				t.Fatalf("%s %s: %v", qn, tdName, err)
			}
			s.Close()
			led := tb.Topo.Ledger()
			bytes, frames := led.Snapshot(), led.FrameSnapshot()
			var edges []string
			for e, n := range bytes {
				edges = append(edges, fmt.Sprintf("    %s->%s %d B %d frames", e.From, e.To, n, frames[e]))
			}
			sort.Strings(edges)
			fmt.Fprintf(&w, "== %s %s: %d B\n%s\n", qn, tdName, led.Total(), strings.Join(edges, "\n"))
		}
	}
	path := filepath.Join("testdata", "ledger.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(w.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update)", err)
	}
	if got := w.String(); got != string(want) {
		t.Errorf("%s differs:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
