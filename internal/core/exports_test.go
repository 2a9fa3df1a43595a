package core

import (
	"fmt"
	"strings"
	"testing"

	"xdb/internal/tpch"
)

// TestExportsPinnedPerEdge pins projection pushdown across task
// boundaries: under TD1, every edge of Q3/Q5/Q8/Q10 carries exactly the
// columns read above it — a join key its producer already consumed and a
// column only a pushed-down filter used stay behind, a pass-through column
// an ancestor reads rides along (Q8's region.r_regionkey, read by t7's
// join with n1) — and the stream each edge moves is exactly that wide.
// Row frames carry no column names and no query id, so the byte counts
// of a cold run repeat exactly.
func TestExportsPinnedPerEdge(t *testing.T) {
	cases := []struct {
		query, edge, cols string
		bytes             int64
	}{
		{"Q3", "t1->t2", "orders.o_orderkey,orders.o_orderdate,orders.o_shippriority", 1417},
		{"Q5", "t1->t2", "nation.n_name,supplier.s_suppkey,supplier.s_nationkey", 48},
		{"Q5", "t2->t3", "nation.n_name,supplier.s_suppkey,orders.o_orderkey", 286},
		{"Q8", "t1->t2", "region.r_regionkey", 14},
		{"Q8", "t2->t3", "region.r_regionkey,part.p_partkey", 25},
		{"Q8", "t3->t7", "region.r_regionkey,lineitem.l_orderkey,lineitem.l_suppkey,lineitem.l_extendedprice,lineitem.l_discount", 1299},
		{"Q8", "t4->t7", "n1.n_nationkey,n1.n_regionkey", 64},
		{"Q8", "t5->t7", "supplier.s_suppkey,supplier.s_nationkey", 54},
		{"Q8", "t6->t7", "n2.n_nationkey,n2.n_name", 241},
		{"Q10", "t1->t2", "nation.n_nationkey,nation.n_name", 241},
		{"Q10", "t2->t3", "nation.n_name,customer.c_custkey,customer.c_name,customer.c_address,customer.c_phone,customer.c_acctbal,customer.c_comment,orders.o_orderkey", 15590},
	}
	cl := newTPCHCluster(t, Options{})
	if _, err := cl.sys.Query(tpch.Queries["Q3"]); err != nil {
		t.Fatal(err) // calibration and the pools
	}
	type edgeGot struct {
		cols  string
		bytes int64
	}
	got := map[string]map[string]edgeGot{}
	for _, qn := range []string{"Q3", "Q5", "Q8", "Q10"} {
		res, err := cl.sys.Query(tpch.Queries[qn])
		if err != nil {
			t.Fatal(err)
		}
		byTask := map[int]int64{}
		for _, f := range res.Flows {
			if f.QID == res.QID {
				byTask[f.Task] = f.Bytes
			}
		}
		got[qn] = map[string]edgeGot{}
		for _, e := range res.Plan.Edges {
			got[qn][fmt.Sprintf("t%d->t%d", e.From.ID, e.To.ID)] = edgeGot{
				cols:  strings.Join(e.Placeholder.Cols, ","),
				bytes: byTask[e.From.ID],
			}
		}
	}
	want := map[string]int{}
	for _, tc := range cases {
		want[tc.query]++
		g, ok := got[tc.query][tc.edge]
		if !ok {
			t.Errorf("%s: no edge %s in the plan", tc.query, tc.edge)
			continue
		}
		if g.cols != tc.cols {
			t.Errorf("%s %s exports\n  %s\nwant\n  %s", tc.query, tc.edge, g.cols, tc.cols)
		}
		if g.bytes != tc.bytes {
			t.Errorf("%s %s streamed %d B, want %d", tc.query, tc.edge, g.bytes, tc.bytes)
		}
	}
	for qn, n := range want {
		if len(got[qn]) != n {
			t.Errorf("%s has %d edges, the table pins %d", qn, len(got[qn]), n)
		}
	}
}
