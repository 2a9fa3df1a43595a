package wire

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

func newServedEngine(t *testing.T, name string, vendor engine.Vendor) (*engine.Engine, *Server) {
	t.Helper()
	e := engine.New(engine.Config{Name: name, Vendor: vendor})
	s, err := NewServer(e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return e, s
}

// one sends a request as a batch of one item — the shape every single
// control-plane exchange takes — and returns the item's reply.
func one(c *Client, ctx context.Context, addr, node string, add func(*Batch)) (Reply, error) {
	var b Batch
	add(&b)
	replies, err := c.Do(ctx, addr, node, &b)
	if err != nil {
		return Reply{}, err
	}
	return replies[0], nil
}

func execOne(c *Client, ctx context.Context, addr, node, sql string) error {
	r, err := one(c, ctx, addr, node, func(b *Batch) { b.Exec(sql) })
	if err != nil {
		return err
	}
	return r.Err()
}

func statsOne(c *Client, ctx context.Context, addr, node, table string) (*engine.TableStats, error) {
	r, err := one(c, ctx, addr, node, func(b *Batch) { b.Stats(table) })
	if err != nil {
		return nil, err
	}
	return r.Stats()
}

func schemaOne(c *Client, ctx context.Context, addr, node, table string) (*sqltypes.Schema, error) {
	r, err := one(c, ctx, addr, node, func(b *Batch) { b.TableSchema(table) })
	if err != nil {
		return nil, err
	}
	return r.TableSchema()
}

func explainOne(c *Client, ctx context.Context, addr, node, sql string) (*engine.ExplainInfo, error) {
	r, err := one(c, ctx, addr, node, func(b *Batch) { b.Explain(sql) })
	if err != nil {
		return nil, err
	}
	return r.Explain()
}

func sampleOne(c *Client, ctx context.Context, addr, node, table, alias, filter string, limit int64) (*engine.SampleResult, error) {
	r, err := one(c, ctx, addr, node, func(b *Batch) { b.Sample(table, alias, filter, limit) })
	if err != nil {
		return nil, err
	}
	return r.Sample()
}

func loadNumbers(t *testing.T, e *engine.Engine, table string, n int) {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "val", Type: sqltypes.TypeString},
	)
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("v%d", i))}
	}
	if err := e.LoadTable(table, schema, rows); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 5000)
	c := NewClient("client", netsim.Unshaped("client", "db1"))
	res, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT id FROM t WHERE id < 2500")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2500 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Schema.Columns[0].Name != "id" {
		t.Fatalf("schema = %v", res.Schema)
	}
}

func TestQueryStreamingBatches(t *testing.T) {
	// 50k rows must arrive in multiple batches; the iterator must stream
	// them all.
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 50000)
	c := NewClient("client", nil)
	schema, it, err := c.Query(context.Background(), s.Addr(), "db1", "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 2 {
		t.Fatalf("schema = %v", schema)
	}
	rows, err := engine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50000 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestExecAndErrors(t *testing.T) {
	_, s := newServedEngine(t, "db1", engine.VendorTest)
	c := NewClient("client", nil)
	if err := execOne(c, context.Background(), s.Addr(), "db1", "CREATE TABLE x (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := execOne(c, context.Background(), s.Addr(), "db1", "INSERT INTO x VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT COUNT(*) FROM x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("%v", res.Rows)
	}
	// Remote errors surface with the node name.
	if err := execOne(c, context.Background(), s.Addr(), "db1", "DROP TABLE nosuch"); err == nil || !strings.Contains(err.Error(), "db1") {
		t.Errorf("err = %v", err)
	}
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT * FROM nosuch"); err == nil {
		t.Error("query of missing table succeeded remotely")
	}
	// Parse errors too.
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELEC 1"); err == nil {
		t.Error("bad SQL succeeded remotely")
	}
}

func TestExplainAndStatsRPC(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorPostgres)
	loadNumbers(t, e, "t", 1000)
	c := NewClient("client", nil)
	info, err := explainOne(c, context.Background(), s.Addr(), "db1", "SELECT * FROM t WHERE id > 10")
	if err != nil {
		t.Fatal(err)
	}
	if info.Cost <= 0 || info.Rows <= 0 || info.Text == "" {
		t.Fatalf("%+v", info)
	}
	st, err := statsOne(c, context.Background(), s.Addr(), "db1", "t")
	if err != nil {
		t.Fatal(err)
	}
	if st.RowCount != 1000 || len(st.Columns) != 2 {
		t.Fatalf("%+v", st)
	}
	if st.Columns[0].Name != "id" || st.Columns[0].Distinct != 1000 {
		t.Fatalf("col stats: %+v", st.Columns[0])
	}
	if st.Columns[0].Min.Int() != 0 || st.Columns[0].Max.Int() != 999 {
		t.Fatalf("min/max: %+v", st.Columns[0])
	}
}

func TestSampleRPC(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 100)
	c := NewClient("client", nil)
	// Truncated probe: bounded scan, lower-bound counts, no exhaustion.
	res, err := sampleOne(c, context.Background(), s.Addr(), "db1", "t", "x", "x.id < 500", 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 40 || res.Matched != 40 || res.Exhausted {
		t.Fatalf("truncated probe = %+v, want scanned 40, matched 40, not exhausted", res)
	}
	// Exhausted probe: the stats sketch round-trips exactly.
	res, err = sampleOne(c, context.Background(), s.Addr(), "db1", "t", "x", "x.id < 25", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned != 100 || res.Matched != 25 || !res.Exhausted {
		t.Fatalf("exhausted probe = %+v, want scanned 100, matched 25, exhausted", res)
	}
	if res.Stats == nil || res.Stats.RowCount != 100 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if cs := res.Stats.Column("id"); cs == nil || cs.Distinct != 100 || cs.Min.Int() != 0 || cs.Max.Int() != 99 {
		t.Fatalf("id stats after round trip: %+v", cs)
	}
	// Remote errors surface with the node name, like every other RPC.
	if _, err := sampleOne(c, context.Background(), s.Addr(), "db1", "nosuch", "", "", 10); err == nil || !strings.Contains(err.Error(), "db1") {
		t.Errorf("unknown-table sample error = %v", err)
	}
}

func TestCostRPC(t *testing.T) {
	_, s := newServedEngine(t, "db1", engine.VendorMariaDB)
	c := NewClient("client", nil)
	cost, err := c.Cost(context.Background(), s.Addr(), "db1", engine.CostJoin, 1000, 500, 800)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestTransferAccounting(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 10000)
	topo := netsim.Unshaped("client", "db1")
	c := NewClient("client", topo)
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	sent := topo.Ledger().Between("client", "db1")
	recv := topo.Ledger().Between("db1", "client")
	if sent <= 0 || sent > 200 {
		t.Errorf("request bytes = %d", sent)
	}
	// The response dominates the request: it carries 10k rows of two
	// values, each at least a byte.
	if recv < 2*10000 || recv < 100*sent {
		t.Errorf("response bytes = %d for a %d-byte request, want at least %d and 100 times the request", recv, sent, 2*10000)
	}
}

func TestTextEncodingCostsMoreBytes(t *testing.T) {
	// The same result fetched from a text-protocol vendor must put more
	// bytes on the wire than from a binary-protocol vendor.
	run := func(vendor engine.Vendor) int64 {
		e, s := newServedEngine(t, "dbx", vendor)
		// Numeric-heavy table to emphasize the text overhead.
		schema := sqltypes.NewSchema(
			sqltypes.Column{Name: "a", Type: sqltypes.TypeInt},
			sqltypes.Column{Name: "b", Type: sqltypes.TypeFloat},
		)
		rows := make([]sqltypes.Row, 5000)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i) * 1000003), sqltypes.NewFloat(float64(i) * 1.0001)}
		}
		if err := e.LoadTable("t", schema, rows); err != nil {
			t.Fatal(err)
		}
		topo := netsim.Unshaped("client", "dbx")
		c := NewClient("client", topo)
		res, err := c.QueryAll(context.Background(), s.Addr(), "dbx", "SELECT * FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5000 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		// Values must decode identically regardless of encoding.
		if res.Rows[4999][0].Int() != 4999*1000003 {
			t.Fatalf("decoded value = %v", res.Rows[4999][0])
		}
		return topo.Ledger().Between("dbx", "client")
	}
	binBytes := run(engine.VendorPostgres)
	txtBytes := run(engine.VendorMariaDB)
	if txtBytes <= binBytes {
		t.Errorf("text bytes %d <= binary bytes %d", txtBytes, binBytes)
	}
}

func TestFDWCascade(t *testing.T) {
	// Three engines chained via SQL/MED: db3 reads a foreign table on db2,
	// which reads a foreign table on db1 — the paper's Fig. 8 cascade.
	topo := netsim.Unshaped("db1", "db2", "db3", "client")

	e1, s1 := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e1, "base", 1000)
	e1.SetRemote(&FDW{Client: NewClient("db1", topo)})

	e2, s2 := newServedEngine(t, "db2", engine.VendorTest)
	e2.SetRemote(&FDW{Client: NewClient("db2", topo)})

	e3, s3 := newServedEngine(t, "db3", engine.VendorTest)
	e3.SetRemote(&FDW{Client: NewClient("db3", topo)})

	// db1: a view narrowing base.
	mustExec(t, e1, "CREATE VIEW v1 AS SELECT id FROM base WHERE id < 100")
	// db2: foreign table over db1.v1, and a view on top.
	mustExec(t, e2, fmt.Sprintf("CREATE SERVER db1 FOREIGN DATA WRAPPER xdb OPTIONS (addr '%s', node 'db1')", s1.Addr()))
	mustExec(t, e2, "CREATE FOREIGN TABLE f1 (id BIGINT) SERVER db1 OPTIONS (table_name 'v1')")
	mustExec(t, e2, "CREATE VIEW v2 AS SELECT id FROM f1 WHERE id < 50")
	// db3: foreign table over db2.v2.
	mustExec(t, e3, fmt.Sprintf("CREATE SERVER db2 FOREIGN DATA WRAPPER xdb OPTIONS (addr '%s', node 'db2')", s2.Addr()))
	mustExec(t, e3, "CREATE FOREIGN TABLE f2 (id BIGINT) SERVER db2 OPTIONS (table_name 'v2')")

	c := NewClient("client", topo)
	res, err := c.QueryAll(context.Background(), s3.Addr(), "db3", "SELECT COUNT(*) FROM f2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}
	// The cascade must have moved data db1->db2 and db2->db3, and only the
	// final result client-ward.
	led := topo.Ledger()
	if led.Between("db1", "db2") == 0 {
		t.Error("no db1->db2 transfer")
	}
	if led.Between("db2", "db3") == 0 {
		t.Error("no db2->db3 transfer")
	}
	if led.Between("db1", "db3") != 0 {
		t.Error("unexpected direct db1->db3 transfer")
	}
	toClient := led.Between("db3", "client")
	if toClient <= 0 || toClient > 200 {
		t.Errorf("client received %d bytes, want a tiny final result", toClient)
	}
	// Remote stats resolve through the chain too.
	st, err := e3.Stats("f2")
	if err != nil {
		t.Fatal(err)
	}
	if st.RowCount <= 0 {
		t.Errorf("stats through cascade: %+v", st)
	}
}

func TestExplicitMaterializationViaCTAS(t *testing.T) {
	// CREATE TABLE AS over a foreign table = the paper's explicit data
	// movement: db2 materializes db1's task output locally.
	topo := netsim.Unshaped("db1", "db2", "client")
	e1, s1 := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e1, "base", 500)
	e2, s2 := newServedEngine(t, "db2", engine.VendorTest)
	e2.SetRemote(&FDW{Client: NewClient("db2", topo)})
	mustExec(t, e2, fmt.Sprintf("CREATE SERVER db1 FOREIGN DATA WRAPPER xdb OPTIONS (addr '%s', node 'db1')", s1.Addr()))
	mustExec(t, e2, "CREATE FOREIGN TABLE f (id BIGINT, val VARCHAR) SERVER db1 OPTIONS (table_name 'base')")
	mustExec(t, e2, "CREATE TABLE m AS SELECT * FROM f")

	// After materialization, querying m moves nothing from db1.
	before := topo.Ledger().Between("db1", "db2")
	c := NewClient("client", topo)
	res, err := c.QueryAll(context.Background(), s2.Addr(), "db2", "SELECT COUNT(*) FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 500 {
		t.Fatalf("%v", res.Rows)
	}
	if after := topo.Ledger().Between("db1", "db2"); after != before {
		t.Errorf("query of materialized table moved %d extra bytes from db1", after-before)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 10)
	c := NewClient("client", nil)
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT * FROM t"); err == nil {
		t.Error("query succeeded after server close")
	}
	// Double close is fine.
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 2000)
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			c := NewClient(fmt.Sprintf("client%d", i), nil)
			res, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT COUNT(*) FROM t")
			if err == nil && res.Rows[0][0].Int() != 2000 {
				err = fmt.Errorf("count = %v", res.Rows[0][0])
			}
			errCh <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errCh; err != nil {
			t.Error(err)
		}
	}
}

func mustExec(t *testing.T, e *engine.Engine, sql string) {
	t.Helper()
	if err := e.Exec(sql); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

// TestStreamFrameInvariance pins what SELECT * FROM lineitem LIMIT 10000
// puts on the wire — ledger bytes and frames, request and response — in
// both row encodings. A frame is cut at exactly the row where its payload
// reaches 31 KiB or its row count 1024, whatever the engine's batch
// boundaries are. The binary stream declares every column's type once per
// frame, writes lineitem's prices as decimals and its repeated flags,
// modes and instructions as references; the text stream's rows keep every
// byte of the fixed-width text encoding, so it takes more frames.
func TestStreamFrameInvariance(t *testing.T) {
	gen := tpch.NewGenerator(0.002, 42)
	lineitem := gen.GenLineitem(gen.GenOrders())
	schema, err := tpch.Schema(tpch.Lineitem)
	if err != nil {
		t.Fatal(err)
	}
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	if err := e.LoadTable(tpch.Lineitem, schema, lineitem); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		text          bool
		bytes, frames int64
	}{
		{"binary", false, 653905, 24},
		{"text", true, 1971471, 65},
	} {
		topo := netsim.Unshaped("client", "db1")
		c := NewClient("client", topo)
		_, it, err := c.QueryEnc(context.Background(), s.Addr(), "db1", "SELECT * FROM lineitem LIMIT 10000", tc.text)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := engine.Drain(it)
		if err != nil || len(rows) != 10000 {
			t.Fatalf("%s: %d rows, err %v", tc.name, len(rows), err)
		}
		c.Close()
		led := topo.Ledger()
		if led.Total() != tc.bytes || led.TotalFrames() != tc.frames {
			t.Errorf("%s: %d bytes in %d frames, want %d in %d", tc.name, led.Total(), led.TotalFrames(), tc.bytes, tc.frames)
		}
	}
}
