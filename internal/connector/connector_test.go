package connector

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

func newConnectedEngine(t *testing.T, vendor engine.Vendor) (*engine.Engine, *Connector) {
	t.Helper()
	e := engine.New(engine.Config{Name: "dbx", Vendor: vendor})
	srv, err := wire.NewServer(e)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	client := wire.NewClient("xdb", netsim.Unshaped("xdb", "dbx"))
	return e, New("dbx", srv.Addr(), vendor, client)
}

func loadSample(t *testing.T, e *engine.Engine) {
	t.Helper()
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "v", Type: sqltypes.TypeFloat},
	)
	rows := make([]sqltypes.Row, 1000)
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 2)}
	}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrationAlignsCostUnits(t *testing.T) {
	// The same canonical operator must cost the same through calibrated
	// connectors of different vendors (footnote 6).
	var costs []float64
	for _, v := range []engine.Vendor{engine.VendorPostgres, engine.VendorHive, engine.VendorMariaDB} {
		_, c := newConnectedEngine(t, v)
		if err := c.Calibrate(context.Background()); err != nil {
			t.Fatal(err)
		}
		got, err := c.CostOperator(context.Background(), engine.CostScan, 5000, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, got)
	}
	for i := 1; i < len(costs); i++ {
		if math.Abs(costs[i]-costs[0]) > 1e-6*costs[0] {
			t.Errorf("calibrated scan costs diverge: %v", costs)
		}
	}
}

// TestCalibrateWhileConsulting: one query's preparation recalibrates a
// recovered node while another query's annotation consults it — the
// factor is read and written with no lock above the connector. Run under
// -race (make race).
func TestCalibrateWhileConsulting(t *testing.T) {
	_, c := newConnectedEngine(t, engine.VendorHive)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := c.Calibrate(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := c.CostOperator(ctx, engine.CostScan, 5000, 0, 0); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if f := c.Calibration(); f <= 0 || f == 1 {
		t.Errorf("Calibration() = %v after calibrating a Hive connector", f)
	}
}

func TestCalibrationPreservesVendorDifferences(t *testing.T) {
	// Calibration aligns the currency, not the economics: a MariaDB join
	// must still be dearer than a PostgreSQL join after calibration.
	_, pg := newConnectedEngine(t, engine.VendorPostgres)
	_, ma := newConnectedEngine(t, engine.VendorMariaDB)
	for _, c := range []*Connector{pg, ma} {
		if err := c.Calibrate(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	pgJoin, err := pg.CostOperator(context.Background(), engine.CostJoin, 1000, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	maJoin, err := ma.CostOperator(context.Background(), engine.CostJoin, 1000, 1000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if maJoin <= pgJoin {
		t.Errorf("calibrated mariadb join (%v) <= postgres (%v)", maJoin, pgJoin)
	}
}

func TestStatsAndSchemaAndExplain(t *testing.T) {
	e, c := newConnectedEngine(t, engine.VendorPostgres)
	loadSample(t, e)
	led := c.Client().Topo.Ledger()
	st, err := c.Stats(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if st.RowCount != 1000 {
		t.Errorf("rows = %d", st.RowCount)
	}
	var b wire.Batch
	b.TableSchema("t")
	replies, err := c.Do(context.Background(), &b)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := replies[0].TableSchema()
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 2 || schema.Columns[1].Type != sqltypes.TypeFloat {
		t.Errorf("schema = %v", schema)
	}
	cost, rows, err := c.Explain(context.Background(), "SELECT * FROM t WHERE id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 || rows <= 0 {
		t.Errorf("explain = %v, %v", cost, rows)
	}
	// Each was one request and one response.
	if out, in := led.FramesBetween("xdb", "dbx"), led.FramesBetween("dbx", "xdb"); out != 3 || in != 3 {
		t.Errorf("frames out/in = %d/%d, want 3/3", out, in)
	}
}

// TestNilContext: a nil context means context.Background on every path a
// connector sends through — the control-plane batch and the result stream.
func TestNilContext(t *testing.T) {
	e, c := newConnectedEngine(t, engine.VendorPostgres)
	loadSample(t, e)
	if err := c.Exec(nil, "CREATE VIEW nilctx AS SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Query(nil, "SELECT COUNT(*) FROM nilctx"); err != nil || res.Rows[0][0].Int() != 1000 {
		t.Fatalf("Query(nil) = %v, %v", res, err)
	}
}

func TestDeployHelpers(t *testing.T) {
	e, c := newConnectedEngine(t, engine.VendorMariaDB)
	loadSample(t, e)
	q, err := sqlparser.ParseSelect("SELECT id FROM t WHERE id < 10")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DeployView(context.Background(), "v1", q); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(context.Background(), "SELECT COUNT(*) FROM v1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("view count = %v", res.Rows[0][0])
	}
	if err := c.Exec(context.Background(), c.Dialect.CreateTableAs("t2", q)); err != nil {
		t.Fatal(err)
	}
	res, err = c.Query(context.Background(), "SELECT COUNT(*) FROM t2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("CTAS count = %v", res.Rows[0][0])
	}
	// Server + foreign table deployment in the vendor dialect (a MariaDB
	// federated table pointing back at the same engine), as one script:
	// every statement runs and reports its own outcome.
	cols := []sqltypes.Column{{Name: "id", Type: sqltypes.TypeInt}}
	errs, err := c.ExecScript(context.Background(), []string{
		c.Dialect.CreateServer("self", c.Addr, "dbx"),
		"DROP TABLE nosuch",
		c.Dialect.CreateForeignTable("ft", cols, "self", "v1", false, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("script outcomes = %v", errs)
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "dbx") {
		t.Errorf("the failing statement's outcome = %v, want the remote's error", errs[1])
	}
	// Querying ft requires the engine's FDW to be configured.
	e.SetRemote(&wire.FDW{Client: wire.NewClient("dbx", netsim.Unshaped("dbx"))})
	res, err = c.Query(context.Background(), "SELECT COUNT(*) FROM ft")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Errorf("foreign count = %v", res.Rows[0][0])
	}
}

// TestCostOperatorsOneRoundTrip: a consultation of several probes is one
// request, and each answer is the calibrated cost CostOperator would give.
func TestCostOperatorsOneRoundTrip(t *testing.T) {
	_, c := newConnectedEngine(t, engine.VendorMariaDB)
	if err := c.Calibrate(context.Background()); err != nil {
		t.Fatal(err)
	}
	probes := []CostProbe{
		{Kind: engine.CostJoinStream, Left: 1000, Right: 200, Out: 500},
		{Kind: engine.CostJoin, Left: 1000, Right: 200, Out: 500},
		{Kind: engine.CostScan, Left: 1000},
	}
	before := c.Transport()
	costs, errs, err := c.CostOperators(context.Background(), probes)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Transport()
	if got := (after.Dials + after.Reuses) - (before.Dials + before.Reuses); got != 1 {
		t.Errorf("%d requests for one consultation, want 1", got)
	}
	for i, p := range probes {
		want, err := c.CostOperator(context.Background(), p.Kind, p.Left, p.Right, p.Out)
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] != nil || costs[i] != want {
			t.Errorf("probe %d = %v, %v; CostOperator says %v", i, costs[i], errs[i], want)
		}
	}
}

// TestPriceJoinsOneRoundTrip: a consultation of several joins is one
// request, and each of a join's prices is the calibrated cost
// CostOperator gives for it.
func TestPriceJoinsOneRoundTrip(t *testing.T) {
	_, c := newConnectedEngine(t, engine.VendorMariaDB)
	if err := c.Calibrate(context.Background()); err != nil {
		t.Fatal(err)
	}
	joins := []JoinProbe{{Left: 1000, Right: 200, Out: 500}, {Left: 30, Right: 7000, Out: 30}}
	before := c.Transport()
	prices, errs, err := c.PriceJoins(context.Background(), joins)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Transport()
	if got := (after.Dials + after.Reuses) - (before.Dials + before.Reuses); got != 1 {
		t.Errorf("%d requests for one consultation, want 1", got)
	}
	cost := func(kind engine.CostKind, l, r, o float64) float64 {
		v, err := c.CostOperator(context.Background(), kind, l, r, o)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, j := range joins {
		want := engine.JoinPrices{
			Join:        cost(engine.CostJoin, j.Left, j.Right, j.Out),
			LeftStream:  cost(engine.CostJoinStream, j.Left, j.Right, j.Out),
			RightStream: cost(engine.CostJoinStream, j.Right, j.Left, j.Out),
			ScanLeft:    cost(engine.CostScan, j.Left, 0, 0),
			ScanRight:   cost(engine.CostScan, j.Right, 0, 0),
		}
		if errs[i] != nil || prices[i] != want {
			t.Errorf("join %d = %+v, %v; CostOperator says %+v", i, prices[i], errs[i], want)
		}
	}
}

func TestQueryStream(t *testing.T) {
	e, c := newConnectedEngine(t, engine.VendorPostgres)
	loadSample(t, e)
	schema, it, err := c.QueryStream(context.Background(), "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Len() != 1 || len(rows) != 1000 {
		t.Errorf("schema=%v rows=%d", schema, len(rows))
	}
}

func TestConnectorErrorsCarryNode(t *testing.T) {
	_, c := newConnectedEngine(t, engine.VendorPostgres)
	_, err := c.Stats(context.Background(), "nosuch")
	if err == nil || !strings.Contains(err.Error(), "dbx") {
		t.Errorf("err = %v", err)
	}
	if err := c.Exec(context.Background(), "DROP TABLE nosuch"); err == nil {
		t.Error("bad exec succeeded")
	}
	if _, _, err := c.Explain(context.Background(), "SELEC"); err == nil {
		t.Error("bad explain succeeded")
	}
}
