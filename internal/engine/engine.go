// Package engine implements the from-scratch single-node DBMS that stands
// in for PostgreSQL / MariaDB / Hive in the XDB reproduction. Each engine
// instance is an autonomous black box: it owns a catalog of tables, views,
// SQL/MED foreign tables and foreign servers, optimizes and executes SQL
// locally, exposes EXPLAIN-style cost estimates in its own (vendor
// specific) cost units, and — through its foreign data wrapper — pulls data
// from other engines during execution, which is the mechanism XDB's
// delegation plans exploit for mediator-less cross-database pipelines.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// RemoteQuerier is the engine's view of its foreign data wrapper: the
// component that executes a query on a remote server and streams rows
// back. The wire package provides the TCP implementation; tests may plug
// in-process fakes.
type RemoteQuerier interface {
	// QueryRemote runs sql on the server and returns the result schema
	// and a streaming batch iterator. The iterator's Close must release
	// the underlying connection.
	QueryRemote(srv *Server, sql string) (*sqltypes.Schema, BatchIter, error)
}

// Engine is one emulated DBMS instance.
type Engine struct {
	name    string
	profile Profile
	catalog *Catalog
	remote  RemoteQuerier

	// queriesServed counts executed SELECTs, for tests and introspection.
	queriesServed atomic.Int64

	// statsSkew holds per-table row-count distortion factors (SkewStats):
	// Stats reports RowCount scaled by the factor while scans still return
	// the true rows. Emulates the stale/skewed statistics real DBMSes
	// report between ANALYZE runs; used by the testbed to exercise XDB's
	// cardinality-feedback loop.
	skewMu    sync.Mutex
	statsSkew map[string]float64
}

// Config configures an engine instance.
type Config struct {
	// Name is the node name, e.g. "db1" — also the database name XDB uses
	// to qualify its tables.
	Name string
	// Vendor selects the emulated product profile; VendorTest (zero
	// value resolves to it) disables CPU throttling.
	Vendor Vendor
	// Remote is the foreign data wrapper implementation; nil engines
	// cannot resolve foreign tables.
	Remote RemoteQuerier
	// Profile overrides the vendor profile when non-nil (the presto
	// baseline scales its mediator's per-row costs by worker count).
	Profile *Profile
}

// New creates an engine.
func New(cfg Config) *Engine {
	profile := Profiles(cfg.Vendor)
	if cfg.Profile != nil {
		profile = *cfg.Profile
	}
	return &Engine{
		name:    cfg.Name,
		profile: profile,
		catalog: NewCatalog(),
		remote:  cfg.Remote,
	}
}

// Name returns the engine's node name.
func (e *Engine) Name() string { return e.name }

// Profile returns the engine's vendor profile.
func (e *Engine) Profile() Profile { return e.profile }

// Catalog exposes the engine's catalog (read-mostly; used by the testbed
// loader and by tests).
func (e *Engine) Catalog() *Catalog { return e.catalog }

// SetRemote installs the foreign data wrapper after construction (the
// testbed wires engines and the network up in two phases).
func (e *Engine) SetRemote(r RemoteQuerier) { e.remote = r }

// QueriesServed reports how many SELECTs the engine has executed.
func (e *Engine) QueriesServed() int64 { return e.queriesServed.Load() }

// LoadTable bulk-loads a base table, computing statistics — the engine's
// equivalent of dbgen + ANALYZE.
func (e *Engine) LoadTable(name string, schema *sqltypes.Schema, rows []sqltypes.Row) error {
	t := &Table{
		Name:   name,
		Schema: schema.Clone(),
		Rows:   rows,
		Stats:  ComputeStats(schema, rows),
	}
	for i := range t.Schema.Columns {
		t.Schema.Columns[i].Table = ""
	}
	return e.catalog.PutTable(t)
}

// Result is a fully materialized query result.
type Result struct {
	Schema *sqltypes.Schema
	Rows   []sqltypes.Row
}

// Query plans and executes a SELECT, returning a streaming iterator and the
// result schema. The iterator starts the vendor's startup latency clock on
// first use.
func (e *Engine) Query(sql string) (*sqltypes.Schema, BatchIter, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, nil, fmt.Errorf("engine %s: Query requires a SELECT, got %T", e.name, stmt)
	}
	return e.QuerySelect(sel)
}

// QuerySelect is Query for a pre-parsed statement. Each call is one
// statement, a backend of its own: its operators, views planned inline
// included, model one CPU between them (cpuThrottle).
func (e *Engine) QuerySelect(sel *sqlparser.Select) (*sqltypes.Schema, BatchIter, error) {
	node, err := e.planSelect(sel)
	if err != nil {
		return nil, nil, err
	}
	it, err := node.open(new(statement))
	if err != nil {
		return nil, nil, err
	}
	e.queriesServed.Add(1)
	delay := e.profile.StartupLatency
	if delay > 0 {
		it = &startupIter{in: it, delay: func() { time.Sleep(delay) }}
	}
	return node.schema, it, nil
}

// QueryAll executes a SELECT and materializes the result.
func (e *Engine) QueryAll(sql string) (*Result, error) {
	schema, it, err := e.Query(sql)
	if err != nil {
		return nil, err
	}
	rows, err := Drain(it)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows}, nil
}

// Exec executes a DDL/DML statement (CREATE/DROP/INSERT). SELECTs must go
// through Query.
func (e *Engine) Exec(sql string) error {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return err
	}
	return e.ExecStmt(stmt)
}

// ExecStmt executes a pre-parsed DDL/DML statement.
func (e *Engine) ExecStmt(stmt sqlparser.Statement) error {
	switch s := stmt.(type) {
	case *sqlparser.CreateView:
		schema, err := e.OutputSchema(s.Query)
		if err != nil {
			return fmt.Errorf("engine %s: CREATE VIEW %s: %w", e.name, s.Name, err)
		}
		return e.catalog.PutView(&View{Name: s.Name, Query: s.Query, Schema: schema}, s.OrReplace)

	case *sqlparser.CreateTable:
		if s.As != nil {
			// CTAS pulls the full result — including through foreign
			// tables, which is exactly how explicit data movement
			// materializes remote task output locally (Sec. V).
			schema, it, err := e.QuerySelect(s.As)
			if err != nil {
				return fmt.Errorf("engine %s: CREATE TABLE %s AS: %w", e.name, s.Name, err)
			}
			rows, err := Drain(it)
			if err != nil {
				return fmt.Errorf("engine %s: CREATE TABLE %s AS: %w", e.name, s.Name, err)
			}
			stored := schema.Clone()
			for i := range stored.Columns {
				stored.Columns[i].Table = ""
			}
			return e.catalog.PutTable(&Table{
				Name: s.Name, Schema: stored, Rows: rows, Stats: ComputeStats(stored, rows),
			})
		}
		schema := &sqltypes.Schema{}
		for _, c := range s.Columns {
			schema.Columns = append(schema.Columns, sqltypes.Column{Name: c.Name, Type: c.Type})
		}
		return e.catalog.PutTable(&Table{
			Name: s.Name, Schema: schema, Stats: ComputeStats(schema, nil),
		})

	case *sqlparser.CreateForeignTable:
		if _, ok := e.catalog.Server(s.Server); !ok {
			return fmt.Errorf("engine %s: unknown server %q", e.name, s.Server)
		}
		schema := &sqltypes.Schema{}
		for _, c := range s.Columns {
			schema.Columns = append(schema.Columns, sqltypes.Column{Name: c.Name, Type: c.Type})
		}
		return e.catalog.PutForeign(&ForeignTable{
			Name: s.Name, Schema: schema, Server: s.Server,
			RemoteTable: s.RemoteTable, Materialize: s.Materialize, Rows: s.Rows,
		})

	case *sqlparser.CreateServer:
		srv := &Server{Name: s.Name, Wrapper: s.Wrapper}
		host, port := s.Options["host"], s.Options["port"]
		if host != "" && port != "" {
			srv.Addr = host + ":" + port
		} else {
			srv.Addr = s.Options["addr"]
		}
		srv.Node = s.Options["node"]
		if srv.Node == "" {
			srv.Node = s.Name
		}
		if srv.Addr == "" {
			return fmt.Errorf("engine %s: CREATE SERVER %s: missing host/port options", e.name, s.Name)
		}
		e.catalog.PutServer(srv)
		return nil

	case *sqlparser.Drop:
		if !e.catalog.Drop(s.Kind, s.Name) && !s.IfExists {
			return fmt.Errorf("engine %s: DROP %s %s: does not exist", e.name, s.Kind, s.Name)
		}
		return nil

	case *sqlparser.Insert:
		return e.execInsert(s)

	case *sqlparser.Select:
		return fmt.Errorf("engine %s: use Query for SELECT statements", e.name)

	default:
		return fmt.Errorf("engine %s: unsupported statement %T", e.name, stmt)
	}
}

func (e *Engine) execInsert(s *sqlparser.Insert) error {
	t, ok := e.catalog.Table(s.Table)
	if !ok {
		return fmt.Errorf("engine %s: INSERT into unknown table %q", e.name, s.Table)
	}
	var newRows []sqltypes.Row
	if s.Query != nil {
		_, it, err := e.QuerySelect(s.Query)
		if err != nil {
			return err
		}
		newRows, err = Drain(it)
		if err != nil {
			return err
		}
	} else {
		for _, exprRow := range s.Rows {
			if len(exprRow) != t.Schema.Len() {
				return fmt.Errorf("engine %s: INSERT into %s: %d values for %d columns", e.name, s.Table, len(exprRow), t.Schema.Len())
			}
			row := make(sqltypes.Row, len(exprRow))
			for i, ex := range exprRow {
				v, err := evalConstExpr(ex)
				if err != nil {
					return err
				}
				row[i] = v
			}
			newRows = append(newRows, row)
		}
	}
	// Copy-on-write: concurrent scans hold the previous row slice, so the
	// table is republished atomically under the catalog lock rather than
	// appended in place.
	combined := make([]sqltypes.Row, 0, len(t.Rows)+len(newRows))
	combined = append(combined, t.Rows...)
	combined = append(combined, newRows...)
	return e.catalog.PutTable(&Table{
		Name:   t.Name,
		Schema: t.Schema,
		Rows:   combined,
		Stats:  ComputeStats(t.Schema, combined),
	})
}

// ExplainInfo is what the engine's EXPLAIN reports: total cost in the
// vendor's own cost units, the estimated output rows, and a plan rendering.
// XDB's connectors consume Cost and Rows during plan annotation
// ("consulting", Sec. IV-B2) and must calibrate Cost across vendors.
type ExplainInfo struct {
	Cost float64
	Rows float64
	Text string
}

// Explain plans a statement and reports its estimates without executing.
func (e *Engine) Explain(sql string) (*ExplainInfo, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if ex, ok := stmt.(*sqlparser.Explain); ok {
		stmt = ex.Stmt
	}
	sel, ok := stmt.(*sqlparser.Select)
	if !ok {
		return nil, fmt.Errorf("engine %s: EXPLAIN supports only SELECT", e.name)
	}
	node, err := e.planSelect(sel)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	explainText(&b, node, 0)
	return &ExplainInfo{
		Cost: node.cost * e.profile.CostUnit,
		Rows: node.est,
		Text: b.String(),
	}, nil
}

func explainText(b *strings.Builder, n *planNode, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s (rows=%.0f cost=%.1f)\n", n.desc, n.est, n.cost)
	for _, k := range n.kids {
		explainText(b, k, depth+1)
	}
}

// Stats returns the statistics of a base table, view (estimated by
// planning its query), or foreign table (its declared row estimate). None
// of them leaves the engine: what a node believes about a remote relation
// is what the foreign table's declaration said.
func (e *Engine) Stats(table string) (*TableStats, error) {
	if t, ok := e.catalog.Table(table); ok {
		return e.skewed(table, t.Stats), nil
	}
	if v, ok := e.catalog.View(table); ok {
		node, err := e.planSelect(v.Query)
		if err != nil {
			return nil, err
		}
		return &TableStats{
			RowCount:    int64(node.est),
			AvgRowBytes: estimateRowBytes(node.schema),
		}, nil
	}
	if f, ok := e.catalog.Foreign(table); ok {
		return &TableStats{
			RowCount:    int64(f.estRows()),
			AvgRowBytes: estimateRowBytes(f.Schema),
		}, nil
	}
	return nil, fmt.Errorf("engine %s: unknown relation %q", e.name, table)
}

// SkewStats distorts the statistics this engine reports for a base
// table: Stats returns RowCount (and per-column distinct counts) scaled
// by factor, while scans keep returning the true rows. A factor of 1 (or
// <= 0) removes the distortion. This emulates the stale statistics a
// real DBMS serves between ANALYZE runs — the estimates say one thing,
// the data says another — which is exactly the condition XDB's
// estimate correction (sampling, drained-edge feedback) is built for.
func (e *Engine) SkewStats(table string, factor float64) error {
	if _, ok := e.catalog.Table(table); !ok {
		return fmt.Errorf("engine %s: unknown base table %q", e.name, table)
	}
	key := strings.ToLower(table)
	e.skewMu.Lock()
	defer e.skewMu.Unlock()
	if factor <= 0 || factor == 1 {
		delete(e.statsSkew, key)
		return nil
	}
	if e.statsSkew == nil {
		e.statsSkew = make(map[string]float64)
	}
	e.statsSkew[key] = factor
	return nil
}

// skewed applies the table's registered distortion factor to a stats
// snapshot, returning a scaled copy. The scaling is deterministic, so
// repeated fetches of an unchanged (but skewed) table still compare
// equal — stale-cache invalidation only fires when the truth moves.
func (e *Engine) skewed(table string, st *TableStats) *TableStats {
	e.skewMu.Lock()
	factor, ok := e.statsSkew[strings.ToLower(table)]
	e.skewMu.Unlock()
	if !ok || st == nil {
		return st
	}
	rows := int64(float64(st.RowCount) * factor)
	if rows < 1 {
		rows = 1
	}
	out := &TableStats{
		RowCount:    rows,
		AvgRowBytes: st.AvgRowBytes,
		Columns:     make([]ColumnStats, len(st.Columns)),
	}
	copy(out.Columns, st.Columns)
	for i := range out.Columns {
		d := int64(float64(out.Columns[i].Distinct) * factor)
		if d < 1 && out.Columns[i].Distinct > 0 {
			d = 1
		}
		if d > rows {
			d = rows
		}
		out.Columns[i].Distinct = d
	}
	return out
}

// estimateRowBytes guesses an encoded row width from the schema (strings
// assumed ~16 bytes).
func estimateRowBytes(s *sqltypes.Schema) float64 {
	n := 4.0
	for _, c := range s.Columns {
		switch c.Type {
		case sqltypes.TypeString:
			n += 21
		case sqltypes.TypeBool:
			n += 2
		default:
			n += 9
		}
	}
	return n
}

// TableSchema returns the schema of a base table, view, or foreign table —
// the metadata XDB's preparation phase gathers through the connectors.
func (e *Engine) TableSchema(name string) (*sqltypes.Schema, error) {
	if t, ok := e.catalog.Table(name); ok {
		return t.Schema, nil
	}
	if v, ok := e.catalog.View(name); ok {
		return v.Schema, nil
	}
	if f, ok := e.catalog.Foreign(name); ok {
		return f.Schema, nil
	}
	return nil, fmt.Errorf("engine %s: unknown relation %q", e.name, name)
}

// CostKind selects a costing function for the consulting RPC.
type CostKind string

// Costing functions exposed to XDB's connectors. The connector supplies
// cardinalities (its own estimates); the engine prices the work in its own
// cost units, exactly as an EXPLAIN over hypothetical inputs would.
const (
	CostJoin CostKind = "join" // left+right -> out rows, free build-side choice
	// CostJoinStream prices a join whose LEFT input arrives as a stream
	// (a pipelined foreign scan): the streamed side cannot be the hash
	// build side, so the local RIGHT side is built regardless of size.
	// This is how implicit data movement constrains the local optimizer,
	// and the asymmetry the annotator weighs against the materialization
	// cost of explicit movement (Sec. IV-A).
	CostJoinStream CostKind = "join_stream"
	CostScan       CostKind = "scan" // scanning a materialized relation
	CostAgg        CostKind = "agg"  // aggregating in rows
)

// CostOperator prices an operator over hypothetical input cardinalities in
// the vendor's cost units.
func (e *Engine) CostOperator(kind CostKind, leftRows, rightRows, outRows float64) float64 {
	var c float64
	joinFitness := float64(e.profile.JoinNsPerRow+1) / float64(Profiles(VendorPostgres).JoinNsPerRow+1)
	switch kind {
	case CostJoin:
		small, large := leftRows, rightRows
		if small > large {
			small, large = large, small
		}
		// Vendors price joins proportionally to their OLAP fitness.
		c = (small*cJoinBuild + large*cJoinProbe + outRows*cJoinOut) * joinFitness
	case CostJoinStream:
		// Forced arrangement: build on the local (right) input, probe with
		// the stream (left).
		c = (rightRows*cJoinBuild + leftRows*cJoinProbe + outRows*cJoinOut) * joinFitness
	case CostScan:
		c = leftRows * cScanTuple
	case CostAgg:
		c = leftRows * cAggTuple
	default:
		c = leftRows
	}
	return c * e.profile.CostUnit
}

// JoinPrices are the five prices any placement decision over one join can
// ask of one DBMS, in the vendor's cost units: the join with a free build
// side, the join with either input arriving as a stream, and a scan of a
// stored copy of either input.
type JoinPrices struct {
	Join, LeftStream, RightStream, ScanLeft, ScanRight float64
}

// PriceJoin prices a join of left and right rows producing out rows, every
// way a placement decision can ask for it, with CostOperator.
func (e *Engine) PriceJoin(left, right, out float64) JoinPrices {
	return JoinPricesOf(e.CostOperator, left, right, out)
}

// JoinPricesOf prices a join every way a placement decision can ask for
// it with one costing function: a streamed input is the costing
// function's left input, and a scan reads one input.
func JoinPricesOf(cost func(kind CostKind, left, right, out float64) float64, left, right, out float64) JoinPrices {
	return JoinPrices{
		Join:        cost(CostJoin, left, right, out),
		LeftStream:  cost(CostJoinStream, left, right, out),
		RightStream: cost(CostJoinStream, right, left, out),
		ScanLeft:    cost(CostScan, left, 0, 0),
		ScanRight:   cost(CostScan, right, 0, 0),
	}
}
