// Package core implements the paper's primary contribution: XDB's
// cross-database optimizer and delegation engine.
//
// A cross-database query flows through three optimizer components
// (Sec. IV): the Logical Optimizer (join ordering and
// selection/projection pushdown), the Plan Annotator (operator placement
// and data-movement decisions via Rules 1–4, consulting the underlying
// DBMSes for costs), and the Plan Finalizer (fusing same-placement
// operators into tasks). The result is a delegation plan — a DAG of tasks,
// each an algebraic expression pinned to one DBMS, with edges labelled as
// implicit (pipelined) or explicit (materialized) dataflow. The delegation
// engine (Sec. V) rewrites the plan into vendor-specific DDL — servers,
// foreign tables, views, and CREATE TABLE AS — and hands the client a
// single XDB query whose evaluation triggers the fully decentralized,
// mediator-less execution cascade.
package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// TableInfo is one entry of XDB's global catalog: a table, its home DBMS,
// its schema, and what the middleware believes about its statistics.
// Stats is what planning uses; Reported is the home DBMS's last report
// (nil until Refresh brings one). Once reported, the two differ only
// while Learned is set: an observed cardinality (a drained edge or an
// exhausted sample probe; learn.go) contradicted the report, and the
// correction stands in for it. Entries
// are immutable once published — Refresh and Learn replace the entry
// rather than mutating it, so concurrent queries each plan against a
// consistent snapshot.
type TableInfo struct {
	Name     string
	Node     string
	Schema   *sqltypes.Schema
	Stats    *engine.TableStats
	Reported *engine.TableStats
	Learned  bool
}

// Catalog is XDB's global catalog — the Global-as-a-View union of the
// local schemas (Sec. III) — and the one owner of what the middleware
// believes about each table. It is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*TableInfo
}

// NewCatalog returns an empty global catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*TableInfo)}
}

// Put registers or replaces a table entry; a re-registered table starts
// over, its learned facts forgotten.
func (c *Catalog) Put(info *TableInfo) {
	c.mu.Lock()
	c.tables[strings.ToLower(info.Name)] = info
	c.mu.Unlock()
}

// Refresh folds a fresh report from the table's home DBMS into its entry:
// a schema (nil when not fetched) and statistics (nil when the fetch
// failed). A learned correction is kept while the node repeats the report
// it was learned against; any other report is adopted and clears the
// mark.
func (c *Catalog) Refresh(name string, schema *sqltypes.Schema, reported *engine.TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	cur, ok := c.tables[key]
	if !ok {
		return
	}
	next := *cur
	if schema != nil {
		next.Schema = schema
	}
	switch {
	case reported == nil, cur.Learned && statsEqual(cur.Reported, reported):
		// Nothing reported, or the report the correction stands in for.
	case cur.Learned || !statsEqual(cur.Stats, reported):
		next.Stats, next.Reported, next.Learned = reported, reported, false
	}
	// An unchanged entry keeps its identity, so a correction derived from
	// it concurrently is not refused by a report that changed nothing.
	if next != *cur {
		c.tables[key] = &next
	}
}

// Learn publishes corrected as the planning statistics of the table whose
// entry was from, marked learned, and reports whether it did. It refuses
// when from is no longer the published entry (a refresh or another
// correction came first), when from carries no statistics, and when
// corrected is what from already holds.
func (c *Catalog) Learn(from *TableInfo, corrected *engine.TableStats) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(from.Name)
	if c.tables[key] != from || from.Stats == nil || statsEqual(from.Stats, corrected) {
		return false
	}
	next := *from
	next.Stats, next.Learned = corrected, true
	c.tables[key] = &next
	return true
}

// statsEqual reports whether two statistics snapshots match (row count
// and all column stats).
func statsEqual(a, b *engine.TableStats) bool {
	return a == b || reflect.DeepEqual(a, b)
}

// holds reports whether every scan's table is still registered on the
// scan's node with planning statistics equal to the scan's: whether a plan
// built from the scans was built from what the catalog holds now.
func (c *Catalog) holds(scans []*Scan) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, sc := range scans {
		info, ok := c.tables[strings.ToLower(sc.Table)]
		if !ok || info.Node != sc.Node || !statsEqual(info.Stats, sc.Stats) {
			return false
		}
	}
	return true
}

// Lookup resolves a table name.
func (c *Catalog) Lookup(name string) (*TableInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all registered tables.
func (c *Catalog) Tables() []*TableInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableInfo, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	return out
}

// Movement labels a dataflow edge in a delegation plan.
type Movement byte

// The two inter-DBMS dataflow operations of Sec. IV-A.
const (
	// MoveImplicit pipelines the child task's output into the parent via
	// a foreign-table reference.
	MoveImplicit Movement = 'i'
	// MoveExplicit materializes the child task's output as a local table
	// on the parent's DBMS before use.
	MoveExplicit Movement = 'e'
)

// String renders the movement as the paper's i/e edge labels.
func (m Movement) String() string { return string(byte(m)) }

// Op is a node of XDB's logical plan. The plan is a left-deep join tree of
// scans (with pushed-down filters and pruned columns), topped by a Final
// operator holding the query's projection/aggregation/order/limit block.
type Op interface {
	// OutCols returns the ordered global column identities ("alias.col")
	// the operator produces.
	OutCols() []string
	// Est returns the estimated output cardinality.
	Est() float64
	// Width returns the estimated encoded bytes per output row.
	Width() float64
}

// Scan reads one base table. Filter holds the pushed-down single-table
// predicate; Cols the pruned column set (projection pushdown).
type Scan struct {
	Table  string
	Alias  string
	Node   string
	Schema *sqltypes.Schema // base table schema (bare column names)
	Stats  *engine.TableStats
	Cols   []string // pruned bare column names, in schema order
	Filter sqlparser.Expr

	est   float64
	width float64
}

// OutCols implements Op.
func (s *Scan) OutCols() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = s.Alias + "." + c
	}
	return out
}

// Est implements Op.
func (s *Scan) Est() float64 { return s.est }

// Width implements Op.
func (s *Scan) Width() float64 { return s.width }

// JoinKey is one equi-join predicate between the two inputs of a Join.
type JoinKey struct {
	L, R *sqlparser.ColumnRef // qualified; L resolves in the left input
}

// Join is an inner equi join (with optional non-equi residual conjuncts).
type Join struct {
	L, R     Op
	Keys     []JoinKey
	Residual []sqlparser.Expr

	est float64
}

// OutCols implements Op.
func (j *Join) OutCols() []string {
	return append(append([]string{}, j.L.OutCols()...), j.R.OutCols()...)
}

// Est implements Op.
func (j *Join) Est() float64 { return j.est }

// Width implements Op.
func (j *Join) Width() float64 { return j.L.Width() + j.R.Width() }

// Final holds the query's top block: projections, grouping, having,
// ordering, limit. It is always placed with the root join's DBMS (unary
// operators inherit annotations, Rule 2).
type Final struct {
	In  Op
	Sel *sqlparser.Select // canonicalized: all column refs qualified
}

// OutCols implements Op. Final output columns are the user's projection
// names; they are only consumed by the client.
func (f *Final) OutCols() []string {
	out := make([]string, 0, len(f.Sel.Projections))
	for _, p := range f.Sel.Projections {
		if p.Alias != "" {
			out = append(out, p.Alias)
			continue
		}
		if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
			out = append(out, cr.Name)
			continue
		}
		out = append(out, p.Expr.String())
	}
	return out
}

// Est implements Op.
func (f *Final) Est() float64 {
	if len(f.Sel.GroupBy) > 0 {
		g := f.In.Est() / 10
		if g < 1 {
			g = 1
		}
		return g
	}
	if sqlparser.HasAggregate(firstProjection(f.Sel)) {
		return 1
	}
	return f.In.Est()
}

// Width implements Op.
func (f *Final) Width() float64 { return float64(9 * len(f.Sel.Projections)) }

func firstProjection(sel *sqlparser.Select) sqlparser.Expr {
	for _, p := range sel.Projections {
		if p.Expr != nil {
			return p.Expr
		}
	}
	return nil
}

// Placeholder stands for the output of another task after plan
// finalization — the "?" of the paper's task notation. It never appears in
// the logical plan before finalization.
type Placeholder struct {
	// ChildTask is the producing task's ID.
	ChildTask int
	// Move is the dataflow operation on the edge.
	Move Movement
	// Cols are the global column identities the child exports.
	Cols []string
	// Types are the column types, aligned with Cols (needed for foreign
	// table DDL).
	Types []sqltypes.Type
	// Rel is the local relation the placeholder resolves to in the
	// parent's rendered SQL — the foreign table (implicit movement) or the
	// materialized table (explicit movement). Set during delegation.
	Rel string
	// RawScan is set by the NoVirtualRelations ablation (A4): the foreign
	// table points directly at the child's base table instead of a
	// virtual relation, so the child task's filter and projection did NOT
	// run remotely — the parent must apply the filter locally, and the
	// full base relation crosses the wire. This is the "undesirable
	// execution" that Sec. V's view-wrapping prevents.
	RawScan *Scan

	est   float64
	width float64
}

// OutCols implements Op.
func (p *Placeholder) OutCols() []string { return p.Cols }

// Est implements Op.
func (p *Placeholder) Est() float64 { return p.est }

// Width implements Op.
func (p *Placeholder) Width() float64 { return p.width }

// OpString renders an operator tree in the paper's compact algebra
// notation, e.g. "⋈(π(σ(C)), ?)".
func OpString(op Op) string {
	switch o := op.(type) {
	case *Scan:
		s := o.Table
		if o.Filter != nil {
			s = "σ(" + s + ")"
		}
		if len(o.Cols) < o.Schema.Len() {
			s = "π(" + s + ")"
		}
		return s
	case *Join:
		return "⋈(" + OpString(o.L) + ", " + OpString(o.R) + ")"
	case *Final:
		return "Γ(" + OpString(o.In) + ")"
	case *Placeholder:
		return "?"
	default:
		return fmt.Sprintf("%T", op)
	}
}
