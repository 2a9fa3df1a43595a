// Package sclera implements the ScleraDB-like baseline of Sec. VI-B: an
// "in-situ" cross-database processor that, unlike XDB, moves every
// intermediate table explicitly *through its coordinator* (the naive
// execution of Sec. V: export from one DBMS, import into the next) and
// places each join with a fixed heuristic (the left input's DBMS) instead
// of costing placements. The paper measures this design at up to 30x
// slower than XDB; the slowdown here comes from the same two structural
// choices, not from artificial penalties.
package sclera

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xdb/internal/connector"
	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// Config configures the baseline.
type Config struct {
	// Node is the coordinator's node in the topology.
	Node string
	// Topo provides shaping and accounting (nil for unit tests).
	Topo *netsim.Topology
	// Connectors are the access paths to the underlying DBMSes.
	Connectors map[string]*connector.Connector
	// ImportBatch rows per INSERT statement during re-import.
	ImportBatch int
}

// Sclera is the naive in-situ baseline.
type Sclera struct {
	cfg     Config
	catalog *core.Catalog
	client  *wire.Client
	seq     int64
}

// Stats reports one execution's cost structure.
type Stats struct {
	// MoveTime is the time spent exporting/importing intermediates
	// through the coordinator.
	MoveTime time.Duration
	// ExecTime is the time the DBMSes spent on joins and the final block.
	ExecTime time.Duration
	// RowsMoved counts rows routed through the coordinator.
	RowsMoved int64
	// Steps is the number of join steps executed.
	Steps int
}

// Total returns the end-to-end execution time.
func (s Stats) Total() time.Duration { return s.MoveTime + s.ExecTime }

// New creates the baseline system.
func New(cfg Config) *Sclera {
	if cfg.ImportBatch <= 0 {
		cfg.ImportBatch = 500
	}
	return &Sclera{
		cfg:     cfg,
		catalog: core.NewCatalog(),
		client:  wire.NewClient(cfg.Node, cfg.Topo),
	}
}

// RegisterTable maps a global table to its home DBMS.
// Close drains the coordinator's wire connection pool.
func (s *Sclera) Close() error { return s.client.Close() }

func (s *Sclera) RegisterTable(table, node string) error {
	if _, ok := s.cfg.Connectors[node]; !ok {
		return fmt.Errorf("sclera: RegisterTable(%s): unknown node %q", table, node)
	}
	s.catalog.Put(&core.TableInfo{Name: table, Node: node})
	return nil
}

// step is the left-deep execution state: a relation name on a node with
// its exported column identities.
type step struct {
	node  string
	table string
	cols  []string
	types map[string]sqltypes.Type
}

// Query executes a cross-database query with naive explicit routing.
func (s *Sclera) Query(sql string) (*engine.Result, *Stats, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, nil, err
	}
	if err := core.GatherMetadata(context.Background(), s.catalog, s.cfg.Connectors, sel); err != nil {
		return nil, nil, err
	}
	a, err := core.Analyze(s.catalog, sel)
	if err != nil {
		return nil, nil, err
	}
	s.seq++
	qid := s.seq
	st := &Stats{}
	var cleanup []func()
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	drop := func(node, kind, name string) {
		conn := s.cfg.Connectors[node]
		cleanup = append(cleanup, func() {
			if kind == "VIEW" {
				exec(conn, conn.Dialect.DropView(name))
			} else {
				exec(conn, conn.Dialect.DropTable(name))
			}
		})
	}

	colTypes := map[string]sqltypes.Type{}
	for _, sc := range a.Scans {
		for _, c := range sc.Schema.Columns {
			colTypes[strings.ToLower(sc.Alias+"."+c.Name)] = c.Type
		}
	}

	// Seed: the first relation in FROM order (heuristic, no cost-based
	// ordering), filtered and pruned into a view on its home DBMS.
	pending := append([]sqlparser.Expr(nil), a.JoinConjs...)
	first := a.Scans[0]
	cur, err := s.scanView(first, qid, 0, drop)
	if err != nil {
		return nil, nil, err
	}
	exported := map[string]bool{}
	for _, c := range cur.cols {
		exported[strings.ToLower(c)] = true
	}

	// Left-deep, heuristically ordered: take the next FROM-order relation
	// that shares a join predicate with the current result (falling back
	// to FROM order outright) — connectivity-aware but cost-blind, like
	// the original system. Ship it through the coordinator to the current
	// node and join there.
	remaining := append([]*core.Scan(nil), a.Scans[1:]...)
	for i := 0; len(remaining) > 0; i++ {
		pick := 0
		for idx, cand := range remaining {
			connected := false
			for _, c := range pending {
				refsScan := false
				refsCur := false
				for _, cr := range sqlparser.ColumnsIn(c) {
					if strings.EqualFold(cr.Table, cand.Alias) {
						refsScan = true
					} else if exported[strings.ToLower(cr.Table+"."+cr.Name)] {
						refsCur = true
					}
				}
				if refsScan && refsCur {
					connected = true
					break
				}
			}
			if connected {
				pick = idx
				break
			}
		}
		sc := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)

		next, err := s.scanView(sc, qid, i+1, drop)
		if err != nil {
			return nil, nil, err
		}
		// Export next's rows to the coordinator, import at cur.node.
		start := time.Now()
		imported, rows, err := s.routeThroughCoordinator(next, cur.node, qid, i+1, drop)
		if err != nil {
			return nil, nil, err
		}
		st.MoveTime += time.Since(start)
		st.RowsMoved += rows

		// Join locally on cur.node (placement heuristic: left's DBMS).
		for _, c := range next.cols {
			exported[strings.ToLower(c)] = true
		}
		var conjs, rest []sqlparser.Expr
		for _, c := range pending {
			if allIn(c, exported) {
				conjs = append(conjs, c)
			} else {
				rest = append(rest, c)
			}
		}
		pending = rest

		start = time.Now()
		joined, err := s.joinStep(cur, imported, conjs, colTypes, qid, i+1, drop)
		if err != nil {
			return nil, nil, err
		}
		st.ExecTime += time.Since(start)
		st.Steps++
		cur = joined
	}
	if len(pending) > 0 {
		return nil, nil, fmt.Errorf("sclera: unresolved predicate %v", pending[0])
	}

	// Final block on the last node, result fetched through the
	// coordinator.
	start := time.Now()
	res, err := s.finalBlock(a, cur, qid, drop)
	if err != nil {
		return nil, nil, err
	}
	st.ExecTime += time.Since(start)
	return res, st, nil
}

// scanView creates the filtered, pruned view of one relation on its home
// DBMS.
func (s *Sclera) scanView(sc *core.Scan, qid int64, idx int, drop func(node, kind, name string)) (*step, error) {
	sel := &sqlparser.Select{Limit: -1}
	sel.From = []sqlparser.TableRef{{Name: sc.Table, Alias: sc.Alias}}
	sel.Where = sc.Filter
	cols := sc.OutCols()
	for _, gid := range cols {
		alias, name, _ := strings.Cut(gid, ".")
		sel.Projections = append(sel.Projections, sqlparser.SelectExpr{
			Expr:  &sqlparser.ColumnRef{Table: alias, Name: name},
			Alias: core.MangleCol(gid),
		})
	}
	conn := s.cfg.Connectors[sc.Node]
	name := fmt.Sprintf("sclera%d_s%d", qid, idx)
	if err := exec(conn, conn.Dialect.CreateView(name, sel)); err != nil {
		return nil, err
	}
	drop(sc.Node, "VIEW", name)
	types := map[string]sqltypes.Type{}
	for _, c := range sc.Schema.Columns {
		types[strings.ToLower(sc.Alias+"."+c.Name)] = c.Type
	}
	return &step{node: sc.Node, table: name, cols: cols, types: types}, nil
}

// routeThroughCoordinator is the naive data movement: SELECT * at the
// source into the coordinator, then INSERT batches into a fresh table at
// the destination. Every byte crosses the network twice.
func (s *Sclera) routeThroughCoordinator(from *step, toNode string, qid int64, idx int, drop func(node, kind, name string)) (*step, int64, error) {
	if from.node == toNode {
		return from, 0, nil
	}
	srcConn := s.cfg.Connectors[from.node]
	dstConn := s.cfg.Connectors[toNode]

	schema, it, err := s.client.Query(context.Background(), srcConn.Addr, from.node, "SELECT * FROM "+from.table)
	if err != nil {
		return nil, 0, err
	}
	rows, err := engine.Drain(it)
	if err != nil {
		return nil, 0, err
	}

	name := fmt.Sprintf("sclera%d_m%d", qid, idx)
	var defs []string
	for i, gid := range from.cols {
		defs = append(defs, fmt.Sprintf("%s %s", core.MangleCol(gid), schema.Columns[i].Type))
	}
	if err := exec(dstConn, fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(defs, ", "))); err != nil {
		return nil, 0, err
	}
	drop(toNode, "TABLE", name)

	for lo := 0; lo < len(rows); lo += s.cfg.ImportBatch {
		hi := lo + s.cfg.ImportBatch
		if hi > len(rows) {
			hi = len(rows)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", name)
		for i, r := range rows[lo:hi] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for j, v := range r {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.SQL())
			}
			b.WriteByte(')')
		}
		if err := exec(dstConn, b.String()); err != nil {
			return nil, 0, err
		}
	}
	return &step{node: toNode, table: name, cols: from.cols, types: from.types}, int64(len(rows)), nil
}

// joinStep materializes the join of two co-located relations.
func (s *Sclera) joinStep(l, r *step, conjs []sqlparser.Expr, colTypes map[string]sqltypes.Type, qid int64, idx int, drop func(node, kind, name string)) (*step, error) {
	sel := &sqlparser.Select{Limit: -1}
	sel.From = []sqlparser.TableRef{
		{Name: l.table, Alias: "l"},
		{Name: r.table, Alias: "r"},
	}
	resolve := map[string][2]string{}
	outCols := append(append([]string{}, l.cols...), r.cols...)
	for _, gid := range l.cols {
		resolve[strings.ToLower(gid)] = [2]string{"l", core.MangleCol(gid)}
	}
	for _, gid := range r.cols {
		resolve[strings.ToLower(gid)] = [2]string{"r", core.MangleCol(gid)}
	}
	for _, gid := range outCols {
		loc := resolve[strings.ToLower(gid)]
		sel.Projections = append(sel.Projections, sqlparser.SelectExpr{
			Expr:  &sqlparser.ColumnRef{Table: loc[0], Name: loc[1]},
			Alias: core.MangleCol(gid),
		})
	}
	var rewritten []sqlparser.Expr
	for _, c := range conjs {
		rc, err := rewriteRefs(c, resolve)
		if err != nil {
			return nil, err
		}
		rewritten = append(rewritten, rc)
	}
	sel.Where = sqlparser.JoinConjuncts(rewritten)

	conn := s.cfg.Connectors[l.node]
	name := fmt.Sprintf("sclera%d_j%d", qid, idx)
	if err := exec(conn, conn.Dialect.CreateTableAs(name, sel)); err != nil {
		return nil, err
	}
	drop(l.node, "TABLE", name)
	types := map[string]sqltypes.Type{}
	for k, v := range l.types {
		types[k] = v
	}
	for k, v := range r.types {
		types[k] = v
	}
	return &step{node: l.node, table: name, cols: outCols, types: types}, nil
}

// finalBlock runs the projection/aggregation/order/limit block on the
// last node and fetches the result.
func (s *Sclera) finalBlock(a *core.Analysis, cur *step, qid int64, drop func(node, kind, name string)) (*engine.Result, error) {
	resolve := map[string][2]string{}
	for _, gid := range cur.cols {
		resolve[strings.ToLower(gid)] = [2]string{"t", core.MangleCol(gid)}
	}
	sel := &sqlparser.Select{Limit: a.Canon.Limit, Distinct: a.Canon.Distinct}
	sel.From = []sqlparser.TableRef{{Name: cur.table, Alias: "t"}}
	projOut := map[string]string{}
	for _, p := range a.Canon.Projections {
		re, err := rewriteRefs(p.Expr, resolve)
		if err != nil {
			return nil, err
		}
		alias := p.Alias
		if alias == "" {
			if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
				alias = cr.Name
			}
		}
		out := alias
		if out == "" {
			out = re.String()
		}
		if _, dup := projOut[re.String()]; !dup {
			projOut[re.String()] = out
		}
		sel.Projections = append(sel.Projections, sqlparser.SelectExpr{Expr: re, Alias: alias})
	}
	for _, g := range a.Canon.GroupBy {
		rg, err := rewriteRefs(g, resolve)
		if err != nil {
			return nil, err
		}
		sel.GroupBy = append(sel.GroupBy, rg)
	}
	if a.Canon.Having != nil {
		rh, err := rewriteRefs(a.Canon.Having, resolve)
		if err != nil {
			return nil, err
		}
		sel.Having = rh
	}
	for _, o := range a.Canon.OrderBy {
		ro, err := rewriteRefs(o.Expr, resolve)
		if err != nil {
			return nil, err
		}
		if out, ok := projOut[ro.String()]; ok {
			ro = &sqlparser.ColumnRef{Name: out}
		}
		sel.OrderBy = append(sel.OrderBy, sqlparser.OrderItem{Expr: ro, Desc: o.Desc})
	}

	conn := s.cfg.Connectors[cur.node]
	name := fmt.Sprintf("sclera%d_final", qid)
	if err := exec(conn, conn.Dialect.CreateView(name, sel)); err != nil {
		return nil, err
	}
	drop(cur.node, "VIEW", name)
	return s.client.QueryAll(context.Background(), conn.Addr, cur.node, "SELECT * FROM "+name)
}

// exec runs one statement on a DBMS: a script of one, the connector's
// control-plane request shape.
func exec(conn *connector.Connector, sql string) error {
	errs, err := conn.ExecScript(context.Background(), []string{sql})
	if err != nil {
		return err
	}
	return errs[0]
}

func rewriteRefs(e sqlparser.Expr, resolve map[string][2]string) (sqlparser.Expr, error) {
	if e == nil {
		return nil, nil
	}
	out := sqlparser.CloneExpr(e)
	var err error
	sqlparser.WalkExpr(out, func(x sqlparser.Expr) {
		cr, ok := x.(*sqlparser.ColumnRef)
		if !ok || cr.Table == "" || err != nil {
			return
		}
		loc, ok := resolve[strings.ToLower(cr.Table+"."+cr.Name)]
		if !ok {
			err = fmt.Errorf("sclera: column %s.%s not available", cr.Table, cr.Name)
			return
		}
		cr.Table, cr.Name = loc[0], loc[1]
	})
	return out, err
}

func allIn(e sqlparser.Expr, exported map[string]bool) bool {
	ok := true
	for _, cr := range sqlparser.ColumnsIn(e) {
		if cr.Table == "" {
			continue
		}
		if !exported[strings.ToLower(cr.Table+"."+cr.Name)] {
			ok = false
		}
	}
	return ok
}
