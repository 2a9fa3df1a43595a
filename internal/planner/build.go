package planner

import (
	"fmt"
	"strings"

	"xdb/internal/sqlparser"
)

// Analysis is a resolved and analyzed cross-database query: what the
// optimizer plans from, and what the baseline systems (Garlic, Presto,
// Sclera) share with it — the paper's comparison is about *where
// cross-database operations run*, not about frontend quality.
type Analysis struct {
	// Scans are the resolved relations in FROM order, with pushed-down
	// filters, pruned columns and estimates.
	Scans []*Scan
	// JoinConjs are the conjuncts touching more than one relation.
	JoinConjs []sqlparser.Expr
	// Canon is the canonicalized SELECT: every column reference qualified.
	Canon *sqlparser.Select
}

// builder turns a parsed cross-database SELECT into an Analysis.
type builder struct {
	// aliases maps lower-cased alias -> scan.
	aliases map[string]*Scan
	scans   []*Scan // in FROM order
	// projAliases are the projection aliases visible to GROUP BY/ORDER BY.
	projAliases map[string]bool
}

// Analyze resolves the query against the global catalog, whose tables
// carry schema and statistics, pushing single-table predicates into their
// scans and pruning each scan to the columns the query reads.
func Analyze(catalog *Catalog, sel *sqlparser.Select) (*Analysis, error) {
	b := &builder{
		aliases:     map[string]*Scan{},
		projAliases: map[string]bool{},
	}
	if len(sel.From) == 0 {
		return nil, fmt.Errorf("planner: cross-database query requires a FROM clause")
	}
	for _, p := range sel.Projections {
		if p.Alias != "" {
			b.projAliases[strings.ToLower(p.Alias)] = true
		}
	}

	// Resolve FROM entries against the global catalog. A DB qualifier, if
	// present, must match the table's registered home node.
	for _, ref := range sel.From {
		info, ok := catalog.Lookup(ref.Name)
		if !ok {
			return nil, fmt.Errorf("planner: unknown table %q in global catalog", ref.Name)
		}
		if ref.DB != "" && !strings.EqualFold(ref.DB, info.Node) {
			return nil, fmt.Errorf("planner: table %s is on %s, not %s", ref.Name, info.Node, ref.DB)
		}
		alias := strings.ToLower(ref.EffectiveAlias())
		if _, dup := b.aliases[alias]; dup {
			return nil, fmt.Errorf("planner: duplicate relation alias %q", ref.EffectiveAlias())
		}
		scan := &Scan{
			Table:  info.Name,
			Alias:  ref.EffectiveAlias(),
			Node:   info.Node,
			Schema: info.Schema,
			Stats:  info.Stats,
		}
		b.aliases[alias] = scan
		b.scans = append(b.scans, scan)
	}

	// Canonicalize: expand stars, then qualify every column reference
	// with its relation alias (projection aliases in GROUP BY/ORDER
	// BY/HAVING stay bare).
	canon := cloneSelect(sel)
	if err := b.expandStars(canon); err != nil {
		return nil, err
	}
	if err := b.canonicalizeSelect(canon); err != nil {
		return nil, err
	}

	// Classify WHERE conjuncts: single-table predicates are pushed into
	// their scan (selection pushdown); the rest feed join planning.
	var joinConjs []sqlparser.Expr
	for _, conj := range sqlparser.SplitConjuncts(canon.Where) {
		if touched := b.scansIn(conj); len(touched) == 1 {
			s := touched[0]
			if s.Filter == nil {
				s.Filter = conj
			} else {
				s.Filter = &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: s.Filter, R: conj}
			}
			continue
		}
		joinConjs = append(joinConjs, conj)
	}

	// Projection pushdown: each scan keeps only the columns referenced
	// anywhere in the query.
	needed := map[string]map[string]bool{}
	note := func(e sqlparser.Expr) {
		for _, cr := range sqlparser.ColumnsIn(e) {
			if cr.Table == "" {
				continue // projection-alias reference
			}
			a := strings.ToLower(cr.Table)
			if needed[a] == nil {
				needed[a] = map[string]bool{}
			}
			needed[a][strings.ToLower(cr.Name)] = true
		}
	}
	for _, p := range canon.Projections {
		note(p.Expr)
	}
	note(canon.Where)
	for _, g := range canon.GroupBy {
		note(g)
	}
	note(canon.Having)
	for _, o := range canon.OrderBy {
		note(o.Expr)
	}
	for alias, scan := range b.aliases {
		cols := needed[alias]
		for _, c := range scan.Schema.Columns {
			if cols[strings.ToLower(c.Name)] {
				scan.Cols = append(scan.Cols, c.Name)
			}
		}
		if len(scan.Cols) == 0 {
			// Keep at least one column so the relation renders.
			scan.Cols = []string{scan.Schema.Columns[0].Name}
		}
	}

	// Estimate scan cardinalities and widths.
	for _, scan := range b.aliases {
		scan.est = estimateScan(scan)
		scan.width = estimateWidth(scan)
	}
	return &Analysis{Scans: b.scans, JoinConjs: joinConjs, Canon: canon}, nil
}

// expandStars replaces * and t.* projections with explicit column
// references in FROM order.
func (b *builder) expandStars(sel *sqlparser.Select) error {
	var out []sqlparser.SelectExpr
	for _, p := range sel.Projections {
		if !p.Star {
			out = append(out, p)
			continue
		}
		matched := false
		for _, s := range b.scans {
			if p.StarTable != "" && !strings.EqualFold(p.StarTable, s.Alias) {
				continue
			}
			matched = true
			for _, c := range s.Schema.Columns {
				out = append(out, sqlparser.SelectExpr{
					Expr: &sqlparser.ColumnRef{Table: s.Alias, Name: c.Name},
				})
			}
		}
		if !matched {
			return fmt.Errorf("planner: %s.* matches no relation", p.StarTable)
		}
	}
	sel.Projections = out
	return nil
}

// scansIn returns the distinct relations an expression references, in
// FROM order.
func (b *builder) scansIn(e sqlparser.Expr) []*Scan {
	seen := map[string]bool{}
	for _, cr := range sqlparser.ColumnsIn(e) {
		if cr.Table == "" {
			continue
		}
		seen[strings.ToLower(cr.Table)] = true
	}
	var out []*Scan
	for _, s := range b.scans {
		if seen[strings.ToLower(s.Alias)] {
			out = append(out, s)
		}
	}
	return out
}

// canonicalizeSelect qualifies every bare column reference in place.
func (b *builder) canonicalizeSelect(sel *sqlparser.Select) error {
	var err error
	fix := func(e sqlparser.Expr, allowProjAlias bool) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
			cr, ok := x.(*sqlparser.ColumnRef)
			if !ok || err != nil {
				return
			}
			if cr.Table != "" {
				a := strings.ToLower(cr.Table)
				s, ok := b.aliases[a]
				if !ok {
					err = fmt.Errorf("planner: unknown relation alias %q", cr.Table)
					return
				}
				if !s.Schema.HasColumn("", cr.Name) {
					err = fmt.Errorf("planner: relation %s has no column %q", cr.Table, cr.Name)
					return
				}
				cr.Table = s.Alias
				return
			}
			if allowProjAlias && b.projAliases[strings.ToLower(cr.Name)] {
				return
			}
			var found *Scan
			for _, s := range b.scans {
				if s.Schema.HasColumn("", cr.Name) {
					if found != nil {
						err = fmt.Errorf("planner: ambiguous column %q (in %s and %s)", cr.Name, found.Alias, s.Alias)
						return
					}
					found = s
				}
			}
			if found == nil {
				if b.projAliases[strings.ToLower(cr.Name)] {
					return // projection alias used in an expression
				}
				err = fmt.Errorf("planner: unknown column %q", cr.Name)
				return
			}
			cr.Table = found.Alias
		})
	}
	for i := range sel.Projections {
		fix(sel.Projections[i].Expr, false)
	}
	fix(sel.Where, false)
	for i := range sel.GroupBy {
		fix(sel.GroupBy[i], true)
	}
	fix(sel.Having, true)
	for i := range sel.OrderBy {
		fix(sel.OrderBy[i].Expr, true)
	}
	return err
}

// cloneSelect deep-copies the parts of a SELECT the optimizer mutates.
func cloneSelect(sel *sqlparser.Select) *sqlparser.Select {
	out := &sqlparser.Select{
		Distinct: sel.Distinct,
		Limit:    sel.Limit,
	}
	for _, p := range sel.Projections {
		cp := sqlparser.SelectExpr{Alias: p.Alias, Star: p.Star, StarTable: p.StarTable}
		if p.Expr != nil {
			cp.Expr = sqlparser.CloneExpr(p.Expr)
		}
		out.Projections = append(out.Projections, cp)
	}
	out.From = append(out.From, sel.From...)
	if sel.Where != nil {
		out.Where = sqlparser.CloneExpr(sel.Where)
	}
	for _, g := range sel.GroupBy {
		out.GroupBy = append(out.GroupBy, sqlparser.CloneExpr(g))
	}
	if sel.Having != nil {
		out.Having = sqlparser.CloneExpr(sel.Having)
	}
	for _, o := range sel.OrderBy {
		out.OrderBy = append(out.OrderBy, sqlparser.OrderItem{Expr: sqlparser.CloneExpr(o.Expr), Desc: o.Desc})
	}
	return out
}
