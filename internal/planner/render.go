package planner

import (
	"fmt"
	"strings"

	"xdb/internal/sqlparser"
)

// How a statement is spelled. XDB's tasks, the mediator fallback, the
// Garlic/Presto fragments and Sclera's views and CTAS statements are all
// written here, over global column identities, so the systems differ in
// where cross-database operations run and never in how a statement reads:
//
//   - a Resolution maps each global column identity to the relation and
//     column that carry it in one statement; its rewrite is the only
//     rewrite of column references;
//   - Resolution.Final renders the query's final block: projections with
//     their output names, GROUP BY, HAVING, ORDER BY resolved against the
//     output names, DISTINCT and LIMIT;
//   - RenderFragment renders co-located scans as one pushed-down fragment.
//
// Task rendering: each task's algebraic fragment becomes one SELECT
// statement in the neutral dialect (the connectors re-render identifiers
// per vendor). Fragments are select-project-join blocks — scans with
// pushed-down filters, joins with keys and residuals, placeholders for
// child-task outputs — optionally topped by the query's Final block in the
// root task.
//
// Column identity across tasks: a task exports under deterministic mangled
// names ("alias.col" -> "alias_col"), so a parent task — and the parent's
// parent — can reference any exported column by recomputing the mangling,
// without coordinating schemas at deployment time. It exports exactly the
// columns read above it (finalizer.noteReads), pass-through columns for
// its ancestors included: a join key its own fragment consumed, or a
// column only a filter used, does not cross the wire.

// MangleCol converts a global column identity to its exported name.
func MangleCol(globalID string) string {
	return strings.ReplaceAll(strings.ToLower(globalID), ".", "_")
}

// Describe renders the delegation plan with each task's rendered SQL —
// what EXPLAIN shows users before anything is deployed. Placeholders bind
// to symbolic relation names ("<t2>").
func (p *Plan) Describe() (string, error) {
	var b strings.Builder
	for _, t := range p.Tasks {
		// Temporarily bind unbound placeholders.
		var bound []*Placeholder
		for _, e := range t.Inputs {
			if e.Placeholder.Rel == "" {
				e.Placeholder.Rel = fmt.Sprintf("<t%d>", e.From.ID)
				bound = append(bound, e.Placeholder)
			}
		}
		sel, err := t.Render()
		for _, ph := range bound {
			ph.Rel = ""
		}
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "t%d @%s: %s\n", t.ID, t.Node, OpString(t.Root))
		fmt.Fprintf(&b, "    %s\n", sel)
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "t%d --%s--> t%d (~%.0f rows)\n", e.From.ID, e.Move, e.To.ID, e.EstRows)
	}
	return b.String(), nil
}

// renderer gathers a task fragment's FROM list, conjuncts and column
// resolution.
type renderer struct {
	from  []sqlparser.TableRef
	where []sqlparser.Expr
	res   Resolution
}

// Render renders the task's fragment as one SELECT statement.
// Placeholder Rel names must be set (delegation does this before
// rendering).
func (t *Task) Render() (*sqlparser.Select, error) {
	r := &renderer{res: Resolution{}}
	final, err := r.walk(t.Root)
	if err != nil {
		return nil, err
	}
	sel := &sqlparser.Select{From: r.from, Limit: -1}
	if err := r.res.Where(sel, r.where); err != nil {
		return nil, err
	}
	if final != nil {
		// Root task: the user's projection/aggregation/order/limit block.
		err = r.res.Final(sel, final.Sel)
	} else {
		// Intermediate task: export what the consumer reads under the
		// mangled names.
		err = r.res.Export(sel, t.exports)
	}
	if err != nil {
		return nil, fmt.Errorf("task t%d: %w", t.ID, err)
	}
	return sel, nil
}

// walk gathers FROM entries, predicates, and the resolution map; it
// returns the Final block if the fragment has one (root task).
func (r *renderer) walk(op Op) (*Final, error) {
	switch o := op.(type) {
	case *Scan:
		r.from = append(r.from, sqlparser.TableRef{Name: o.Table, Alias: o.Alias})
		r.res.bindScan(o.Alias, o)
		if o.Filter != nil {
			r.where = append(r.where, o.Filter)
		}
		return nil, nil

	case *Placeholder:
		if o.Rel == "" {
			return nil, fmt.Errorf("planner: render: placeholder for task t%d has no relation bound", o.ChildTask)
		}
		alias := fmt.Sprintf("ph%d", o.ChildTask)
		r.from = append(r.from, sqlparser.TableRef{Name: o.Rel, Alias: alias})
		if o.RawScan != nil {
			// A4 ablation: the foreign table exposes the base relation
			// verbatim; the child's pushed-down filter runs here instead.
			r.res.bindScan(alias, o.RawScan)
			if o.RawScan.Filter != nil {
				r.where = append(r.where, o.RawScan.Filter)
			}
			return nil, nil
		}
		r.res.Bind(alias, o.Cols)
		return nil, nil

	case *Join:
		if _, err := r.walk(o.L); err != nil {
			return nil, err
		}
		if _, err := r.walk(o.R); err != nil {
			return nil, err
		}
		for _, k := range o.Keys {
			r.where = append(r.where, &sqlparser.BinaryExpr{Op: sqlparser.OpEq, L: k.L, R: k.R})
		}
		r.where = append(r.where, o.Residual...)
		return nil, nil

	case *Final:
		if _, err := r.walk(o.In); err != nil {
			return nil, err
		}
		return o, nil

	default:
		return nil, fmt.Errorf("planner: render: unexpected operator %T", op)
	}
}

// Resolution maps a lower-cased global column identity ("alias.col") to
// the relation and column that carry it in one statement.
type Resolution map[string][2]string

// Bind resolves each global column identity of gids to its exported
// MangleCol name on relation rel: a child task's placeholder, a fetched
// fragment, an intermediate table.
func (r Resolution) Bind(rel string, gids []string) {
	for _, gid := range gids {
		r[strings.ToLower(gid)] = [2]string{rel, MangleCol(gid)}
	}
}

// bindScan resolves every column of the base relation s scans to its own
// name on relation rel.
func (r Resolution) bindScan(rel string, s *Scan) {
	for _, c := range s.Schema.Columns {
		r[strings.ToLower(s.Alias+"."+c.Name)] = [2]string{rel, c.Name}
	}
}

// rewrite maps every qualified column reference of a copy of e to its
// resolved name. References without a table qualifier (projection
// aliases) pass through.
func (r Resolution) rewrite(e sqlparser.Expr) (sqlparser.Expr, error) {
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
		loc, ok := r[strings.ToLower(cr.Table+"."+cr.Name)]
		if !ok {
			err = fmt.Errorf("planner: render: column %s.%s not available", cr.Table, cr.Name)
			return
		}
		cr.Table, cr.Name = loc[0], loc[1]
	})
	return out, err
}

// rewriteAll rewrites each of es; nil when es is empty.
func (r Resolution) rewriteAll(es []sqlparser.Expr) ([]sqlparser.Expr, error) {
	var out []sqlparser.Expr
	for _, e := range es {
		re, err := r.rewrite(e)
		if err != nil {
			return nil, err
		}
		out = append(out, re)
	}
	return out, nil
}

// Where sets sel's WHERE clause to the conjunction of conjs, rewritten.
func (r Resolution) Where(sel *sqlparser.Select, conjs []sqlparser.Expr) error {
	rw, err := r.rewriteAll(conjs)
	sel.Where = sqlparser.JoinConjuncts(rw)
	return err
}

// Export appends a projection of each global column identity of gids
// under its MangleCol name.
func (r Resolution) Export(sel *sqlparser.Select, gids []string) error {
	for _, gid := range gids {
		loc, ok := r[strings.ToLower(gid)]
		if !ok {
			return fmt.Errorf("planner: render: column %s not available", gid)
		}
		sel.Projections = append(sel.Projections, sqlparser.SelectExpr{
			Expr:  &sqlparser.ColumnRef{Table: loc[0], Name: loc[1]},
			Alias: MangleCol(gid),
		})
	}
	return nil
}

// Final sets sel's final block from the canonicalized statement canon:
// projections with their output names, DISTINCT, GROUP BY, HAVING,
// ORDER BY and LIMIT.
func (r Resolution) Final(sel, canon *sqlparser.Select) error {
	// projOut maps each projection's rewritten rendering to its output
	// column name, so ORDER BY keys — which engines resolve against the
	// projected output schema — can be rewritten to output names.
	projOut := map[string]string{}
	for _, p := range canon.Projections {
		re, err := r.rewrite(p.Expr)
		if err != nil {
			return err
		}
		alias := p.Alias
		if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok && alias == "" {
			// Exported name must be stable for the client; a plain
			// column keeps its name.
			alias = cr.Name
		}
		key, out := re.String(), alias
		if out == "" {
			out = key
		}
		if _, dup := projOut[key]; !dup {
			projOut[key] = out
		}
		sel.Projections = append(sel.Projections, sqlparser.SelectExpr{Expr: re, Alias: alias})
	}
	var err error
	if sel.GroupBy, err = r.rewriteAll(canon.GroupBy); err != nil {
		return err
	}
	if sel.Having, err = r.rewrite(canon.Having); err != nil {
		return err
	}
	for _, o := range canon.OrderBy {
		ro, err := r.rewrite(o.Expr)
		if err != nil {
			return err
		}
		if out, ok := projOut[ro.String()]; ok {
			ro = &sqlparser.ColumnRef{Name: out}
		}
		sel.OrderBy = append(sel.OrderBy, sqlparser.OrderItem{Expr: ro, Desc: o.Desc})
	}
	sel.Distinct, sel.Limit = canon.Distinct, canon.Limit
	return nil
}

// RenderFragment renders co-located scans as one pushed-down fragment:
// every scan's pruned columns under their MangleCol names, the scans'
// pushed-down filters, then the intra-fragment join conjuncts. The scans
// keep their own aliases, so nothing is rewritten. It returns the
// statement and the global column identities it exports, in order.
func RenderFragment(scans []*Scan, joins []sqlparser.Expr) (*sqlparser.Select, []string) {
	sel := &sqlparser.Select{Limit: -1}
	var conjs []sqlparser.Expr
	var cols []string
	for _, s := range scans {
		sel.From = append(sel.From, sqlparser.TableRef{Name: s.Table, Alias: s.Alias})
		if s.Filter != nil {
			conjs = append(conjs, s.Filter)
		}
		for _, c := range s.Cols {
			sel.Projections = append(sel.Projections, sqlparser.SelectExpr{
				Expr:  &sqlparser.ColumnRef{Table: s.Alias, Name: c},
				Alias: MangleCol(s.Alias + "." + c),
			})
		}
		cols = append(cols, s.OutCols()...)
	}
	sel.Where = sqlparser.JoinConjuncts(append(conjs, joins...))
	return sel, cols
}
