package core

import (
	"fmt"
	"strings"

	"xdb/internal/sqlparser"
)

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
		sel, err := renderTask(t)
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

// renderer rewrites a task fragment to SQL.
type renderer struct {
	// from accumulates the FROM list.
	from []sqlparser.TableRef
	// where accumulates conjuncts.
	where []sqlparser.Expr
	// resolve maps lower-cased global column identity to its (table
	// alias, column name) within this task.
	resolve map[string][2]string
}

// renderTask renders one task's fragment. Placeholder Rel names must be
// set (delegation does this before rendering).
func renderTask(t *Task) (*sqlparser.Select, error) {
	r := &renderer{resolve: map[string][2]string{}}
	final, err := r.walk(t.Root)
	if err != nil {
		return nil, err
	}

	sel := &sqlparser.Select{Limit: -1}
	sel.From = r.from
	// Rewrite accumulated predicates against the local names.
	for _, w := range r.where {
		rw, err := r.rewrite(w)
		if err != nil {
			return nil, err
		}
		if sel.Where == nil {
			sel.Where = rw
		} else {
			sel.Where = &sqlparser.BinaryExpr{Op: sqlparser.OpAnd, L: sel.Where, R: rw}
		}
	}

	if final != nil {
		// Root task: the user's projection/aggregation/order/limit block.
		// projOut maps each projection's rewritten rendering to its output
		// column name, so ORDER BY keys — which engines resolve against the
		// projected output schema — can be rewritten to output names.
		projOut := map[string]string{}
		for _, p := range final.Sel.Projections {
			re, err := r.rewrite(p.Expr)
			if err != nil {
				return nil, err
			}
			alias := p.Alias
			if alias == "" {
				// Exported name must be stable for the client; a plain
				// column keeps its name.
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
		sel.Distinct = final.Sel.Distinct
		for _, g := range final.Sel.GroupBy {
			rg, err := r.rewrite(g)
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, rg)
		}
		if final.Sel.Having != nil {
			rh, err := r.rewrite(final.Sel.Having)
			if err != nil {
				return nil, err
			}
			sel.Having = rh
		}
		for _, o := range final.Sel.OrderBy {
			ro, err := r.rewrite(o.Expr)
			if err != nil {
				return nil, err
			}
			// ORDER BY resolves against the projected output: keys that
			// match a projection are replaced by its output name.
			if out, ok := projOut[ro.String()]; ok {
				ro = &sqlparser.ColumnRef{Name: out}
			}
			sel.OrderBy = append(sel.OrderBy, sqlparser.OrderItem{Expr: ro, Desc: o.Desc})
		}
		sel.Limit = final.Sel.Limit
		return sel, nil
	}

	// Intermediate task: export what the consumer reads under the mangled
	// names.
	for _, gid := range t.exports {
		loc, ok := r.resolve[strings.ToLower(gid)]
		if !ok {
			return nil, fmt.Errorf("core: render: column %s not resolvable in task t%d", gid, t.ID)
		}
		sel.Projections = append(sel.Projections, sqlparser.SelectExpr{
			Expr:  &sqlparser.ColumnRef{Table: loc[0], Name: loc[1]},
			Alias: MangleCol(gid),
		})
	}
	return sel, nil
}

// walk gathers FROM entries, predicates, and the resolution map; it
// returns the Final block if the fragment has one (root task).
func (r *renderer) walk(op Op) (*Final, error) {
	switch o := op.(type) {
	case *Scan:
		r.from = append(r.from, sqlparser.TableRef{Name: o.Table, Alias: o.Alias})
		for _, c := range o.Schema.Columns {
			r.resolve[strings.ToLower(o.Alias+"."+c.Name)] = [2]string{o.Alias, c.Name}
		}
		if o.Filter != nil {
			r.where = append(r.where, o.Filter)
		}
		return nil, nil

	case *Placeholder:
		if o.Rel == "" {
			return nil, fmt.Errorf("core: render: placeholder for task t%d has no relation bound", o.ChildTask)
		}
		alias := fmt.Sprintf("ph%d", o.ChildTask)
		r.from = append(r.from, sqlparser.TableRef{Name: o.Rel, Alias: alias})
		if o.RawScan != nil {
			// A4 ablation: the foreign table exposes the base relation
			// verbatim; the child's pushed-down filter runs here instead.
			for _, c := range o.RawScan.Schema.Columns {
				r.resolve[strings.ToLower(o.RawScan.Alias+"."+c.Name)] = [2]string{alias, c.Name}
			}
			if o.RawScan.Filter != nil {
				r.where = append(r.where, o.RawScan.Filter)
			}
			return nil, nil
		}
		for _, gid := range o.Cols {
			r.resolve[strings.ToLower(gid)] = [2]string{alias, MangleCol(gid)}
		}
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
		return nil, fmt.Errorf("core: render: unexpected operator %T", op)
	}
}

// rewrite maps every qualified column reference of e to the task-local
// name. References without a table qualifier (projection aliases) pass
// through.
func (r *renderer) rewrite(e sqlparser.Expr) (sqlparser.Expr, error) {
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
		loc, ok := r.resolve[strings.ToLower(cr.Table+"."+cr.Name)]
		if !ok {
			err = fmt.Errorf("core: render: column %s.%s not available in task", cr.Table, cr.Name)
			return
		}
		cr.Table, cr.Name = loc[0], loc[1]
	})
	return out, err
}
