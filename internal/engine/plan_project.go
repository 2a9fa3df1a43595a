package engine

import (
	"fmt"
	"math"
	"strings"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// planProjection plans the SELECT list, including grouping and aggregation.
//
// For aggregate queries the plan is the textbook two-step: a hash aggregate
// produces rows of [group keys..., aggregate values...], and a post
// projection computes the final output expressions over that intermediate
// schema (each aggregate call rewritten to a positional reference).
func (e *Engine) planProjection(in *planNode, sel *sqlparser.Select) (*planNode, error) {
	projections, err := expandStars(sel.Projections, in.schema)
	if err != nil {
		return nil, err
	}

	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, p := range projections {
		if sqlparser.HasAggregate(p.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		return e.planSimpleProjection(in, projections)
	}
	return e.planAggregate(in, sel, projections)
}

// planSimpleProjection evaluates the output expressions over each batch.
// A projection that lists its input's columns in order (SELECT * over a
// view, a select list a pruned join already matches) only renames them:
// it forwards its input's batches untouched.
func (e *Engine) planSimpleProjection(in *planNode, projections []sqlparser.SelectExpr) (*planNode, error) {
	exprs := make([]compiledExpr, len(projections))
	cols := make([]int, len(projections)) // input column per output, if all are bare columns
	bare := true
	outSchema := &sqltypes.Schema{}
	for i, p := range projections {
		fn, err := compileExpr(p.Expr, in.schema)
		if err != nil {
			return nil, err
		}
		exprs[i] = fn
		outSchema.Columns = append(outSchema.Columns, outputColumn(p, in.schema))
		if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
			cols[i], _ = in.schema.Resolve(cr.Table, cr.Name) // compiled above, so it resolves
		} else {
			bare = false
		}
	}
	if !bare {
		cols = nil
	}
	identity := bare && len(cols) == in.schema.Len()
	for i, c := range cols {
		identity = identity && c == i
	}
	inOpen := in.open
	node := &planNode{
		desc:   "Project",
		schema: outSchema,
		est:    in.est,
		cost:   in.cost + in.est*cProjectTuple,
		kids:   []*planNode{in},
		open:   inOpen,
	}
	if identity {
		node.spine = in.spine
		return node, nil
	}
	node.open = func(st *statement) (BatchIter, error) {
		it, err := inOpen(st)
		if err != nil {
			return nil, err
		}
		return &projectIter{in: it, exprs: exprs, cols: cols, spares: &st.spares}, nil
	}
	if in.spine == nil || in.spine.probes() {
		return node, nil
	}
	return node.headed(in.spine.with(spineStage{newIter: func(st *statement) stageIter { return &projectIter{exprs: exprs, cols: cols, spares: &st.spares} }})), nil
}

// planAggregate plans GROUP BY / aggregate queries.
func (e *Engine) planAggregate(in *planNode, sel *sqlparser.Select, projections []sqlparser.SelectExpr) (*planNode, error) {
	// Group keys, with projection-alias substitution: GROUP BY age_group
	// refers to the CASE projection of the paper's motivating query.
	groupExprs := make([]sqlparser.Expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupExprs[i] = substituteAlias(g, projections)
	}

	// Collect distinct aggregate calls from projections and HAVING.
	var aggCalls []*sqlparser.FuncCall
	aggIndex := map[string]int{}
	collect := func(ex sqlparser.Expr) {
		sqlparser.WalkExpr(ex, func(x sqlparser.Expr) {
			f, ok := x.(*sqlparser.FuncCall)
			if !ok || !f.IsAggregate() {
				return
			}
			k := f.String()
			if _, dup := aggIndex[k]; !dup {
				aggIndex[k] = len(aggCalls)
				aggCalls = append(aggCalls, f)
			}
		})
	}
	for _, p := range projections {
		collect(p.Expr)
	}
	if sel.Having != nil {
		collect(substituteAlias(sel.Having, projections))
	}

	// Compile group keys and aggregate arguments against the input schema.
	keyFns := make([]compiledExpr, len(groupExprs))
	for i, g := range groupExprs {
		fn, err := compileExpr(g, in.schema)
		if err != nil {
			return nil, fmt.Errorf("GROUP BY: %w", err)
		}
		keyFns[i] = fn
	}
	aggSpecs := make([]aggSpec, len(aggCalls))
	for i, f := range aggCalls {
		spec := aggSpec{fn: f.Name, distinct: f.Distinct}
		if !f.Star {
			if len(f.Args) != 1 {
				return nil, fmt.Errorf("engine: %s expects one argument", f.Name)
			}
			fn, err := compileExpr(f.Args[0], in.schema)
			if err != nil {
				return nil, err
			}
			spec.arg = fn
		}
		aggSpecs[i] = spec
	}

	// Intermediate schema: group keys (named after their expression so the
	// post projection can resolve them) followed by aggregates.
	aggSchema := &sqltypes.Schema{}
	for i, g := range groupExprs {
		col := sqltypes.Column{Name: fmt.Sprintf("__key_%d", i), Type: inferType(g, in.schema)}
		if cr, ok := g.(*sqlparser.ColumnRef); ok {
			col.Name, col.Table = cr.Name, cr.Table
		}
		aggSchema.Columns = append(aggSchema.Columns, col)
	}
	for i, f := range aggCalls {
		aggSchema.Columns = append(aggSchema.Columns, sqltypes.Column{
			Name: fmt.Sprintf("__agg_%d", i), Type: inferType(f, in.schema),
		})
	}

	// Rewrite output expressions against the intermediate schema.
	keyRender := map[string]int{}
	for i, g := range groupExprs {
		keyRender[g.String()] = i
	}
	rewrite := func(ex sqlparser.Expr) sqlparser.Expr {
		return rewriteAggExpr(sqlparser.CloneExpr(ex), keyRender, aggIndex, aggSchema)
	}

	outExprs := make([]compiledExpr, len(projections))
	outSchema := &sqltypes.Schema{}
	for i, p := range projections {
		re := rewrite(substituteAlias(p.Expr, nil))
		fn, err := compileExpr(re, aggSchema)
		if err != nil {
			return nil, fmt.Errorf("projection %s: %w", p.Expr, err)
		}
		outExprs[i] = fn
		col := outputColumn(p, in.schema)
		if col.Type == sqltypes.TypeNull {
			col.Type = inferType(re, aggSchema)
		}
		outSchema.Columns = append(outSchema.Columns, col)
	}

	var havingFn compiledPred
	if sel.Having != nil {
		re := rewrite(substituteAlias(sel.Having, projections))
		fn, err := compilePred(re, aggSchema)
		if err != nil {
			return nil, fmt.Errorf("HAVING: %w", err)
		}
		havingFn = fn
	}

	inOpen := in.open
	groups := math.Max(in.est/10, 1)
	ns := e.profile.AggNsPerRow
	node := &planNode{
		desc:   fmt.Sprintf("HashAggregate (%d keys, %d aggs)", len(keyFns), len(aggSpecs)),
		schema: outSchema,
		est:    groups,
		cost:   in.cost + in.est*cAggTuple + groups*cProjectTuple,
		kids:   []*planNode{in},
		open: func(st *statement) (BatchIter, error) {
			it, err := inOpen(st)
			if err != nil {
				return nil, err
			}
			agg, err := hashAggregate(it, keyFns, aggSpecs, st.throttle(ns))
			if err != nil {
				return nil, err
			}
			out := agg
			if havingFn != nil {
				out = &filterIter{in: out, pred: havingFn, spares: &st.spares}
			}
			return &projectIter{in: out, exprs: outExprs, spares: &st.spares}, nil
		},
	}
	return node, nil
}

// rewriteAggExpr replaces group-key subexpressions and aggregate calls with
// column references into the intermediate aggregate schema. The expression
// must already be a private clone.
func rewriteAggExpr(ex sqlparser.Expr, keyRender map[string]int, aggIndex map[string]int, aggSchema *sqltypes.Schema) sqlparser.Expr {
	if i, ok := keyRender[ex.String()]; ok {
		c := aggSchema.Columns[i]
		return &sqlparser.ColumnRef{Table: c.Table, Name: c.Name}
	}
	if f, ok := ex.(*sqlparser.FuncCall); ok && f.IsAggregate() {
		if i, ok := aggIndex[f.String()]; ok {
			col := aggSchema.Columns[countKeys(aggSchema)+i]
			return &sqlparser.ColumnRef{Table: col.Table, Name: col.Name}
		}
	}
	switch x := ex.(type) {
	case *sqlparser.BinaryExpr:
		x.L = rewriteAggExpr(x.L, keyRender, aggIndex, aggSchema)
		x.R = rewriteAggExpr(x.R, keyRender, aggIndex, aggSchema)
	case *sqlparser.NotExpr:
		x.E = rewriteAggExpr(x.E, keyRender, aggIndex, aggSchema)
	case *sqlparser.NegExpr:
		x.E = rewriteAggExpr(x.E, keyRender, aggIndex, aggSchema)
	case *sqlparser.FuncCall:
		for i := range x.Args {
			x.Args[i] = rewriteAggExpr(x.Args[i], keyRender, aggIndex, aggSchema)
		}
	case *sqlparser.CaseExpr:
		for i := range x.Whens {
			x.Whens[i].Cond = rewriteAggExpr(x.Whens[i].Cond, keyRender, aggIndex, aggSchema)
			x.Whens[i].Result = rewriteAggExpr(x.Whens[i].Result, keyRender, aggIndex, aggSchema)
		}
		if x.Else != nil {
			x.Else = rewriteAggExpr(x.Else, keyRender, aggIndex, aggSchema)
		}
	case *sqlparser.BetweenExpr:
		x.E = rewriteAggExpr(x.E, keyRender, aggIndex, aggSchema)
		x.Lo = rewriteAggExpr(x.Lo, keyRender, aggIndex, aggSchema)
		x.Hi = rewriteAggExpr(x.Hi, keyRender, aggIndex, aggSchema)
	case *sqlparser.InExpr:
		x.E = rewriteAggExpr(x.E, keyRender, aggIndex, aggSchema)
		for i := range x.List {
			x.List[i] = rewriteAggExpr(x.List[i], keyRender, aggIndex, aggSchema)
		}
	case *sqlparser.LikeExpr:
		x.E = rewriteAggExpr(x.E, keyRender, aggIndex, aggSchema)
	case *sqlparser.IsNullExpr:
		x.E = rewriteAggExpr(x.E, keyRender, aggIndex, aggSchema)
	}
	return ex
}

// countKeys returns the number of group-key columns in the intermediate
// aggregate schema (all non-__agg columns lead the schema).
func countKeys(aggSchema *sqltypes.Schema) int {
	n := 0
	for _, c := range aggSchema.Columns {
		if strings.HasPrefix(c.Name, "__agg_") {
			break
		}
		n++
	}
	return n
}

// substituteAlias replaces bare column references that match a projection
// alias with the projection's expression (SQL's GROUP BY / HAVING alias
// visibility).
func substituteAlias(e sqlparser.Expr, projections []sqlparser.SelectExpr) sqlparser.Expr {
	if e == nil {
		return nil
	}
	if cr, ok := e.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		for _, p := range projections {
			if p.Alias != "" && strings.EqualFold(p.Alias, cr.Name) {
				return sqlparser.CloneExpr(p.Expr)
			}
		}
		return e
	}
	// Recurse via clone-and-rewrite.
	c := sqlparser.CloneExpr(e)
	switch x := c.(type) {
	case *sqlparser.BinaryExpr:
		x.L = substituteAlias(x.L, projections)
		x.R = substituteAlias(x.R, projections)
	case *sqlparser.NotExpr:
		x.E = substituteAlias(x.E, projections)
	case *sqlparser.NegExpr:
		x.E = substituteAlias(x.E, projections)
	case *sqlparser.FuncCall:
		for i := range x.Args {
			x.Args[i] = substituteAlias(x.Args[i], projections)
		}
	case *sqlparser.CaseExpr:
		for i := range x.Whens {
			x.Whens[i].Cond = substituteAlias(x.Whens[i].Cond, projections)
			x.Whens[i].Result = substituteAlias(x.Whens[i].Result, projections)
		}
		if x.Else != nil {
			x.Else = substituteAlias(x.Else, projections)
		}
	case *sqlparser.BetweenExpr:
		x.E = substituteAlias(x.E, projections)
		x.Lo = substituteAlias(x.Lo, projections)
		x.Hi = substituteAlias(x.Hi, projections)
	}
	return c
}

// expandStars replaces * and t.* projections with explicit column
// references.
func expandStars(projections []sqlparser.SelectExpr, schema *sqltypes.Schema) ([]sqlparser.SelectExpr, error) {
	var out []sqlparser.SelectExpr
	for _, p := range projections {
		if !p.Star {
			out = append(out, p)
			continue
		}
		matched := false
		for _, c := range schema.Columns {
			if p.StarTable != "" && !strings.EqualFold(c.Table, p.StarTable) {
				continue
			}
			matched = true
			out = append(out, sqlparser.SelectExpr{
				Expr: &sqlparser.ColumnRef{Table: c.Table, Name: c.Name},
			})
		}
		if !matched {
			return nil, fmt.Errorf("engine: %s.* matches no columns", p.StarTable)
		}
	}
	return out, nil
}

// projectionName returns the output column name for a projection.
func projectionName(p sqlparser.SelectExpr) string {
	if p.Alias != "" {
		return p.Alias
	}
	if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
		return cr.Name
	}
	return p.Expr.String()
}

// outputColumn builds the output schema column for a projection. Plain
// column references keep their table qualifier so that views preserve
// provenance.
func outputColumn(p sqlparser.SelectExpr, in *sqltypes.Schema) sqltypes.Column {
	col := sqltypes.Column{Name: projectionName(p), Type: inferType(p.Expr, in)}
	if p.Alias == "" {
		if cr, ok := p.Expr.(*sqlparser.ColumnRef); ok {
			col.Table = cr.Table
		}
	}
	return col
}

// OutputSchema computes the result schema of a SELECT against this engine's
// catalog without executing it (used when creating views).
func (e *Engine) OutputSchema(sel *sqlparser.Select) (*sqltypes.Schema, error) {
	node, err := e.planSelect(sel)
	if err != nil {
		return nil, err
	}
	// Strip table qualifiers that leak iterator internals: a view's output
	// columns are referenced by the view's alias.
	out := node.schema.Clone()
	for i := range out.Columns {
		out.Columns[i].Table = ""
	}
	return out, nil
}
