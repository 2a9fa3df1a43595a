package engine

import (
	"fmt"
	"math"
	"strings"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// planNode is a node of the engine's physical plan: a schema, cardinality
// and cost estimates, and an open function producing the batch iterator.
// Engines are black boxes to XDB — this planner is *their* local optimizer,
// the one the paper relies on when it delegates whole tasks ("allows
// underlying DBMSes to locally optimize the query").
type planNode struct {
	desc   string
	schema *sqltypes.Schema
	est    float64 // estimated output rows
	cost   float64 // cumulative cost in engine-internal units
	open   func() (BatchIter, error)
	kids   []*planNode
}

// Internal cost-model constants (engine units; vendors scale these through
// Profile.CostUnit when reporting via EXPLAIN).
const (
	cScanTuple    = 1.0
	cFilterTuple  = 0.1
	cJoinBuild    = 1.5
	cJoinProbe    = 1.0
	cJoinOut      = 0.5
	cAggTuple     = 1.2
	cSortFactor   = 2.0
	cProjectTuple = 0.05
	cForeignTuple = 10.0 // remote rows are expensive: fetch + decode
)

// relNode is a FROM-list relation during join planning.
type relNode struct {
	alias string
	node  *planNode
}

// planSelect builds the physical plan for a SELECT.
func (e *Engine) planSelect(sel *sqlparser.Select) (*planNode, error) {
	if len(sel.From) == 0 {
		return e.planConstSelect(sel)
	}

	// 1. Resolve FROM relations.
	rels := make([]*relNode, 0, len(sel.From))
	for _, ref := range sel.From {
		if ref.DB != "" && !strings.EqualFold(ref.DB, e.name) {
			return nil, fmt.Errorf("engine %s: cross-database reference %s.%s (only XDB resolves these)", e.name, ref.DB, ref.Name)
		}
		node, err := e.planRelation(ref)
		if err != nil {
			return nil, err
		}
		rels = append(rels, &relNode{alias: ref.EffectiveAlias(), node: node})
	}

	// 2. Classify WHERE conjuncts by the relations they touch.
	conjuncts := sqlparser.SplitConjuncts(sel.Where)
	var joinConjs []sqlparser.Expr
	perRel := map[string][]sqlparser.Expr{}
	aliasOf := func(c *sqlparser.ColumnRef) (string, bool) {
		if c.Table != "" {
			for _, r := range rels {
				if strings.EqualFold(r.alias, c.Table) {
					return r.alias, true
				}
			}
			return "", false
		}
		// Unqualified: find the unique relation with the column.
		var found string
		for _, r := range rels {
			if r.node.schema.HasColumn("", c.Name) {
				if found != "" {
					return "", false
				}
				found = r.alias
			}
		}
		return found, found != ""
	}
	for _, c := range conjuncts {
		touched := map[string]bool{}
		ok := true
		for _, col := range sqlparser.ColumnsIn(c) {
			a, resolved := aliasOf(col)
			if !resolved {
				ok = false
				break
			}
			touched[a] = true
		}
		if ok && len(touched) == 1 {
			for a := range touched {
				perRel[a] = append(perRel[a], c)
			}
			continue
		}
		joinConjs = append(joinConjs, c)
	}

	// 3. Push single-relation filters into the relations.
	for _, r := range rels {
		preds := perRel[r.alias]
		if len(preds) == 0 {
			continue
		}
		var err error
		r.node, err = e.planFilter(r.node, sqlparser.JoinConjuncts(preds))
		if err != nil {
			return nil, err
		}
	}

	// 4. Order and build the joins, each emitting only the columns that
	// the rest of the statement or a later join still reads.
	joined, err := e.planJoins(rels, joinConjs, selectNeeds(sel))
	if err != nil {
		return nil, err
	}

	// 5. Aggregation / projection.
	out, err := e.planProjection(joined, sel)
	if err != nil {
		return nil, err
	}

	// 6. ORDER BY, DISTINCT, LIMIT (the sort first, so a pre-projection
	// sort can still feed the projection; dedup preserves encounter
	// order, so DISTINCT after the sort is equivalent).
	if len(sel.OrderBy) > 0 {
		// Order keys normally resolve against the projected output. For
		// non-aggregate queries a key may reference a column the
		// projection dropped (e.g. SELECT name FROM t ORDER BY age) —
		// then the sort runs on the pre-projection input instead, with
		// projection aliases substituted into the keys.
		resolvesOnOutput := true
		for _, it := range sel.OrderBy {
			if _, err := compileExpr(it.Expr, out.schema); err != nil {
				resolvesOnOutput = false
				break
			}
		}
		if resolvesOnOutput {
			out = planSort(out, sel.OrderBy)
		} else {
			hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
			for _, p := range sel.Projections {
				if sqlparser.HasAggregate(p.Expr) {
					hasAgg = true
				}
			}
			if hasAgg {
				// Aggregated output has no pre-projection row to sort.
				for _, it := range sel.OrderBy {
					if _, err := compileExpr(it.Expr, out.schema); err != nil {
						return nil, fmt.Errorf("ORDER BY: %w", err)
					}
				}
			}
			items := make([]sqlparser.OrderItem, len(sel.OrderBy))
			for i, it := range sel.OrderBy {
				items[i] = sqlparser.OrderItem{Expr: substituteAlias(it.Expr, sel.Projections), Desc: it.Desc}
			}
			for _, it := range items {
				if _, err := compileExpr(it.Expr, joined.schema); err != nil {
					return nil, fmt.Errorf("ORDER BY: %w", err)
				}
			}
			sorted := planSort(joined, items)
			out, err = e.planProjection(sorted, sel)
			if err != nil {
				return nil, err
			}
		}
	}
	if sel.Distinct {
		in := out
		out = &planNode{
			desc:   "Distinct",
			schema: in.schema,
			est:    in.est * 0.9,
			cost:   in.cost + in.est*cAggTuple,
			kids:   []*planNode{in},
			open: func() (BatchIter, error) {
				it, err := in.open()
				if err != nil {
					return nil, err
				}
				return &distinctIter{in: it, seen: newRowSet(in.schema.Len())}, nil
			},
		}
	}
	if sel.Limit >= 0 {
		in := out
		n := sel.Limit
		est := math.Min(in.est, float64(n))
		out = &planNode{
			desc:   fmt.Sprintf("Limit %d", n),
			schema: in.schema,
			est:    est,
			cost:   in.cost,
			kids:   []*planNode{in},
			open: func() (BatchIter, error) {
				it, err := in.open()
				if err != nil {
					return nil, err
				}
				return &limitIter{in: it, left: n}, nil
			},
		}
	}
	return out, nil
}

// planSort wraps a node with a materializing sort on the given keys
// (which must compile against the node's schema).
func planSort(in *planNode, items []sqlparser.OrderItem) *planNode {
	n := in.est
	schema := in.schema
	inOpen := in.open
	return &planNode{
		desc:   "Sort",
		schema: schema,
		est:    n,
		cost:   in.cost + cSortFactor*n*math.Log2(n+2),
		kids:   []*planNode{in},
		open: func() (BatchIter, error) {
			it, err := inOpen()
			if err != nil {
				return nil, err
			}
			return sortRows(it, items, schema)
		},
	}
}

// planConstSelect handles SELECT without FROM (SELECT 1, used by probes).
func (e *Engine) planConstSelect(sel *sqlparser.Select) (*planNode, error) {
	empty := sqltypes.NewSchema()
	exprs := make([]compiledExpr, len(sel.Projections))
	outSchema := &sqltypes.Schema{}
	for i, p := range sel.Projections {
		if p.Star {
			return nil, fmt.Errorf("engine: SELECT * without FROM")
		}
		fn, err := compileExpr(p.Expr, empty)
		if err != nil {
			return nil, err
		}
		exprs[i] = fn
		outSchema.Columns = append(outSchema.Columns, sqltypes.Column{
			Name: projectionName(p), Type: inferType(p.Expr, empty),
		})
	}
	return &planNode{
		desc:   "Result",
		schema: outSchema,
		est:    1,
		cost:   1,
		open: func() (BatchIter, error) {
			row := make(sqltypes.Row, len(exprs))
			for i, fn := range exprs {
				v, err := fn(nil)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			return &rowsIter{rows: []sqltypes.Row{row}}, nil
		},
	}, nil
}

// planRelation resolves one FROM entry to a plan over a base table, a
// view, or a foreign table.
func (e *Engine) planRelation(ref sqlparser.TableRef) (*planNode, error) {
	alias := ref.EffectiveAlias()
	if t, ok := e.catalog.Table(ref.Name); ok {
		schema := aliasSchema(t.Schema, alias)
		rows := t.Rows
		ns := e.profile.ScanNsPerRow
		return &planNode{
			desc:   fmt.Sprintf("SeqScan %s", t.Name),
			schema: schema,
			est:    float64(len(rows)),
			cost:   float64(len(rows)) * cScanTuple,
			open: func() (BatchIter, error) {
				return &scanIter{rows: rows, throttle: cpuThrottle{nsPerRow: ns}}, nil
			},
		}, nil
	}
	if v, ok := e.catalog.View(ref.Name); ok {
		inner, err := e.planSelect(v.Query)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", v.Name, err)
		}
		schema := aliasSchema(v.Schema, alias)
		return &planNode{
			desc:   fmt.Sprintf("View %s", v.Name),
			schema: schema,
			est:    inner.est,
			cost:   inner.cost,
			kids:   []*planNode{inner},
			open:   inner.open,
		}, nil
	}
	if f, ok := e.catalog.Foreign(ref.Name); ok {
		return e.planForeignScan(f, alias)
	}
	return nil, fmt.Errorf("engine %s: unknown relation %q", e.name, ref.Name)
}

// planForeignScan builds the SQL/MED remote fetch. The remote query is
// always SELECT * FROM <remote> — the paper's delegation scheme arranges
// for the remote relation to already be the right virtual relation, so the
// wrapper never needs to push anything down (Sec. V).
func (e *Engine) planForeignScan(f *ForeignTable, alias string) (*planNode, error) {
	srv, ok := e.catalog.Server(f.Server)
	if !ok {
		return nil, fmt.Errorf("engine %s: foreign table %s references unknown server %q", e.name, f.Name, f.Server)
	}
	if e.remote == nil {
		return nil, fmt.Errorf("engine %s: no foreign data wrapper configured", e.name)
	}
	schema := aliasSchema(f.Schema, alias)
	remoteSQL := "SELECT * FROM " + f.RemoteTable
	est := e.foreignEstimate(srv, f.RemoteTable)
	rq := e.remote
	desc := fmt.Sprintf("ForeignScan %s (server %s, remote %s)", f.Name, f.Server, f.RemoteTable)
	open := func() (BatchIter, error) {
		_, it, err := rq.QueryRemote(srv, remoteSQL)
		if err != nil {
			return nil, fmt.Errorf("foreign scan %s: %w", f.Name, err)
		}
		return it, nil
	}
	cost := est * cForeignTuple
	if f.Materialize {
		// Explicit movement: fetch once, store locally, scan the stored
		// copy (and every later scan hits the copy).
		desc = fmt.Sprintf("MaterializedForeignScan %s (server %s, remote %s)", f.Name, f.Server, f.RemoteTable)
		cost = est*cForeignTuple + est*cScanTuple
		open = func() (BatchIter, error) {
			rows, err := f.materialized(rq, srv, remoteSQL)
			if err != nil {
				return nil, err
			}
			return &scanIter{rows: rows, throttle: cpuThrottle{nsPerRow: e.profile.ScanNsPerRow}}, nil
		}
	}
	return &planNode{
		desc:   desc,
		schema: schema,
		est:    est,
		cost:   cost,
		open:   open,
	}, nil
}

// materialized returns the locally stored copy of the remote relation,
// fetching it on first use.
func (f *ForeignTable) materialized(rq RemoteQuerier, srv *Server, remoteSQL string) ([]sqltypes.Row, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.filled {
		return f.cached, nil
	}
	_, it, err := rq.QueryRemote(srv, remoteSQL)
	if err != nil {
		return nil, fmt.Errorf("materializing foreign table %s: %w", f.Name, err)
	}
	rows, err := Drain(it)
	if err != nil {
		return nil, fmt.Errorf("materializing foreign table %s: %w", f.Name, err)
	}
	f.cached = rows
	f.filled = true
	return rows, nil
}

// foreignEstimate asks the remote for a row-count estimate; failures fall
// back to a default guess (the planner must not fail because a peer is
// temporarily unreachable).
func (e *Engine) foreignEstimate(srv *Server, remoteTable string) float64 {
	if e.remote == nil {
		return 1000
	}
	if st, err := e.remote.StatsRemote(srv, remoteTable); err == nil && st != nil {
		return float64(st.RowCount)
	}
	return 1000
}

// planFilter wraps a node with a predicate.
func (e *Engine) planFilter(in *planNode, pred sqlparser.Expr) (*planNode, error) {
	fn, err := compilePred(pred, in.schema)
	if err != nil {
		return nil, err
	}
	sel := estimateSelectivity(pred)
	inOpen := in.open
	return &planNode{
		desc:   fmt.Sprintf("Filter (%s)", pred),
		schema: in.schema,
		est:    math.Max(in.est*sel, 1),
		cost:   in.cost + in.est*cFilterTuple,
		kids:   []*planNode{in},
		open: func() (BatchIter, error) {
			it, err := inOpen()
			if err != nil {
				return nil, err
			}
			return &filterIter{in: it, pred: fn}, nil
		},
	}, nil
}

// estimateSelectivity applies textbook selectivity heuristics.
func estimateSelectivity(pred sqlparser.Expr) float64 {
	switch x := pred.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return estimateSelectivity(x.L) * estimateSelectivity(x.R)
		case sqlparser.OpOr:
			s := estimateSelectivity(x.L) + estimateSelectivity(x.R)
			return math.Min(s, 1)
		case sqlparser.OpEq:
			return 0.05
		case sqlparser.OpNe:
			return 0.95
		default:
			return 1.0 / 3
		}
	case *sqlparser.BetweenExpr:
		return 0.25
	case *sqlparser.InExpr:
		return math.Min(0.05*float64(len(x.List)), 1)
	case *sqlparser.LikeExpr:
		return 0.1
	case *sqlparser.IsNullExpr:
		return 0.05
	case *sqlparser.NotExpr:
		return 1 - estimateSelectivity(x.E)
	default:
		return 0.5
	}
}

// equiKey is one hash-joinable predicate between two relations.
type equiKey struct {
	left, right *sqlparser.ColumnRef
}

// planJoins orders the relations and builds left-deep hash joins, falling
// back to nested loops for non-equi conditions. Narrow queries get an
// exact Selinger-style enumeration (minimizing the sum of intermediate
// cardinalities); wide ones a greedy heuristic (smallest first, cheapest
// connected join next).
func (e *Engine) planJoins(rels []*relNode, joinConjs []sqlparser.Expr, needs colNeeds) (*planNode, error) {
	if len(rels) == 1 {
		cur := rels[0].node
		return e.applyResidual(cur, joinConjs)
	}
	if len(rels) <= localDPMaxRelations {
		return e.planJoinsDP(rels, joinConjs, needs)
	}

	remaining := make(map[string]*relNode, len(rels))
	for _, r := range rels {
		remaining[strings.ToLower(r.alias)] = r
	}
	// Start from the smallest relation.
	var cur *planNode
	var curAliases map[string]bool
	var start *relNode
	for _, r := range remaining {
		if start == nil || r.node.est < start.node.est {
			start = r
		}
	}
	cur = start.node
	curAliases = map[string]bool{strings.ToLower(start.alias): true}
	delete(remaining, strings.ToLower(start.alias))

	pending := append([]sqlparser.Expr(nil), joinConjs...)

	resolvesIn := func(c *sqlparser.ColumnRef, schema *sqltypes.Schema) bool {
		return schema.HasColumn(c.Table, c.Name)
	}

	for len(remaining) > 0 {
		// Candidates connected to the current set.
		type candidate struct {
			rel  *relNode
			keys []equiKey
			est  float64
		}
		var best *candidate
		for _, r := range remaining {
			var keys []equiKey
			for _, c := range pending {
				be, ok := c.(*sqlparser.BinaryExpr)
				if !ok || be.Op != sqlparser.OpEq {
					continue
				}
				lc, lok := be.L.(*sqlparser.ColumnRef)
				rc, rok := be.R.(*sqlparser.ColumnRef)
				if !lok || !rok {
					continue
				}
				switch {
				case resolvesIn(lc, cur.schema) && resolvesIn(rc, r.node.schema):
					keys = append(keys, equiKey{left: lc, right: rc})
				case resolvesIn(rc, cur.schema) && resolvesIn(lc, r.node.schema):
					keys = append(keys, equiKey{left: rc, right: lc})
				}
			}
			if len(keys) == 0 {
				continue
			}
			est := estJoinRows(cur.est, r.node.est, len(keys))
			if best == nil || est < best.est {
				best = &candidate{rel: r, keys: keys, est: est}
			}
		}
		if best == nil {
			// No connected relation: take the smallest remaining as a
			// cross join (rare; kept for completeness).
			var r *relNode
			for _, cand := range remaining {
				if r == nil || cand.node.est < r.node.est {
					r = cand
				}
			}
			best = &candidate{rel: r, est: cur.est * r.node.est}
		}

		next, usedPreds, err := e.buildJoin(cur, best.rel.node, best.keys, pending, needs)
		if err != nil {
			return nil, err
		}
		next.est = best.est
		cur = next
		curAliases[strings.ToLower(best.rel.alias)] = true
		delete(remaining, strings.ToLower(best.rel.alias))
		pending = removeExprs(pending, usedPreds)
	}
	_ = curAliases
	return e.applyResidual(cur, pending)
}

// localDPMaxRelations bounds the exact join enumeration.
const localDPMaxRelations = 10

// planJoinsDP enumerates left-deep join orders over relation subsets,
// minimizing the sum of intermediate cardinality estimates. Greedy
// one-step lookahead mis-orders query graphs where a selective residual
// predicate (like TPC-H Q7's nation-pair OR) only becomes evaluable late.
func (e *Engine) planJoinsDP(rels []*relNode, joinConjs []sqlparser.Expr, needs colNeeds) (*planNode, error) {
	n := len(rels)
	type state struct {
		node    *planNode
		pending []sqlparser.Expr
		cost    float64
	}
	dp := make(map[uint32]*state, 1<<uint(n))
	for i, r := range rels {
		dp[1<<uint(i)] = &state{node: r.node, pending: joinConjs}
	}
	full := uint32(1<<uint(n)) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if dp[mask] != nil || popcount(mask) < 2 {
			continue
		}
		var best *state
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if mask&bit == 0 {
				continue
			}
			prev := dp[mask^bit]
			if prev == nil {
				continue
			}
			keys := e.equiKeysFor(prev.node, rels[i].node, prev.pending)
			if len(keys) == 0 && best != nil && !resolvesAnyPending(prev.node, rels[i].node, prev.pending) {
				continue // avoid plain cross products when alternatives exist
			}
			joined, used, err := e.buildJoin(prev.node, rels[i].node, keys, prev.pending, needs)
			if err != nil {
				return nil, err
			}
			cost := prev.cost + joined.est
			if best == nil || cost < best.cost {
				best = &state{node: joined, pending: removeExprs(prev.pending, used), cost: cost}
			}
		}
		dp[mask] = best
	}
	final := dp[full]
	if final == nil {
		return nil, fmt.Errorf("engine %s: no join order found", e.name)
	}
	return e.applyResidual(final.node, final.pending)
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// equiKeysFor finds hash-joinable predicates between two plan nodes.
func (e *Engine) equiKeysFor(l, r *planNode, pending []sqlparser.Expr) []equiKey {
	var keys []equiKey
	for _, c := range pending {
		be, ok := c.(*sqlparser.BinaryExpr)
		if !ok || be.Op != sqlparser.OpEq {
			continue
		}
		lc, lok := be.L.(*sqlparser.ColumnRef)
		rc, rok := be.R.(*sqlparser.ColumnRef)
		if !lok || !rok {
			continue
		}
		switch {
		case l.schema.HasColumn(lc.Table, lc.Name) && r.schema.HasColumn(rc.Table, rc.Name):
			keys = append(keys, equiKey{left: lc, right: rc})
		case l.schema.HasColumn(rc.Table, rc.Name) && r.schema.HasColumn(lc.Table, lc.Name):
			keys = append(keys, equiKey{left: rc, right: lc})
		}
	}
	return keys
}

// resolvesAnyPending reports whether joining l and r makes some pending
// conjunct evaluable that references both sides.
func resolvesAnyPending(l, r *planNode, pending []sqlparser.Expr) bool {
	combined := l.schema.Concat(r.schema)
	for _, c := range pending {
		touchesL, touchesR, all := false, false, true
		for _, cr := range sqlparser.ColumnsIn(c) {
			switch {
			case l.schema.HasColumn(cr.Table, cr.Name):
				touchesL = true
			case r.schema.HasColumn(cr.Table, cr.Name):
				touchesR = true
			}
			if !combined.HasColumn(cr.Table, cr.Name) {
				all = false
			}
		}
		if all && touchesL && touchesR {
			return true
		}
	}
	return false
}

// estJoinRows estimates equi-join output: the classic |L||R|/max(|L|,|R|)
// foreign-key heuristic, shrunk for multi-key joins.
func estJoinRows(l, r float64, nkeys int) float64 {
	out := l * r / math.Max(math.Max(l, r), 1)
	for i := 1; i < nkeys; i++ {
		out /= 3
	}
	return math.Max(out, 1)
}

// colNeeds is what a SELECT reads above its joins: the columns its
// projections, group keys, aggregate arguments, HAVING and order keys
// name. A join emits a column only if these or a join conjunct still
// pending read it.
type colNeeds struct {
	all  bool // a * projection reads everything
	refs []*sqlparser.ColumnRef
}

func selectNeeds(sel *sqlparser.Select) colNeeds {
	var n colNeeds
	add := func(e sqlparser.Expr) { n.refs = append(n.refs, sqlparser.ColumnsIn(e)...) }
	for _, p := range sel.Projections {
		if p.Star {
			return colNeeds{all: true}
		}
		add(p.Expr)
	}
	for _, g := range sel.GroupBy {
		add(g)
	}
	add(sel.Having)
	for _, o := range sel.OrderBy {
		add(o.Expr)
	}
	return n
}

// refersTo reports whether any reference could resolve to the column. An
// unqualified reference matches its name in every relation, so a pruned
// schema is ambiguous exactly where the full one was.
func refersTo(refs []*sqlparser.ColumnRef, c sqltypes.Column) bool {
	for _, r := range refs {
		if strings.EqualFold(r.Name, c.Name) && (r.Table == "" || strings.EqualFold(r.Table, c.Table)) {
			return true
		}
	}
	return false
}

// buildJoin constructs a hash join (or, without keys, a nested loop)
// between cur and right. It returns the node and the pending conjuncts it
// consumed.
func (e *Engine) buildJoin(cur, right *planNode, keys []equiKey, pending []sqlparser.Expr, needs colNeeds) (*planNode, []sqlparser.Expr, error) {
	// The iterator streams the probe input against the materialized build
	// input and pairs rows as probe||build. A hash join builds on the
	// smaller input; a nested loop always on the right one.
	probe, build := cur, right
	swapped := len(keys) > 0 && right.est > cur.est
	if swapped {
		probe, build = right, cur
	}
	pairSchema := probe.schema.Concat(build.schema)
	probeIdx := make([]int, len(keys))
	buildIdx := make([]int, len(keys))
	for i, k := range keys {
		p, b := k.left, k.right
		if swapped {
			p, b = b, p
		}
		var err error
		if probeIdx[i], err = probe.schema.Resolve(p.Table, p.Name); err != nil {
			return nil, nil, err
		}
		if buildIdx[i], err = build.schema.Resolve(b.Table, b.Name); err != nil {
			return nil, nil, err
		}
	}

	// Residual conjuncts: everything in pending that resolves against the
	// paired schema, except the equi keys' own conjuncts. What does not
	// resolve yet stays pending, and its columns must survive this join.
	var residuals, used []sqlparser.Expr
	var later []*sqlparser.ColumnRef
	keySet := map[string]bool{}
	for _, k := range keys {
		keySet[k.left.String()+"="+k.right.String()] = true
		keySet[k.right.String()+"="+k.left.String()] = true
	}
	for _, c := range pending {
		cols := sqlparser.ColumnsIn(c)
		allResolve := true
		for _, col := range cols {
			if !pairSchema.HasColumn(col.Table, col.Name) {
				allResolve = false
				break
			}
		}
		if !allResolve {
			later = append(later, cols...)
			continue
		}
		used = append(used, c)
		if be, ok := c.(*sqlparser.BinaryExpr); ok && be.Op == sqlparser.OpEq {
			if keySet[be.String()] || keySet[renderEq(be)] {
				continue // consumed as a hash key
			}
		}
		residuals = append(residuals, c)
	}

	out := joinOutput{}
	residualSel := 1.0 // residual predicates shrink the estimate
	if len(residuals) > 0 {
		var err error
		out.residual, err = compilePred(sqlparser.JoinConjuncts(residuals), pairSchema)
		if err != nil {
			return nil, nil, err
		}
		for _, res := range residuals {
			residualSel *= estimateSelectivity(res)
		}
	}

	// Column pruning: the output schema keeps, in order, the paired
	// columns something above still reads.
	outSchema := &sqltypes.Schema{}
	for i, c := range pairSchema.Columns {
		if !needs.all && !refersTo(needs.refs, c) && !refersTo(later, c) {
			continue
		}
		outSchema.Columns = append(outSchema.Columns, c)
		if n := probe.schema.Len(); i < n {
			out.probeCols = append(out.probeCols, i)
		} else {
			out.buildCols = append(out.buildCols, i-n)
		}
	}

	node := &planNode{schema: outSchema, kids: []*planNode{probe, build}}
	if len(keys) == 0 {
		node.desc = "NestedLoopJoin"
		node.est = math.Max(cur.est*right.est*residualSel, 1)
		node.cost = cur.cost + right.cost + cur.est*right.est*cJoinProbe
	} else {
		node.desc = fmt.Sprintf("HashJoin (%d keys)", len(keys))
		node.est = math.Max(estJoinRows(cur.est, right.est, len(keys))*residualSel, 1)
		node.cost = cur.cost + right.cost + build.est*cJoinBuild + probe.est*cJoinProbe + node.est*cJoinOut
	}
	ns, est := e.profile.JoinNsPerRow, node.est
	probeOpen, buildOpen := probe.open, build.open
	node.open = func() (BatchIter, error) {
		b, err := buildOpen()
		if err != nil {
			return nil, err
		}
		p, err := probeOpen()
		if err != nil {
			b.Close()
			return nil, err
		}
		return newJoin(p, b, probeIdx, buildIdx, out, est, ns)
	}
	return node, used, nil
}

func renderEq(be *sqlparser.BinaryExpr) string {
	return be.L.String() + "=" + be.R.String()
}

// applyResidual attaches leftover predicates (e.g. conditions referencing
// columns of a single relation plan, or everything after all joins).
func (e *Engine) applyResidual(cur *planNode, preds []sqlparser.Expr) (*planNode, error) {
	if len(preds) == 0 {
		return cur, nil
	}
	return e.planFilter(cur, sqlparser.JoinConjuncts(preds))
}

func removeExprs(all, used []sqlparser.Expr) []sqlparser.Expr {
	if len(used) == 0 {
		return all
	}
	usedSet := map[sqlparser.Expr]bool{}
	for _, u := range used {
		usedSet[u] = true
	}
	var out []sqlparser.Expr
	for _, a := range all {
		if !usedSet[a] {
			out = append(out, a)
		}
	}
	return out
}

// aliasSchema returns the schema with every column's table qualifier set to
// the alias.
func aliasSchema(s *sqltypes.Schema, alias string) *sqltypes.Schema {
	out := s.Clone()
	for i := range out.Columns {
		out.Columns[i].Table = alias
	}
	return out
}
