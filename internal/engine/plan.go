package engine

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"sync"

	"xdb/internal/joinorder"
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
	open   opener
	kids   []*planNode
	spine  *spine // set when the node heads a probe spine
}

// opener opens a plan node's iterator for one execution, the statement
// st.
type opener func(st *statement) (BatchIter, error)

// statement is one execution of a SELECT (Engine.QuerySelect) with
// everything it opens: its joins, exchanges and their workers, read-ahead,
// projections and scans. Every throttle of the execution sleeps under its
// one token (see cpuThrottle), and its operators hand the batches they are
// done with back to its spares. Nothing of it is kept once the execution
// ends.
type statement struct {
	cpu    sync.Mutex
	spares sqltypes.Spares
}

// throttle is a throttle at nsPerRow under the statement's token.
func (st *statement) throttle(nsPerRow int64) *cpuThrottle {
	return &cpuThrottle{nsPerRow: nsPerRow, cpu: &st.cpu}
}

// spine is the probe spine a plan node heads: stored rows (a base table,
// or a materialized foreign table once fetched) streamed up through
// filters and projections, then through hash-join probes. No stage of a
// spine carries state from one run of the rows to the next, so a morsel
// exchange can run it on every core (exchange.go).
type spine struct {
	rows   func() ([]sqltypes.Row, error)
	size   float64 // the row count; a materialized table's declared estimate
	scanNs int64
	stages []spineStage
	work   bool // a filter or a probe: something worth spreading
}

// spineStage is one operator of a spine: a probe of a join's table, or a
// filter or projection that each worker makes its own copy of.
type spineStage struct {
	join    *joinSpec
	newIter func(st *statement) stageIter
	filters bool
}

// with returns the spine extended by one stage. The receiver stays the
// spine of the node below, so the stages are copied.
func (sp *spine) with(st spineStage) *spine {
	out := *sp
	out.stages = append(sp.stages[:len(sp.stages):len(sp.stages)], st)
	out.work = sp.work || st.join != nil || st.filters
	return &out
}

// probes reports whether the spine has a join stage. Filters and
// projections join a spine only below its probes; above them they run on
// the exchange's output, whose batches are then exactly the serial
// join's.
func (sp *spine) probes() bool {
	for _, st := range sp.stages {
		if st.join != nil {
			return true
		}
	}
	return false
}

// headed sets the node's spine and, when the spine has work worth
// spreading, makes its open run the spine through a morsel exchange once
// the rows are enough for every worker (openExchange).
func (n *planNode) headed(sp *spine) *planNode {
	n.spine = sp
	if sp != nil && sp.work {
		serial := n.open
		n.open = func(st *statement) (BatchIter, error) {
			w := exchangeWorkers()
			if w < 2 || sp.size < float64(2*w*morselRows) {
				return serial(st)
			}
			return openExchange(sp, w, st)
		}
	}
	return n
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

// planSelect builds the physical plan for a SELECT.
func (e *Engine) planSelect(sel *sqlparser.Select) (*planNode, error) {
	if len(sel.From) == 0 {
		return e.planConstSelect(sel)
	}

	// 1. Resolve FROM relations.
	rels := make([]*planNode, len(sel.From))
	for i, ref := range sel.From {
		if ref.DB != "" && !strings.EqualFold(ref.DB, e.name) {
			return nil, fmt.Errorf("engine %s: cross-database reference %s.%s (only XDB resolves these)", e.name, ref.DB, ref.Name)
		}
		var err error
		if rels[i], err = e.planRelation(ref); err != nil {
			return nil, err
		}
	}

	// 2. Classify WHERE conjuncts by the relations they reference: one over
	// a single relation is that relation's filter, the others go into the
	// join graph.
	g, err := newJoinGraph(rels)
	if err != nil {
		return nil, fmt.Errorf("engine %s: %w", e.name, err)
	}
	perRel := make([][]sqlparser.Expr, len(rels))
	for _, c := range sqlparser.SplitConjuncts(sel.Where) {
		if i, single := g.add(c); single {
			perRel[i] = append(perRel[i], c)
		}
	}

	// 3. Push single-relation filters into the relations.
	for i, preds := range perRel {
		if len(preds) == 0 {
			continue
		}
		if g.rels[i], err = e.planFilter(g.rels[i], sqlparser.JoinConjuncts(preds)); err != nil {
			return nil, err
		}
	}

	// 4. Order and build the joins, each emitting only the columns that
	// the rest of the statement or a later join still reads.
	joined, err := e.planJoins(g, selectNeeds(sel))
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
		// projection aliases substituted into the keys. A LIMIT above the
		// sort (DISTINCT aside) lets it keep only the rows it emits.
		topN := sel.Limit
		if sel.Distinct {
			topN = -1
		}
		sorted, err := planSort(out, sel.OrderBy, topN)
		if err == nil {
			out = sorted
		} else {
			hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
			for _, p := range sel.Projections {
				if sqlparser.HasAggregate(p.Expr) {
					hasAgg = true
				}
			}
			if hasAgg {
				// Aggregated output has no pre-projection row to sort.
				return nil, fmt.Errorf("ORDER BY: %w", err)
			}
			items := make([]sqlparser.OrderItem, len(sel.OrderBy))
			for i, it := range sel.OrderBy {
				items[i] = sqlparser.OrderItem{Expr: substituteAlias(it.Expr, sel.Projections), Desc: it.Desc}
			}
			if sorted, err = planSort(joined, items, topN); err != nil {
				return nil, fmt.Errorf("ORDER BY: %w", err)
			}
			if out, err = e.planProjection(sorted, sel); err != nil {
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
			open: func(st *statement) (BatchIter, error) {
				it, err := in.open(st)
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
			open: func(st *statement) (BatchIter, error) {
				it, err := in.open(st)
				if err != nil {
					return nil, err
				}
				return &limitIter{in: it, left: n}, nil
			},
		}
	}
	return out, nil
}

// planSort wraps a node with a materializing sort on the given keys,
// compiled here against the node's schema once for every execution. With
// limit >= 0 the sort keeps only its first limit rows.
func planSort(in *planNode, items []sqlparser.OrderItem, limit int64) (*planNode, error) {
	keys := make([]sortKey, len(items))
	for i, it := range items {
		fn, err := compileExpr(it.Expr, in.schema)
		if err != nil {
			return nil, err
		}
		keys[i] = sortKey{fn: fn, desc: it.Desc}
	}
	n := in.est
	inOpen := in.open
	return &planNode{
		desc:   "Sort",
		schema: in.schema,
		est:    n,
		cost:   in.cost + cSortFactor*n*math.Log2(n+2),
		kids:   []*planNode{in},
		open: func(st *statement) (BatchIter, error) {
			it, err := inOpen(st)
			if err != nil {
				return nil, err
			}
			return sortRows(it, keys, limit)
		},
	}, nil
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
		open: func(*statement) (BatchIter, error) {
			row := make(sqltypes.Row, len(exprs))
			for i, fn := range exprs {
				v, err := fn(nil)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			return &scanIter{rows: []sqltypes.Row{row}}, nil
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
		return (&planNode{
			desc:   fmt.Sprintf("SeqScan %s", t.Name),
			schema: schema,
			est:    float64(len(rows)),
			cost:   float64(len(rows)) * cScanTuple,
			open: func(st *statement) (BatchIter, error) {
				return &scanIter{rows: rows, throttle: st.throttle(ns)}, nil
			},
		}).headed(&spine{
			rows:   func() ([]sqltypes.Row, error) { return rows, nil },
			size:   float64(len(rows)),
			scanNs: ns,
		}), nil
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
			spine:  inner.spine,
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
// wrapper never needs to push anything down (Sec. V). Planning is local:
// the row estimate is the foreign table's declared one, and the remote is
// first contacted when the scan is opened.
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
	est := f.estRows()
	rq := e.remote
	desc := fmt.Sprintf("ForeignScan %s (server %s, remote %s)", f.Name, f.Server, f.RemoteTable)
	open := func(*statement) (BatchIter, error) {
		it, err := f.fetch(rq, srv, remoteSQL)
		if err != nil {
			return nil, fmt.Errorf("foreign scan %s: %w", f.Name, err)
		}
		return it, nil
	}
	cost := est * cForeignTuple
	var sp *spine
	if f.Materialize {
		// Explicit movement: fetch once, store locally, scan the stored
		// copy (and every later scan hits the copy).
		desc = fmt.Sprintf("MaterializedForeignScan %s (server %s, remote %s)", f.Name, f.Server, f.RemoteTable)
		cost = est*cForeignTuple + est*cScanTuple
		ns := e.profile.ScanNsPerRow
		rows := func() ([]sqltypes.Row, error) { return f.materialized(rq, srv, remoteSQL) }
		open = func(st *statement) (BatchIter, error) {
			rows, err := rows()
			if err != nil {
				return nil, err
			}
			return &scanIter{rows: rows, throttle: st.throttle(ns)}, nil
		}
		sp = &spine{rows: rows, size: est, scanNs: ns}
	}
	return (&planNode{
		desc:   desc,
		schema: schema,
		est:    est,
		cost:   cost,
		open:   open,
	}).headed(sp), nil
}

// materialized returns the locally stored copy of the remote relation,
// fetching it on first use.
func (f *ForeignTable) materialized(rq RemoteQuerier, srv *Server, remoteSQL string) ([]sqltypes.Row, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.filled {
		return f.cached, nil
	}
	it, err := f.fetch(rq, srv, remoteSQL)
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

// fetch opens the remote relation's row stream. The stream carries no
// schema: the foreign table declares the relation's columns, and the first
// batch must be as wide as the declaration.
func (f *ForeignTable) fetch(rq RemoteQuerier, srv *Server, remoteSQL string) (BatchIter, error) {
	it, err := rq.QueryRemote(srv, remoteSQL)
	if err != nil {
		return nil, err
	}
	return &declaredIter{BatchIter: it, f: f}, nil
}

// declaredIter holds a foreign table's stream to its declared width.
type declaredIter struct {
	BatchIter
	f       *ForeignTable
	checked bool
}

func (d *declaredIter) Next() (*sqltypes.Batch, error) {
	b, err := d.BatchIter.Next()
	if err != nil || d.checked || len(b.Rows) == 0 {
		return b, err
	}
	d.checked = true
	if got, want := len(b.Rows[0]), d.f.Schema.Len(); got != want {
		return nil, fmt.Errorf("foreign table %s declares %d columns, but remote %s sends %d", d.f.Name, want, d.f.RemoteTable, got)
	}
	return b, nil
}

// planFilter wraps a node with a predicate.
func (e *Engine) planFilter(in *planNode, pred sqlparser.Expr) (*planNode, error) {
	fn, err := compilePred(pred, in.schema)
	if err != nil {
		return nil, err
	}
	sel := Selectivity(pred)
	inOpen := in.open
	node := &planNode{
		desc:   fmt.Sprintf("Filter (%s)", pred),
		schema: in.schema,
		est:    math.Max(in.est*sel, 1),
		cost:   in.cost + in.est*cFilterTuple,
		kids:   []*planNode{in},
		open: func(st *statement) (BatchIter, error) {
			it, err := inOpen(st)
			if err != nil {
				return nil, err
			}
			return &filterIter{in: it, pred: fn, spares: &st.spares}, nil
		},
	}
	if in.spine == nil || in.spine.probes() {
		return node, nil
	}
	return node.headed(in.spine.with(spineStage{newIter: func(st *statement) stageIter { return &filterIter{pred: fn, spares: &st.spares} }, filters: true})), nil
}

// Selectivity estimates a predicate's selectivity without column
// statistics: textbook leaf defaults, composed over AND, OR and NOT. The
// engine's planner applies it to every filter and join residual, and the
// cross-database optimizer to the residuals that span relations, where no
// single scan's statistics apply (Q7's OR of nation pairs).
func Selectivity(pred sqlparser.Expr) float64 {
	switch x := pred.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return Selectivity(x.L) * Selectivity(x.R)
		case sqlparser.OpOr:
			return OrSelectivity(Selectivity(x.L), Selectivity(x.R))
		case sqlparser.OpEq:
			return 0.05
		case sqlparser.OpNe:
			return 0.95
		default:
			return 1.0 / 3
		}
	case *sqlparser.BetweenExpr:
		return negateIf(x.Not, 0.25)
	case *sqlparser.InExpr:
		return negateIf(x.Not, math.Min(0.05*float64(len(x.List)), 1))
	case *sqlparser.LikeExpr:
		return negateIf(x.Not, 0.1)
	case *sqlparser.IsNullExpr:
		return negateIf(x.Not, 0.05)
	case *sqlparser.NotExpr:
		return 1 - Selectivity(x.E)
	default:
		return 0.5
	}
}

// OrSelectivity combines two disjunct selectivities with the textbook
// independence formula s1 + s2 − s1·s2. Plain addition saturates — two
// 0.6-selective disjuncts would estimate the whole table — while
// inclusion-exclusion stays strictly below 1 for non-certain inputs.
func OrSelectivity(s1, s2 float64) float64 {
	s1, s2 = clamp01(s1), clamp01(s2)
	return clamp01(s1 + s2 - s1*s2)
}

func clamp01(f float64) float64 {
	return math.Min(math.Max(f, 0), 1)
}

// negateIf complements a selectivity for the NOT form of a predicate
// (NOT BETWEEN, NOT IN, NOT LIKE, IS NOT NULL).
func negateIf(not bool, sel float64) float64 {
	if not {
		return 1 - sel
	}
	return sel
}

// equiKey is one hash-joinable predicate between two relations.
type equiKey struct {
	left, right *sqlparser.ColumnRef
}

// joinGraph is the join graph of one SELECT's FROM list, extracted once:
// the relations, and every WHERE conjunct that is not a single-relation
// filter. A conjunct enters the graph proper when each column it names
// resolves to exactly one relation. One that does not resolve takes no
// part in the ordering decision, but stays on the pending list, where
// buildJoin and applyResidual still see it and report the error.
type joinGraph struct {
	*joinorder.Graph
	rels    []*planNode
	pending []sqlparser.Expr // every join conjunct, in WHERE order
	keys    []keyRef         // aligned with Graph.Conjs; set for equi conjuncts
}

// keyRef is an equi conjunct's two columns and the relation (as a one-bit
// set) the left one belongs to.
type keyRef struct {
	key     equiKey
	leftRel uint64
}

// newJoinGraph starts the graph over the FROM list. The cardinalities are
// filled in by planJoins, after planSelect has pushed the single-relation
// filters into g.rels.
func newJoinGraph(rels []*planNode) (*joinGraph, error) {
	g, err := joinorder.New(make([]float64, len(rels)))
	if err != nil {
		return nil, err
	}
	return &joinGraph{Graph: g, rels: rels}, nil
}

// relOf resolves a column to the one relation that has it, as a one-bit
// set.
func (g *joinGraph) relOf(c *sqlparser.ColumnRef) (rel uint64, ok bool) {
	for i, r := range g.rels {
		if r.schema.HasColumn(c.Table, c.Name) {
			if rel != 0 {
				return 0, false
			}
			rel = 1 << i
		}
	}
	return rel, rel != 0
}

// add classifies one WHERE conjunct. A conjunct over a single relation is
// handed back as that relation's filter; anything else is kept.
func (g *joinGraph) add(c sqlparser.Expr) (rel int, single bool) {
	cj := joinorder.Conjunct{Sel: Selectivity(c)}
	resolved := true
	for _, col := range sqlparser.ColumnsIn(c) {
		r, ok := g.relOf(col)
		cj.Rels |= r
		resolved = resolved && ok
	}
	if resolved && bits.OnesCount64(cj.Rels) == 1 {
		return bits.TrailingZeros64(cj.Rels), true
	}
	g.pending = append(g.pending, c)
	if !resolved {
		return 0, false
	}
	var ref keyRef
	if lc, rc, ok := sqlparser.ColumnEquality(c); ok && bits.OnesCount64(cj.Rels) == 2 {
		cj.Equi = true
		ref.key = equiKey{left: lc, right: rc}
		ref.leftRel, _ = g.relOf(lc)
	}
	g.Conjs = append(g.Conjs, cj)
	g.keys = append(g.keys, ref)
	return 0, false
}

// planJoins orders the (filtered) relations over their join graph —
// exactly for narrow FROM lists, greedily for wide ones
// (joinorder.LeftDeep) — and builds hash joins along the chosen order
// only, falling back to nested loops for non-equi conditions.
func (e *Engine) planJoins(g *joinGraph, needs colNeeds) (*planNode, error) {
	for i, r := range g.rels {
		g.Card[i] = r.est
	}
	steps := g.LeftDeep(func(l, r joinorder.Input, keys, residuals []int) float64 {
		sel := 1.0
		for _, i := range residuals {
			sel *= g.Conjs[i].Sel
		}
		return estJoinRows(l.Rows, r.Rows, len(keys), sel)
	})
	pending := g.pending
	joined, err := joinorder.Fold(g.rels, steps, func(l, r *planNode, s joinorder.Step) (*planNode, error) {
		// buildJoin wants each key's left column in its left input.
		keys := make([]equiKey, len(s.Keys))
		for i, k := range s.Keys {
			keys[i] = g.keys[k].key
			if s.LRels&g.keys[k].leftRel == 0 {
				keys[i] = equiKey{left: keys[i].right, right: keys[i].left}
			}
		}
		node, used, err := e.buildJoin(l, r, keys, pending, needs)
		pending = removeExprs(pending, used)
		return node, err
	})
	if err != nil {
		return nil, err
	}
	return e.applyResidual(joined, pending)
}

// estJoinRows estimates a join's output: the classic |L||R|/max(|L|,|R|)
// foreign-key heuristic, shrunk for multi-key joins (the plain cross
// product without keys), scaled by the residual conjuncts' selectivity.
func estJoinRows(l, r float64, nkeys int, residualSel float64) float64 {
	if nkeys == 0 {
		return math.Max(l*r*residualSel, 1)
	}
	out := l * r / math.Max(math.Max(l, r), 1)
	for i := 1; i < nkeys; i++ {
		out /= 3
	}
	return math.Max(math.Max(out, 1)*residualSel, 1)
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
			residualSel *= Selectivity(res)
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
	node.est = estJoinRows(cur.est, right.est, len(keys), residualSel)
	if len(keys) == 0 {
		node.desc = "NestedLoopJoin"
		node.cost = cur.cost + right.cost + cur.est*right.est*cJoinProbe
	} else {
		node.desc = fmt.Sprintf("HashJoin (%d keys)", len(keys))
		node.cost = cur.cost + right.cost + build.est*cJoinBuild + probe.est*cJoinProbe + node.est*cJoinOut
	}
	spec := &joinSpec{build: build.open, probeKeys: probeIdx, buildKeys: buildIdx, out: out, est: node.est, buildEst: build.est, nsPerRow: e.profile.JoinNsPerRow}
	probeOpen := probe.open
	node.open = func(st *statement) (BatchIter, error) {
		return openJoin(probeOpen, spec, st)
	}
	if probe.spine != nil {
		node.headed(probe.spine.with(spineStage{join: spec}))
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
