package planner

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"xdb/internal/engine"
	"xdb/internal/joinorder"
	"xdb/internal/sqlparser"
)

// Logical optimization (Sec. IV-B1): selection and projection pushdown
// happen while analyzing (build.go); this file orders the joins. The paper
// restricts plans to left-deep trees (footnote 5); internal/joinorder
// enumerates them over the join graph extracted here, minimizing the sum
// of estimated intermediate results. This is the "overall reduces the
// intermediate data" objective of the paper, which matters doubly here
// because intermediate size is also inter-DBMS transfer volume.

// Order builds the analyzed query's logical plan: the join tree over its
// scans, topped by the query's final block. It extracts the join graph,
// asks the enumerator for an order — the user's syntactic one with
// noReorder (ablation A3), a bushy one with bushy, else the paper's
// left-deep one — and builds joins along that order only.
func Order(a *Analysis, noReorder, bushy bool) (*Final, error) {
	if len(a.Scans) == 1 && len(a.JoinConjs) > 0 {
		return nil, fmt.Errorf("planner: join predicates with a single relation: %v", a.JoinConjs[0])
	}
	g, err := newJoinGraph(a.Scans, a.JoinConjs)
	if err != nil {
		return nil, err
	}
	var steps []joinorder.Step
	switch {
	case noReorder:
		steps = g.InOrder(g.estimate)
	case bushy:
		steps = g.Bushy(g.estimate)
	default:
		steps = g.LeftDeep(g.estimate)
	}
	rels := make([]Op, len(a.Scans))
	for i, s := range a.Scans {
		rels[i] = s
	}
	joined, err := joinorder.Fold(rels, steps, g.join)
	if err != nil {
		return nil, err
	}
	return &Final{In: joined, Sel: a.Canon}, nil
}

// joinGraph is the join graph of one query — the scans' cardinalities and
// the multi-relation conjuncts, classified once — with what the middleware
// needs to price a join over it and to build the chosen ones.
type joinGraph struct {
	*joinorder.Graph
	conjs  []sqlparser.Expr // aligned with Graph.Conjs
	keys   []keyCols        // aligned too; set for equi conjuncts
	dl, dr []float64        // estimate's scratch
}

// keyCols is what pricing and orienting an equi conjunct takes: the
// relation (as a one-bit set) its first column belongs to, and the base
// distinct counts of the first and the second column.
type keyCols struct {
	rel    uint64
	da, db float64
}

func newJoinGraph(scans []*Scan, conjs []sqlparser.Expr) (*joinGraph, error) {
	card := make([]float64, len(scans))
	pos := make(map[string]int, len(scans))
	for i, s := range scans {
		card[i] = s.Est()
		pos[strings.ToLower(s.Alias)] = i
	}
	jg, err := joinorder.New(card)
	if err != nil {
		return nil, fmt.Errorf("planner: %w", err)
	}
	g := &joinGraph{Graph: jg, conjs: conjs, keys: make([]keyCols, len(conjs))}
	for ci, c := range conjs {
		cj := joinorder.Conjunct{Sel: engine.Selectivity(c)}
		for _, cr := range sqlparser.ColumnsIn(c) {
			// A bare reference names a projection alias, not a relation.
			if i, ok := pos[strings.ToLower(cr.Table)]; ok {
				cj.Rels |= 1 << i
			}
		}
		if lc, rc, ok := sqlparser.ColumnEquality(c); ok && bits.OnesCount64(cj.Rels) == 2 {
			a, b := pos[strings.ToLower(lc.Table)], pos[strings.ToLower(rc.Table)]
			cj.Equi = true
			g.keys[ci] = keyCols{1 << a, baseDistinct(scans[a], lc), baseDistinct(scans[b], rc)}
		}
		g.Conjs = append(g.Conjs, cj)
	}
	return g, nil
}

// estimate prices a join step exactly as join will estimate the operator
// it builds: joinRows over the step's keys, scaled by the residuals'
// selectivities.
func (g *joinGraph) estimate(l, r joinorder.Input, keys, residuals []int) float64 {
	g.dl, g.dr = g.dl[:0], g.dr[:0]
	for _, k := range keys {
		da, db := g.keys[k].da, g.keys[k].db
		if l.Rels&g.keys[k].rel == 0 {
			da, db = db, da
		}
		g.dl, g.dr = append(g.dl, capDistinct(da, l.Rows)), append(g.dr, capDistinct(db, r.Rows))
	}
	rows := joinRows(l.Rows, r.Rows, g.dl, g.dr)
	for _, i := range residuals {
		rows *= g.Conjs[i].Sel
	}
	return math.Max(rows, 1)
}

// join builds one join of the chosen order from the conjuncts the step
// consumes, each key turned so that its L column resolves in the left
// input.
func (g *joinGraph) join(l, r Op, s joinorder.Step) (Op, error) {
	j := &Join{L: l, R: r}
	for _, k := range s.Keys {
		lc, rc, _ := sqlparser.ColumnEquality(g.conjs[k])
		if s.LRels&g.keys[k].rel == 0 {
			lc, rc = rc, lc
		}
		j.Keys = append(j.Keys, JoinKey{L: lc, R: rc})
	}
	for _, i := range s.Residuals {
		j.Residual = append(j.Residual, g.conjs[i])
	}
	j.est = j.estimate()
	return j, nil
}
