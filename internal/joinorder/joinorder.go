// Package joinorder decides the join order of one query block. The caller
// extracts the join graph once — a cardinality per relation and, per
// multi-relation WHERE conjunct, the set of relations it references and
// whether it can serve as an equi-join key — and the enumerators here work
// on relation bitmasks and row counts alone: no operator, schema or
// predicate is built until the caller folds its own join constructor over
// the winning order (Fold). What a join yields is the caller's business
// too, through the Estimator it passes in; the middleware prices joins
// from global column statistics, an engine from its local heuristic, and
// both share everything else.
//
// Three strategies, the ones the repository uses: an exact left-deep
// subset enumeration in the Selinger tradition, a left-deep greedy
// heuristic for graphs too wide to enumerate, and greedy operator ordering
// (GOO) for bushy trees.
package joinorder

import (
	"fmt"
	"math/bits"
)

// MaxRelations is how many relations a graph can hold: relation sets are
// uint64 bitmasks.
const MaxRelations = 64

// maxExact is the widest graph LeftDeep enumerates exactly. The subset
// enumeration prices n·2ⁿ (subset, next relation) steps, each one pass over
// the conjunct list on bitmasks with no allocation: ~49k steps at 12
// relations, ~1M at 16. Wider graphs get the greedy heuristic.
const maxExact = 12

// Conjunct is one WHERE conjunct that is not a single-relation filter.
type Conjunct struct {
	// Rels is the set of relations the conjunct references. Zero — a
	// constant conjunct — rides on the first join built.
	Rels uint64
	// Equi marks a column = column predicate between two relations, which a
	// join separating the two can use as a key. Rels then has two bits.
	Equi bool
	// Sel is the conjunct's selectivity when it is applied as a residual
	// filter. The enumerators only route it: estimators read it.
	Sel float64
}

// Graph is the join graph of one query block.
type Graph struct {
	Card  []float64 // estimated rows per relation
	Conjs []Conjunct
}

// New starts a graph over relations with the given cardinalities.
func New(card []float64) (*Graph, error) {
	if len(card) > MaxRelations {
		return nil, fmt.Errorf("joinorder: %d relations in one FROM list, at most %d supported", len(card), MaxRelations)
	}
	return &Graph{Card: card}, nil
}

// Input is one side of a join step: the relations under it and its
// estimated rows.
type Input struct {
	Rels uint64
	Rows float64
}

// An Estimator prices one join step: the rows of joining l and r with the
// given conjuncts (indexes into Graph.Conjs, ascending) as equi keys and
// as residual filters. It must be deterministic, and must not keep the
// slices.
type Estimator func(l, r Input, keys, residuals []int) float64

// Step is one join of the chosen order. Operands are positions: below the
// relation count a relation, otherwise n+k for the output of step k.
type Step struct {
	L, R            int
	LRels           uint64  // the relations under L, which orient the keys
	Keys, Residuals []int   // the conjuncts the step consumes
	Rows            float64 // the estimator's prediction
}

// Fold builds the chosen tree: it replays the steps over the relations
// with the caller's join constructor — n − 1 constructions — and returns
// the last result, or the one relation when there is nothing to join.
func Fold[T any](rels []T, steps []Step, join func(l, r T, s Step) (T, error)) (T, error) {
	nodes := append(make([]T, 0, len(rels)+len(steps)), rels...)
	for _, s := range steps {
		j, err := join(nodes[s.L], nodes[s.R], s)
		if err != nil {
			var zero T
			return zero, err
		}
		nodes = append(nodes, j)
	}
	return nodes[len(nodes)-1], nil
}

// split appends to keys and residuals the conjuncts that joining l and r
// consumes: those whose relations all lie in l|r with some on either side
// (anything inside one side was consumed when that side was built), plus
// the constant conjuncts when this is the first join. connected reports
// whether any conjunct links the two sides — an equi key, or a residual
// that only becomes evaluable once they meet (Q7's FRANCE/GERMANY OR over
// two nation aliases: the filtered cross product of two 25-row relations
// beats dragging lineitem-sized intermediates until the filter applies).
func (g *Graph) split(l, r uint64, first bool, keys, residuals []int) (k, res []int, connected bool) {
	for i, c := range g.Conjs {
		switch {
		case c.Rels == 0:
			if first {
				residuals = append(residuals, i)
			}
		case c.Rels&^(l|r) != 0 || c.Rels&l == 0 || c.Rels&r == 0:
		case c.Equi:
			keys = append(keys, i)
			connected = true
		default:
			residuals = append(residuals, i)
			connected = true
		}
	}
	return keys, residuals, connected
}

// step prices joining l and r and records what the join consumes.
func (g *Graph) step(est Estimator, l, r Input, lpos, rpos int, first bool) Step {
	keys, residuals, _ := g.split(l.Rels, r.Rels, first, nil, nil)
	return Step{L: lpos, R: rpos, LRels: l.Rels, Keys: keys, Residuals: residuals, Rows: est(l, r, keys, residuals)}
}

// LeftDeep orders the relations into a left-deep tree: exactly up to
// maxExact relations, greedily beyond.
func (g *Graph) LeftDeep(est Estimator) []Step {
	n := len(g.Card)
	if n < 2 {
		return nil
	}
	var order []int
	if n <= maxExact {
		order = g.exact(est)
	} else {
		order = g.greedy(est)
	}
	return g.chain(order, est)
}

// InOrder joins the relations left-deep in the order given — the query's
// own FROM order, when the caller does not want them reordered.
func (g *Graph) InOrder(est Estimator) []Step {
	order := make([]int, len(g.Card))
	for i := range order {
		order[i] = i
	}
	return g.chain(order, est)
}

// chain turns a relation order into left-deep steps.
func (g *Graph) chain(order []int, est Estimator) []Step {
	n := len(order)
	if n < 2 {
		return nil
	}
	steps := make([]Step, 0, n-1)
	cur, pos := Input{Rels: 1 << order[0], Rows: g.Card[order[0]]}, order[0]
	for k, i := range order[1:] {
		s := g.step(est, cur, Input{Rels: 1 << i, Rows: g.Card[i]}, pos, i, k == 0)
		steps = append(steps, s)
		cur, pos = Input{Rels: cur.Rels | 1<<i, Rows: s.Rows}, n+k
	}
	return steps
}

// exact enumerates left-deep orders with the Selinger dynamic program over
// relation subsets, minimizing the sum of intermediate cardinalities — the
// right objective for cross-database execution, where every intermediate
// is a candidate for inter-DBMS shipping. Greedy one-step lookahead fails
// on Q7-shaped graphs: it joins customers before lineitem and materializes
// supplier × customer pairs that only lineitem can link.
//
// A subset is built by extending a smaller one by one relation, relations
// tried in ascending position; an extension no conjunct connects (a plain
// cross product) is tried only when it is the subset's first candidate,
// and a later candidate replaces the best only when strictly cheaper.
func (g *Graph) exact(est Estimator) []int {
	n := len(g.Card)
	full := 1<<n - 1
	rows := make([]float64, full+1)
	cost := make([]float64, full+1)
	last := make([]int8, full+1) // the relation the subset's best plan joins last
	for i, c := range g.Card {
		rows[1<<i] = c
	}
	var keys, residuals []int
	for mask := 3; mask <= full; mask++ {
		if bits.OnesCount32(uint32(mask)) < 2 {
			continue
		}
		found := false
		for i := 0; i < n; i++ {
			bit := 1 << i
			if mask&bit == 0 {
				continue
			}
			prev := mask ^ bit
			var connected bool
			keys, residuals, connected = g.split(uint64(prev), uint64(bit), prev&(prev-1) == 0, keys[:0], residuals[:0])
			if !connected && found {
				continue
			}
			r := est(Input{Rels: uint64(prev), Rows: rows[prev]}, Input{Rels: uint64(bit), Rows: g.Card[i]}, keys, residuals)
			if c := cost[prev] + r; !found || c < cost[mask] {
				found = true
				rows[mask], cost[mask], last[mask] = r, c, int8(i)
			}
		}
	}
	order := make([]int, n)
	mask := full
	for k := n - 1; k > 0; k-- {
		order[k] = int(last[mask])
		mask ^= 1 << order[k]
	}
	order[0] = bits.TrailingZeros32(uint32(mask))
	return order
}

// greedy starts from the smallest relation and repeatedly attaches the
// connected relation whose join is estimated smallest; when nothing
// connects (a disconnected graph) it cross-joins the smallest relation
// left. Ties go to the earlier relation.
func (g *Graph) greedy(est Estimator) []int {
	n := len(g.Card)
	start := 0
	for i, c := range g.Card {
		if c < g.Card[start] {
			start = i
		}
	}
	order := append(make([]int, 0, n), start)
	cur := Input{Rels: 1 << start, Rows: g.Card[start]}
	var keys, residuals []int
	for len(order) < n {
		best, loose := -1, -1 // cheapest connected extension; smallest unconnected relation
		var bestRows float64
		for i := 0; i < n; i++ {
			bit := uint64(1) << i
			if cur.Rels&bit != 0 {
				continue
			}
			var connected bool
			keys, residuals, connected = g.split(cur.Rels, bit, len(order) == 1, keys[:0], residuals[:0])
			if !connected {
				if loose < 0 || g.Card[i] < g.Card[loose] {
					loose = i
				}
				continue
			}
			if r := est(cur, Input{Rels: bit, Rows: g.Card[i]}, keys, residuals); best < 0 || r < bestRows {
				best, bestRows = i, r
			}
		}
		if best < 0 {
			best = loose
			keys, residuals, _ = g.split(cur.Rels, 1<<best, len(order) == 1, keys[:0], residuals[:0])
			bestRows = est(cur, Input{Rels: 1 << best, Rows: g.Card[best]}, keys, residuals)
		}
		order = append(order, best)
		cur = Input{Rels: cur.Rels | 1<<best, Rows: bestRows}
	}
	return order
}

// Bushy orders the relations with greedy operator ordering (GOO): merge the
// pair of components whose join is estimated smallest until one tree
// remains, which naturally produces bushy shapes. Pairs are tried in
// ascending position and ties go to the earlier pair; a disconnected graph
// cross-joins its two smallest components.
func (g *Graph) Bushy(est Estimator) []Step {
	n := len(g.Card)
	type component struct {
		in  Input
		pos int
	}
	comps := make([]component, n)
	for i, c := range g.Card {
		comps[i] = component{Input{Rels: 1 << i, Rows: c}, i}
	}
	var steps []Step
	var keys, residuals []int
	for len(comps) > 1 {
		bi, bj := -1, -1
		var bestRows float64
		for i := range comps {
			for j := i + 1; j < len(comps); j++ {
				var connected bool
				keys, residuals, connected = g.split(comps[i].in.Rels, comps[j].in.Rels, len(steps) == 0, keys[:0], residuals[:0])
				if !connected {
					continue
				}
				if r := est(comps[i].in, comps[j].in, keys, residuals); bi < 0 || r < bestRows {
					bi, bj, bestRows = i, j, r
				}
			}
		}
		if bi < 0 {
			a, b := 0, 1
			for k := range comps {
				if comps[k].in.Rows < comps[a].in.Rows {
					b, a = a, k
				} else if k != a && comps[k].in.Rows < comps[b].in.Rows {
					b = k
				}
			}
			bi, bj = min(a, b), max(a, b)
		}
		l, r := comps[bi], comps[bj]
		s := g.step(est, l.in, r.in, l.pos, r.pos, len(steps) == 0)
		steps = append(steps, s)
		comps[bi] = component{Input{Rels: l.in.Rels | r.in.Rels, Rows: s.Rows}, n + len(steps) - 1}
		comps = append(comps[:bj], comps[bj+1:]...)
	}
	return steps
}
