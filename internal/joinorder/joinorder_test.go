package joinorder

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// independence is the textbook estimator: the inputs' rows times every
// consumed conjunct's selectivity. A subset's rows do not depend on how it
// was built, so the subset DP is optimal under it.
func independence(g *Graph) Estimator {
	return func(l, r Input, keys, residuals []int) float64 {
		rows := l.Rows * r.Rows
		for _, i := range keys {
			rows *= g.Conjs[i].Sel
		}
		for _, i := range residuals {
			rows *= g.Conjs[i].Sel
		}
		return rows
	}
}

func mustNew(t *testing.T, card ...float64) *Graph {
	t.Helper()
	g, err := New(card)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *Graph) edge(a, b int, sel float64) {
	g.Conjs = append(g.Conjs, Conjunct{Rels: 1<<a | 1<<b, Equi: true, Sel: sel})
}

func cost(steps []Step) float64 {
	var c float64
	for _, s := range steps {
		c += s.Rows
	}
	return c
}

// strategies runs all three enumerators regardless of graph width.
func strategies(g *Graph, est Estimator) map[string][]Step {
	return map[string][]Step{
		"exact":  g.chain(g.exact(est), est),
		"greedy": g.chain(g.greedy(est), est),
		"bushy":  g.Bushy(est),
	}
}

// checkPlan verifies a step list is a complete tree over the graph: n − 1
// steps, every operand used once, every relation under the root, and every
// conjunct consumed exactly once — by the first step that has all of its
// relations under it.
func checkPlan(t *testing.T, name string, g *Graph, steps []Step) {
	t.Helper()
	n := len(g.Card)
	if len(steps) != n-1 {
		t.Fatalf("%s: %d steps for %d relations", name, len(steps), n)
	}
	under := make([]uint64, n, 2*n)
	for i := range under {
		under[i] = 1 << i
	}
	used := map[int]bool{}
	consumed := make([]int, len(g.Conjs))
	for k, s := range steps {
		for _, p := range []int{s.L, s.R} {
			if p < 0 || p >= n+k || used[p] {
				t.Fatalf("%s: step %d operand %d out of range or reused", name, k, p)
			}
			used[p] = true
		}
		if under[s.L]&under[s.R] != 0 {
			t.Fatalf("%s: step %d joins overlapping inputs", name, k)
		}
		both := under[s.L] | under[s.R]
		for _, ci := range append(append([]int{}, s.Keys...), s.Residuals...) {
			consumed[ci]++
			if g.Conjs[ci].Rels&^both != 0 {
				t.Errorf("%s: step %d consumes conjunct %d before its relations are joined", name, k, ci)
			}
		}
		for _, ci := range s.Keys {
			if !g.Conjs[ci].Equi {
				t.Errorf("%s: step %d uses non-equi conjunct %d as a key", name, k, ci)
			}
		}
		under = append(under, both)
	}
	if root := under[len(under)-1]; bits.OnesCount64(root) != n {
		t.Errorf("%s: root covers %b", name, root)
	}
	for ci, c := range consumed {
		if c != 1 {
			t.Errorf("%s: conjunct %d consumed %d times", name, ci, c)
		}
	}
}

// relationOrder flattens left-deep steps back into the relation order.
func relationOrder(steps []Step) []int {
	order := []int{steps[0].L}
	for _, s := range steps {
		order = append(order, s.R)
	}
	return order
}

func TestTrivialGraphs(t *testing.T) {
	for _, g := range []*Graph{mustNew(t), mustNew(t, 7)} {
		if s := g.LeftDeep(independence(g)); s != nil {
			t.Errorf("LeftDeep over %d relations = %v", len(g.Card), s)
		}
		if s := g.Bushy(independence(g)); s != nil {
			t.Errorf("Bushy over %d relations = %v", len(g.Card), s)
		}
	}
	if _, err := New(make([]float64, MaxRelations+1)); err == nil {
		t.Error("New accepted more relations than a bitmask holds")
	}
	got, err := Fold([]string{"only"}, nil, func(l, r string, _ Step) (string, error) { return l + r, nil })
	if err != nil || got != "only" {
		t.Errorf("Fold without steps = %q, %v", got, err)
	}
}

// Past maxExact relations LeftDeep is the greedy heuristic. On a chain
// there is one connected extension per side, so from the smallest relation
// the order grows outward by the cheaper neighbour.
func TestGreedyChain(t *testing.T) {
	card := make([]float64, 14)
	for i := range card {
		card[i] = float64(1000 * (i + 1))
	}
	card[5] = 10
	g := mustNew(t, card...)
	for i := 0; i+1 < len(card); i++ {
		g.edge(i, i+1, 1e-3)
	}
	steps := g.LeftDeep(independence(g))
	checkPlan(t, "chain", g, steps)
	// From r5: r4 (5000 rows) before r6 (7000), then always the smaller
	// side — left while it lasts, since cards grow with the index.
	want := []int{5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 10, 11, 12, 13}
	if got := relationOrder(steps); !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
	for k, s := range steps {
		if len(s.Keys) != 1 {
			t.Errorf("step %d has keys %v: a chain needs no cross product", k, s.Keys)
		}
	}
}

// On a star the smallest spoke starts, the hub is the only connected
// extension, and the remaining spokes attach in ascending join size.
func TestGreedyStar(t *testing.T) {
	card := []float64{1e6}
	for i := 1; i < 14; i++ {
		card = append(card, float64(100*(15-i))) // spoke 13 is the smallest
	}
	g := mustNew(t, card...)
	for i := 1; i < 14; i++ {
		g.edge(0, i, 1/card[i]) // each spoke keeps the hub's rows
	}
	g.Conjs[3].Sel = 1e-5 // spoke 4 filters hardest: attach it first
	steps := g.LeftDeep(independence(g))
	checkPlan(t, "star", g, steps)
	want := []int{13, 0, 4, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12}
	if got := relationOrder(steps); !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v", got, want)
	}
}

// A disconnected graph has to cross-join somewhere: every strategy still
// returns a complete plan, and the two greedy ones spend exactly one
// keyless step per extra component, on the smallest inputs available.
func TestDisconnectedGraph(t *testing.T) {
	g := mustNew(t, 50, 2000, 30, 400, 7)
	g.edge(0, 1, 1.0/2000)
	g.edge(2, 3, 1.0/400)
	plans := strategies(g, independence(g))
	for name, steps := range plans {
		checkPlan(t, name, g, steps)
	}
	for _, name := range []string{"greedy", "bushy"} {
		cross := 0
		for _, s := range plans[name] {
			if len(s.Keys)+len(s.Residuals) == 0 {
				cross++
			}
		}
		if cross != 2 {
			t.Errorf("%s: %d cross joins for 3 components", name, cross)
		}
	}
	// Greedy starts at r4 (7 rows), nothing connects, so it crosses the
	// smallest relation left (r2), then follows r2's edge.
	if got, want := relationOrder(plans["greedy"]), []int{4, 2, 3, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("greedy order = %v, want %v", got, want)
	}
	// GOO merges the two connected pairs first (30 and 50 rows), then
	// cross-joins its two smallest components: r4 with r2⋈r3.
	if last := plans["bushy"][2]; len(last.Keys) != 0 || last.L != 5 && last.R != 5 {
		t.Errorf("bushy third step = %+v, want the cross join with r2⋈r3", last)
	}
}

// TPC-H Q7's shape: two nation aliases share no equi key, but an OR over
// both becomes evaluable once they meet. That residual counts as a
// connection, and the filtered 25 × 25 cross product comes first.
func TestResidualConnects(t *testing.T) {
	const (
		n1 = iota
		n2
		supplier
		customer
		orders
		lineitem
	)
	g := mustNew(t, 25, 25, 100, 1500, 15000, 60000)
	g.edge(supplier, n1, 1.0/25)
	g.edge(customer, n2, 1.0/25)
	g.edge(customer, orders, 1.0/1500)
	g.edge(supplier, lineitem, 1.0/100)
	g.edge(orders, lineitem, 1.0/15000)
	g.Conjs = append(g.Conjs, Conjunct{Rels: 1<<n1 | 1<<n2, Sel: 0.005})
	for name, steps := range strategies(g, independence(g)) {
		checkPlan(t, name, g, steps)
		first := steps[0]
		if first.L+first.R != n1+n2 || len(first.Keys) != 0 || !reflect.DeepEqual(first.Residuals, []int{5}) {
			t.Errorf("%s: first step = %+v, want n1 × n2 filtered by the OR", name, first)
		}
	}
}

// A conjunct over no relation cannot wait for one: the first join built
// carries it, in every strategy, once.
func TestConstantConjunct(t *testing.T) {
	g := mustNew(t, 10, 20, 30, 40)
	g.edge(0, 1, 0.1)
	g.Conjs = append(g.Conjs, Conjunct{Sel: 0.5})
	g.edge(1, 2, 0.1)
	g.edge(2, 3, 0.1)
	for name, steps := range strategies(g, independence(g)) {
		checkPlan(t, name, g, steps)
		if !reflect.DeepEqual(steps[0].Residuals, []int{1}) {
			t.Errorf("%s: first step residuals = %v, want the constant conjunct", name, steps[0].Residuals)
		}
	}
}

// With every estimate equal, the first candidate tried keeps the win
// (replacement needs strictly cheaper): the DP's first candidate for a
// subset joins the lowest relation last, greedy and GOO take the lowest
// positions first.
func TestTieBreak(t *testing.T) {
	g := mustNew(t, 8, 8, 8, 8)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			g.edge(a, b, 0.125)
		}
	}
	est := independence(g)
	if got, want := g.exact(est), []int{3, 2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("exact order = %v, want %v", got, want)
	}
	if got, want := g.greedy(est), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("greedy order = %v, want %v", got, want)
	}
	if s := g.Bushy(est)[0]; s.L != 0 || s.R != 1 {
		t.Errorf("bushy first merge = %d,%d, want 0,1", s.L, s.R)
	}
}

// The DP tries a cross product only as a subset's first candidate, and
// then keeps it if nothing connected is strictly cheaper — how TPC-H Q8
// comes to start with region × part.
func TestExactKeepsCheapFirstCrossProduct(t *testing.T) {
	g := mustNew(t, 1, 4, 1000) // tiny, small, big; both connect to big only
	g.edge(0, 2, 1)             // joining big early keeps its 1000 rows either way
	g.edge(1, 2, 1.0/4)
	steps := g.LeftDeep(independence(g))
	checkPlan(t, "exact", g, steps)
	if got, want := relationOrder(steps), []int{1, 0, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("order = %v, want %v (the 4-row cross product first)", got, want)
	}
}

// bestConnected is the reference the DP is checked against: the cheapest
// left-deep order that never takes a cross product, by trying them all.
func bestConnected(g *Graph, est Estimator) float64 {
	best := math.Inf(1)
	var extend func(order []int, in uint64)
	extend = func(order []int, in uint64) {
		if len(order) == len(g.Card) {
			best = math.Min(best, cost(g.chain(order, est)))
			return
		}
		for i := range g.Card {
			if in&(1<<i) != 0 {
				continue
			}
			if _, _, connected := g.split(in, 1<<i, false, nil, nil); connected {
				extend(append(order, i), in|1<<i)
			}
		}
	}
	for i := range g.Card {
		extend([]int{i}, 1<<i)
	}
	return best
}

// Over random connected graphs: every strategy returns a complete plan
// that consumes each conjunct once, and the DP's order costs no more than
// the greedy one or than the best cross-product-free order. Cardinalities
// and selectivities are powers of two, so the arithmetic is exact.
func TestRandomConnectedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(6)
		card := make([]float64, n)
		for i := range card {
			card[i] = math.Ldexp(1, rng.Intn(11))
		}
		g := mustNew(t, card...)
		for i := 1; i < n; i++ { // a random spanning tree keeps it connected
			g.edge(rng.Intn(i), i, math.Ldexp(1, -rng.Intn(9)))
		}
		for extra := rng.Intn(n); extra > 0; extra-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			c := Conjunct{Rels: 1<<a | 1<<b, Equi: rng.Intn(2) == 0, Sel: math.Ldexp(1, -rng.Intn(4))}
			if !c.Equi && n > 2 && rng.Intn(2) == 0 {
				c.Rels |= 1 << rng.Intn(n) // a residual over three relations
			}
			g.Conjs = append(g.Conjs, c)
		}
		est := independence(g)
		plans := strategies(g, est)
		for name, steps := range plans {
			checkPlan(t, name, g, steps)
		}
		exact, greedy := cost(plans["exact"]), cost(plans["greedy"])
		if exact > greedy {
			t.Errorf("graph %d: exact order costs %v, greedy %v", iter, exact, greedy)
		}
		if ref := bestConnected(g, est); exact > ref {
			t.Errorf("graph %d: exact order costs %v, the best connected order %v", iter, exact, ref)
		}
	}
}
