package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// sequentialAnnotate is the annotator as it was before an annotation
// became one consultation round per node: a post-order walk that consults
// while it decides, each candidate of each Rule-4 decision asking its node
// for the operator costs its movement combinations need. It is a test
// oracle only: TestAnnotateMatchesSequentialWalk holds annotate to its
// placements and movements.
func sequentialAnnotate(root Op, f *fakeCoster, opts Options) (*Annotation, error) {
	w := &sequentialWalk{f: f, opts: opts, a: &Annotation{Node: map[Op]string{}, Move: map[Op]Movement{}}}
	if err := w.visit(root); err != nil {
		return nil, err
	}
	return w.a, nil
}

type sequentialWalk struct {
	f    *fakeCoster
	opts Options
	a    *Annotation
}

func (w *sequentialWalk) visit(op Op) error {
	switch o := op.(type) {
	case *Scan:
		w.a.Node[op] = o.Node
	case *Final:
		if err := w.visit(o.In); err != nil {
			return err
		}
		w.a.Node[op] = w.a.Node[o.In]
	case *Join:
		if err := w.visit(o.L); err != nil {
			return err
		}
		if err := w.visit(o.R); err != nil {
			return err
		}
		if ln, rn := w.a.Node[o.L], w.a.Node[o.R]; ln == rn {
			w.a.Node[op] = ln
		} else {
			w.place(o)
		}
	default:
		return fmt.Errorf("unexpected operator %T", op)
	}
	return nil
}

func (w *sequentialWalk) place(j *Join) {
	ln, rn := w.a.Node[j.L], w.a.Node[j.R]
	candidates := []string{ln, rn}
	if w.opts.FullCandidateSet {
		candidates = w.f.AllNodes()
	}
	var healthy []string
	for _, c := range candidates {
		if w.f.Healthy(c) {
			healthy = append(healthy, c)
		}
	}
	if len(healthy) > 0 {
		candidates = healthy
	}
	var best placeDecision
	for i, cand := range candidates {
		if d := w.eval(j, cand, ln, rn); i == 0 || d.cost < best.cost {
			best = d
		}
	}
	w.a.Node[j] = best.node
	if ln != best.node {
		w.a.Move[j.L] = best.moveL
	}
	if rn != best.node {
		w.a.Move[j.R] = best.moveR
	}
}

func (w *sequentialWalk) eval(j *Join, cand, ln, rn string) placeDecision {
	sides := [2]struct {
		op    Op
		local bool
	}{{j.L, ln == cand}, {j.R, rn == cand}}
	var total float64
	if !sides[0].local {
		total += moveCost(j.L, w.f.LinkFactor(ln, cand))
	}
	if !sides[1].local {
		total += moveCost(j.R, w.f.LinkFactor(rn, cand))
	}
	bestJoin := math.Inf(1)
	var bestMoves [2]Movement
	for _, combo := range movementCombos(sides[0].local, sides[1].local, w.opts.ForceMovement) {
		lStream := combo[0] == MoveImplicit && !sides[0].local
		rStream := combo[1] == MoveImplicit && !sides[1].local
		l, r := j.L.Est(), j.R.Est()
		kind := engine.CostJoin
		switch {
		case lStream && rStream:
			if l < r {
				l, r = r, l
			}
			kind = engine.CostJoinStream
		case lStream:
			kind = engine.CostJoinStream
		case rStream:
			kind, l, r = engine.CostJoinStream, r, l
		}
		jc := w.cost(cand, kind, l, r, j.Est())
		for i, mv := range combo {
			if !sides[i].local && mv == MoveExplicit {
				jc += 2 * w.cost(cand, engine.CostScan, sides[i].op.Est(), 0, 0)
			}
		}
		if jc < bestJoin {
			bestJoin, bestMoves = jc, combo
		}
	}
	return placeDecision{node: cand, moveL: bestMoves[0], moveR: bestMoves[1], cost: total + bestJoin}
}

// cost is one consultation probe, priced by the local model when the node
// cannot answer.
func (w *sequentialWalk) cost(node string, kind engine.CostKind, l, r, o float64) float64 {
	if w.f.Healthy(node) {
		if c, err := w.f.CostOperator(context.Background(), node, kind, l, r, o); err == nil {
			return c
		}
	}
	return localCost(kind, l, r, o)
}

// checkMatchesSequential annotates root both ways and compares the
// placements and movements, and checks that the one-round annotator
// consulted no node twice and no unhealthy node at all.
func checkMatchesSequential(t *testing.T, name string, root Op, f *fakeCoster, opts Options) {
	t.Helper()
	f.calls, f.probes = nil, 0
	got, err := annotate(context.Background(), root, f, nil, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, n := range f.nodes {
		if c := f.callsTo(n); c > 1 || (c > 0 && f.unhealthy[n]) {
			t.Errorf("%s: %s consulted %d times (unhealthy %v)", name, n, c, f.unhealthy[n])
		}
	}
	want, err := sequentialAnnotate(root, f, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(got.Node) != len(want.Node) || len(got.Move) != len(want.Move) {
		t.Errorf("%s: %d placements, %d movements; the sequential walk has %d, %d",
			name, len(got.Node), len(got.Move), len(want.Node), len(want.Move))
	}
	for op, n := range want.Node {
		if got.Node[op] != n {
			t.Errorf("%s: %s placed on %q, the sequential walk places it on %q", name, OpString(op), got.Node[op], n)
		}
	}
	for op, m := range want.Move {
		if got.Move[op] != m {
			t.Errorf("%s: edge above %s moves %q, the sequential walk moves it %q", name, OpString(op), got.Move[op], m)
		}
	}
}

// TestAnnotateMatchesSequentialWalk: collecting every ask first and
// deciding over the answers chooses exactly what consulting decision by
// decision chose — on every TPC-H query and distribution under the default
// and bushy orders, and on seeded random cross-database join graphs under
// every option that changes what a decision asks or may choose, with a
// node unhealthy or erroring.
func TestAnnotateMatchesSequentialWalk(t *testing.T) {
	nodes := []string{"db1", "db2", "db3", "db4"}
	skewed := map[string]float64{"db1": 1, "db2": 0.6, "db3": 1.7, "db4": 0.9}
	cats, _ := tpchCatalogs(t)
	for _, qn := range tpch.QueryNames {
		for _, tdName := range tpch.TDNames {
			for _, m := range joinOrderModes[:2] {
				root := orderedTPCH(t, cats[tdName], qn, m.opts)
				for _, factors := range []map[string]float64{nil, skewed} {
					name := fmt.Sprintf("%s %s %s skewed=%v", qn, tdName, m.name, factors != nil)
					checkMatchesSequential(t, name, root, &fakeCoster{nodes: nodes, factors: factors}, m.opts)
				}
			}
		}
	}

	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, sql := randomJoinQuery(rng, nodes)
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		b, conjs, canon, err := buildLogical(c, sel)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sql)
		}
		joined, err := orderJoins(b, conjs, Options{BushyPlans: seed%2 == 0})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		root := &Final{In: joined, Sel: canon}
		// Every third seed prices all nodes and links alike, so twins tie.
		uniform := seed%3 == 0
		newCoster := func() *fakeCoster {
			f := &fakeCoster{nodes: nodes, factors: map[string]float64{}, linkFactors: map[string]float64{},
				unhealthy: map[string]bool{}, erroring: map[string]bool{}}
			if uniform {
				return f
			}
			for _, n := range nodes {
				f.factors[n] = 0.5 + rng.Float64()
				for _, to := range nodes {
					if n != to && rng.Intn(3) == 0 {
						f.linkFactors[n+"->"+to] = 1 + 4*rng.Float64()
					}
				}
			}
			return f
		}
		scenarios := []struct {
			name string
			opts Options
			bend func(*fakeCoster)
		}{
			{"default", Options{}, nil},
			{"full candidate set", Options{FullCandidateSet: true}, nil},
			{"force implicit", Options{ForceMovement: MoveImplicit}, nil},
			{"force explicit", Options{ForceMovement: MoveExplicit}, nil},
			{"one node unhealthy", Options{}, func(f *fakeCoster) { f.unhealthy[nodes[rng.Intn(len(nodes))]] = true }},
			{"one node unhealthy, full set", Options{FullCandidateSet: true}, func(f *fakeCoster) { f.unhealthy[nodes[rng.Intn(len(nodes))]] = true }},
			{"one node erroring", Options{}, func(f *fakeCoster) { f.erroring[nodes[rng.Intn(len(nodes))]] = true }},
		}
		for _, sc := range scenarios {
			f := newCoster()
			if sc.bend != nil {
				sc.bend(f)
			}
			checkMatchesSequential(t, fmt.Sprintf("seed %d %s: %s", seed, sc.name, sql), root, f, sc.opts)
		}
	}
}

// randomJoinQuery builds a catalog of 2–5 relations spread over at least
// two nodes, with random sizes, and a query joining them along a random
// spanning tree.
func randomJoinQuery(rng *rand.Rand, nodes []string) (*Catalog, string) {
	n := 2 + rng.Intn(4)
	homes := make([]string, n)
	for {
		for i := range homes {
			homes[i] = nodes[rng.Intn(len(nodes))]
		}
		if slices.ContainsFunc(homes, func(h string) bool { return h != homes[0] }) {
			break
		}
	}
	c := NewCatalog()
	from := make([]string, n)
	var where []string
	var rows, fkDistinct int64
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		// Now and then r1 is r0's twin, so that placing their join on
		// either input's node is the same price: a tie.
		if i == 0 || rng.Intn(3) > 0 {
			rows = int64(math.Pow(10, 1+5*rng.Float64()))
			fkDistinct = 1 + rows/int64(1+rng.Intn(50))
		}
		id, fk := name+"_id", name+"_fk"
		c.Put(&TableInfo{
			Name: name, Node: homes[i],
			Schema: sqltypes.NewSchema(
				sqltypes.Column{Name: id, Type: sqltypes.TypeInt},
				sqltypes.Column{Name: fk, Type: sqltypes.TypeInt}),
			Stats: &engine.TableStats{RowCount: rows, AvgRowBytes: 40, Columns: []engine.ColumnStats{
				{Name: id, Distinct: rows, Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(rows)},
				{Name: fk, Distinct: fkDistinct, Min: sqltypes.NewInt(0), Max: sqltypes.NewInt(rows)},
			}},
		})
		from[i] = name
		if i > 0 {
			p := rng.Intn(i)
			where = append(where, fmt.Sprintf("r%d.r%d_fk = r%d.r%d_id", i, i, p, p))
		}
	}
	return c, fmt.Sprintf("SELECT r0.r0_id FROM %s WHERE %s", strings.Join(from, ", "), strings.Join(where, " AND "))
}
