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
	"xdb/internal/planner"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// sequentialAnnotate is the annotator as it was before an annotation
// became one consultation round per node: a post-order walk that consults
// while it decides, each candidate of each Rule-4 decision asking its node
// for the operator costs its movement combinations need. It is a test
// oracle only: TestAnnotateMatchesSequentialWalk holds annotate to its
// placements and movements.
func sequentialAnnotate(root planner.Op, f *fakeCluster, opts Options) (*planner.Annotation, error) {
	w := &sequentialWalk{f: f, opts: opts, a: &planner.Annotation{Node: map[planner.Op]string{}, Move: map[planner.Op]planner.Movement{}}}
	if err := w.visit(root); err != nil {
		return nil, err
	}
	return w.a, nil
}

type sequentialWalk struct {
	f    *fakeCluster
	opts Options
	a    *planner.Annotation
}

func (w *sequentialWalk) visit(op planner.Op) error {
	switch o := op.(type) {
	case *planner.Scan:
		w.a.Node[op] = o.Node
	case *planner.Final:
		if err := w.visit(o.In); err != nil {
			return err
		}
		w.a.Node[op] = w.a.Node[o.In]
	case *planner.Join:
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

func (w *sequentialWalk) place(j *planner.Join) {
	ln, rn := w.a.Node[j.L], w.a.Node[j.R]
	candidates := []string{ln, rn}
	if w.opts.FullCandidateSet {
		candidates = w.f.nodes
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
	var best oracleDecision
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

func (w *sequentialWalk) eval(j *planner.Join, cand, ln, rn string) oracleDecision {
	sides := [2]struct {
		op    planner.Op
		local bool
	}{{j.L, ln == cand}, {j.R, rn == cand}}
	var total float64
	if !sides[0].local {
		total += oracleMoveCost(j.L, w.f.LinkFactor(ln, cand))
	}
	if !sides[1].local {
		total += oracleMoveCost(j.R, w.f.LinkFactor(rn, cand))
	}
	bestJoin := math.Inf(1)
	var bestMoves [2]planner.Movement
	for _, combo := range oracleCombos(sides[0].local, sides[1].local, w.opts.ForceMovement) {
		lStream := combo[0] == planner.MoveImplicit && !sides[0].local
		rStream := combo[1] == planner.MoveImplicit && !sides[1].local
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
			if !sides[i].local && mv == planner.MoveExplicit {
				jc += 2 * w.cost(cand, engine.CostScan, sides[i].op.Est(), 0, 0)
			}
		}
		if jc < bestJoin {
			bestJoin, bestMoves = jc, combo
		}
	}
	return oracleDecision{node: cand, moveL: bestMoves[0], moveR: bestMoves[1], cost: total + bestJoin}
}

// cost is one consultation probe, priced by the local model when the node
// cannot answer.
func (w *sequentialWalk) cost(node string, kind engine.CostKind, l, r, o float64) float64 {
	if w.f.Healthy(node) {
		if c, err := w.f.CostOperator(context.Background(), node, kind, l, r, o); err == nil {
			return c
		}
	}
	return planner.LocalCost(kind, l, r, o)
}

// oracleDecision is one candidate site's priced outcome.
type oracleDecision struct {
	node         string
	moveL, moveR planner.Movement
	cost         float64
}

// oracleMoveCost is Eq. 2's moveCost: the operator's estimated output
// bytes on the wire, 2 units per row plus 0.05 per byte, scaled by the
// link (never below the baseline).
func oracleMoveCost(op planner.Op, linkFactor float64) float64 {
	return op.Est() * (2 + op.Width()*0.05) * math.Max(linkFactor, 1)
}

// oracleCombos enumerates the movement choices for the two sides: a local
// side is implicit, a remote one either (or the forced one).
func oracleCombos(lLocal, rLocal bool, force planner.Movement) [][2]planner.Movement {
	options := func(local bool) []planner.Movement {
		switch {
		case local:
			return []planner.Movement{planner.MoveImplicit}
		case force != 0:
			return []planner.Movement{force}
		}
		return []planner.Movement{planner.MoveImplicit, planner.MoveExplicit}
	}
	var out [][2]planner.Movement
	for _, l := range options(lLocal) {
		for _, r := range options(rLocal) {
			out = append(out, [2]planner.Movement{l, r})
		}
	}
	return out
}

// checkMatchesSequential annotates root both ways and compares the
// placements and movements, and checks that the one-round annotator
// consulted no node twice and no unhealthy node at all.
func checkMatchesSequential(t *testing.T, name string, root planner.Op, f *fakeCluster, opts Options) {
	t.Helper()
	f.calls, f.probes = nil, 0
	got, err := f.annotate(root, opts)
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
			t.Errorf("%s: %s placed on %q, the sequential walk places it on %q", name, planner.OpString(op), got.Node[op], n)
		}
	}
	for op, m := range want.Move {
		if got.Move[op] != m {
			t.Errorf("%s: edge above %s moves %q, the sequential walk moves it %q", name, planner.OpString(op), got.Move[op], m)
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
	cats := tpchCatalogs(t)
	for _, qn := range tpch.QueryNames {
		for _, tdName := range tpch.TDNames {
			for _, opts := range []Options{{}, {BushyPlans: true}} {
				_, root := ordered(t, cats[tdName], tpch.Queries[qn], opts)
				for _, factors := range []map[string]float64{nil, skewed} {
					name := fmt.Sprintf("%s %s bushy=%v skewed=%v", qn, tdName, opts.BushyPlans, factors != nil)
					checkMatchesSequential(t, name, root, &fakeCluster{nodes: nodes, factors: factors}, opts)
				}
			}
		}
	}

	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c, sql := randomJoinQuery(rng, nodes)
		_, root := ordered(t, c, sql, Options{BushyPlans: seed%2 == 0})
		// Every third seed prices all nodes and links alike, so twins tie.
		uniform := seed%3 == 0
		newCoster := func() *fakeCluster {
			f := &fakeCluster{nodes: nodes, factors: map[string]float64{}, linkFactors: map[string]float64{},
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
			bend func(*fakeCluster)
		}{
			{"default", Options{}, nil},
			{"full candidate set", Options{FullCandidateSet: true}, nil},
			{"force implicit", Options{ForceMovement: planner.MoveImplicit}, nil},
			{"force explicit", Options{ForceMovement: planner.MoveExplicit}, nil},
			{"one node unhealthy", Options{}, func(f *fakeCluster) { f.unhealthy[nodes[rng.Intn(len(nodes))]] = true }},
			{"one node unhealthy, full set", Options{FullCandidateSet: true}, func(f *fakeCluster) { f.unhealthy[nodes[rng.Intn(len(nodes))]] = true }},
			{"one node erroring", Options{}, func(f *fakeCluster) { f.erroring[nodes[rng.Intn(len(nodes))]] = true }},
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
func randomJoinQuery(rng *rand.Rand, nodes []string) (*planner.Catalog, string) {
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
	c := planner.NewCatalog()
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
		c.Put(&planner.TableInfo{
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

// tpchCatalogs builds one global catalog per table distribution over the
// same generated data, with the statistics an engine would report — no
// sockets, no System.
func tpchCatalogs(t *testing.T) map[string]*planner.Catalog {
	t.Helper()
	data := tpch.NewGenerator(0.003, 42).GenAll()
	cats := map[string]*planner.Catalog{}
	for _, tdName := range tpch.TDNames {
		cats[tdName] = planner.NewCatalog()
	}
	for _, table := range tpch.TableNames {
		schema, err := tpch.Schema(table)
		if err != nil {
			t.Fatal(err)
		}
		stats := engine.ComputeStats(schema, data[table])
		for tdName, c := range cats {
			c.Put(&planner.TableInfo{Name: table, Node: tpch.Distributions[tdName][table], Schema: schema, Stats: stats})
		}
	}
	return cats
}
