package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// newTestCatalog builds a global catalog with synthetic stats, no live
// engines — for unit tests of the optimizer pieces.
func newTestCatalog() *planner.Catalog {
	c := planner.NewCatalog()
	add := func(name, node string, rows int64, cols ...sqltypes.Column) {
		schema := sqltypes.NewSchema(cols...)
		stats := &engine.TableStats{RowCount: rows, AvgRowBytes: 40}
		for _, col := range cols {
			distinct := rows
			if col.Type == sqltypes.TypeString {
				distinct = rows / 10
			}
			if distinct < 1 {
				distinct = 1
			}
			cs := engine.ColumnStats{Name: col.Name, Distinct: distinct}
			if col.Type == sqltypes.TypeInt {
				cs.Min, cs.Max = sqltypes.NewInt(0), sqltypes.NewInt(rows)
			}
			if col.Type == sqltypes.TypeDate {
				cs.Min = sqltypes.DateFromYMD(1992, 1, 1)
				cs.Max = sqltypes.DateFromYMD(1998, 12, 31)
			}
			stats.Columns = append(stats.Columns, cs)
		}
		c.Put(&planner.TableInfo{Name: name, Node: node, Schema: schema, Stats: stats})
	}
	icol := func(n string) sqltypes.Column { return sqltypes.Column{Name: n, Type: sqltypes.TypeInt} }
	scol := func(n string) sqltypes.Column { return sqltypes.Column{Name: n, Type: sqltypes.TypeString} }
	dcol := func(n string) sqltypes.Column { return sqltypes.Column{Name: n, Type: sqltypes.TypeDate} }

	add("small", "db1", 100, icol("s_id"), scol("s_name"))
	add("medium", "db2", 10_000, icol("m_id"), icol("m_sid"), scol("m_tag"), dcol("m_date"))
	add("large", "db3", 1_000_000, icol("l_id"), icol("l_mid"), scol("l_flag"), dcol("l_date"))
	return c
}

// analyze resolves sql against the catalog.
func analyze(t *testing.T, c *planner.Catalog, sql string) *planner.Analysis {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	a, err := planner.Analyze(c, sel)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// scanOf returns the analysis' scan of alias.
func scanOf(a *planner.Analysis, alias string) *planner.Scan {
	for _, sc := range a.Scans {
		if sc.Alias == alias {
			return sc
		}
	}
	return nil
}

// ordered analyzes sql and orders its joins under opts, as System.plan
// does.
func ordered(t *testing.T, c *planner.Catalog, sql string, opts Options) (*planner.Analysis, *planner.Final) {
	t.Helper()
	a := analyze(t, c, sql)
	root, err := planner.Order(a, opts.NoJoinReorder, opts.BushyPlans)
	if err != nil {
		t.Fatal(err)
	}
	return a, root
}

func TestBuildLogicalResolution(t *testing.T) {
	c := newTestCatalog()
	a := analyze(t, c, `
		SELECT s.s_name, COUNT(*) FROM small s, medium m
		WHERE s.s_id = m.m_sid AND m.m_tag = 'x' GROUP BY s.s_name`)
	conjs, canon := a.JoinConjs, a.Canon
	if len(a.Scans) != 2 {
		t.Fatalf("relations = %v", a.Scans)
	}
	// The single-table predicate is pushed into the medium scan.
	m := scanOf(a, "m")
	if m.Filter == nil || !strings.Contains(m.Filter.String(), "m_tag") {
		t.Errorf("filter not pushed: %v", m.Filter)
	}
	// The join conjunct stays global.
	if len(conjs) != 1 {
		t.Fatalf("join conjuncts = %v", conjs)
	}
	// Canonicalization qualified the unqualified COUNT(*) context columns.
	if !strings.Contains(canon.String(), "s.s_name") {
		t.Errorf("canon = %s", canon)
	}
}

func TestBuildLogicalUnqualifiedResolution(t *testing.T) {
	c := newTestCatalog()
	canon := analyze(t, c, "SELECT s_name FROM small, medium WHERE s_id = m_sid").Canon
	// Unqualified names resolve to the owning relation's alias.
	if !strings.Contains(canon.String(), "small.s_name") {
		t.Errorf("canon = %s", canon)
	}
	if !strings.Contains(canon.String(), "small.s_id = medium.m_sid") {
		t.Errorf("canon = %s", canon)
	}
}

func TestBuildLogicalErrors(t *testing.T) {
	c := newTestCatalog()
	cases := []string{
		"SELECT x FROM nosuch",
		"SELECT nosuch FROM small",
		"SELECT s.nosuch FROM small s",
		"SELECT s_id FROM small a, small b",  // ambiguous s_id
		"SELECT s_id FROM small a, small a",  // duplicate alias
		"SELECT OTHER.s_id FROM OTHER.small", // wrong DB qualifier
		"SELECT z.s_id FROM small s",         // unknown alias
	}
	for _, q := range cases {
		sel, err := sqlparser.ParseSelect(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := planner.Analyze(c, sel); err == nil {
			t.Errorf("Analyze(%q) succeeded, want error", q)
		}
	}
}

func TestProjectionPushdownPrunesColumns(t *testing.T) {
	c := newTestCatalog()
	m := scanOf(analyze(t, c, "SELECT m.m_tag FROM medium m WHERE m.m_id > 5"), "m")
	if len(m.Cols) != 2 { // m_tag + m_id (filter)
		t.Errorf("pruned cols = %v", m.Cols)
	}
	for _, col := range m.Cols {
		if col != "m_tag" && col != "m_id" {
			t.Errorf("unexpected column kept: %s", col)
		}
	}
}

func TestStarExpansion(t *testing.T) {
	c := newTestCatalog()
	a := analyze(t, c, "SELECT * FROM small s, medium m WHERE s.s_id = m.m_sid")
	if len(a.Canon.Projections) != 2+4 {
		t.Fatalf("projections = %d", len(a.Canon.Projections))
	}
	// All columns kept on both scans.
	if len(scanOf(a, "s").Cols) != 2 || len(scanOf(a, "m").Cols) != 4 {
		t.Errorf("cols = %v / %v", scanOf(a, "s").Cols, scanOf(a, "m").Cols)
	}
}

func TestEstimateScanSelectivity(t *testing.T) {
	c := newTestCatalog()
	// Equality on an integer key: 1/distinct.
	if est := analyze(t, c, "SELECT m_id FROM medium WHERE m_id = 7").Scans[0].Est(); est > 2 {
		t.Errorf("eq estimate = %v, want ~1", est)
	}
	// Range with min/max interpolation: dates span 1992..1998, cutting at
	// 1995-07 keeps roughly half.
	est := analyze(t, c, "SELECT m_id FROM medium WHERE m_date < DATE '1995-07-01'").Scans[0].Est()
	if est < 3000 || est > 7000 {
		t.Errorf("range estimate = %v, want ~5000", est)
	}
	// BETWEEN one year of seven.
	est = analyze(t, c, "SELECT m_id FROM medium WHERE m_date BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'").Scans[0].Est()
	if est < 500 || est > 3000 {
		t.Errorf("between estimate = %v, want ~1400", est)
	}
	// Interval arithmetic folds into constants for estimation.
	est2 := analyze(t, c, "SELECT m_id FROM medium WHERE m_date < DATE '1994-07-01' + INTERVAL '1' YEAR").Scans[0].Est()
	if math.Abs(est2-est) < 1 {
		t.Logf("interval estimate %v (plain %v)", est2, est)
	}
	if est2 < 3000 || est2 > 7000 {
		t.Errorf("interval range estimate = %v, want ~5000", est2)
	}
}

func TestEstimateJoinFKShape(t *testing.T) {
	c := newTestCatalog()
	_, root := ordered(t, c, "SELECT s.s_id FROM small s, medium m WHERE s.s_id = m.m_sid", Options{})
	// FK join small(100) x medium(10k) on s_id: |L||R|/max(d) = 100*10k/10k = 100... or
	// with m_sid distinct 10k -> ~100.
	est := root.In.Est()
	if est < 50 || est > 20000 {
		t.Errorf("join estimate = %v", est)
	}
}

func TestOrderJoinsSmallestFirst(t *testing.T) {
	c := newTestCatalog()
	_, root := ordered(t, c, `
		SELECT s.s_id FROM large l, medium m, small s
		WHERE l.l_mid = m.m_id AND m.m_sid = s.s_id`, Options{})
	j, ok := root.In.(*planner.Join)
	if !ok {
		t.Fatalf("got %T", root.In)
	}
	// Left-deep: the deepest left must be the smallest relation (small).
	deepest := j.L
	for {
		inner, ok := deepest.(*planner.Join)
		if !ok {
			break
		}
		deepest = inner.L
	}
	if s, ok := deepest.(*planner.Scan); !ok || s.Table != "small" {
		t.Errorf("deepest-left relation = %v, want small", planner.OpString(deepest))
	}
}

func TestOrderJoinsNoReorder(t *testing.T) {
	c := newTestCatalog()
	_, root := ordered(t, c, `
		SELECT s.s_id FROM large l, medium m, small s
		WHERE l.l_mid = m.m_id AND m.m_sid = s.s_id`, Options{NoJoinReorder: true})
	// Syntactic order: ((large x medium) x small).
	j := root.In.(*planner.Join)
	deepest := j.L
	for {
		inner, ok := deepest.(*planner.Join)
		if !ok {
			break
		}
		deepest = inner.L
	}
	if s, ok := deepest.(*planner.Scan); !ok || s.Table != "large" {
		t.Errorf("deepest-left = %v, want large (syntactic order)", planner.OpString(deepest))
	}
}

func TestOrderJoinsResidualPredicates(t *testing.T) {
	c := newTestCatalog()
	_, root := ordered(t, c, `
		SELECT s.s_id FROM small s, medium m
		WHERE s.s_id = m.m_sid AND (s.s_name = 'a' OR m.m_tag = 'b')`, Options{})
	j := root.In.(*planner.Join)
	if len(j.Keys) != 1 || len(j.Residual) != 1 {
		t.Errorf("keys=%d residuals=%d", len(j.Keys), len(j.Residual))
	}
}

// fakeCluster stands in for the nodes annotation consults, without live
// engines: each node prices an operator with the local cost model's
// shapes, scaled by its factor (1 when absent). Nodes in unhealthy have an
// open breaker; nodes in erroring fail every consultation. It counts the
// consultation calls each node received and the join probes they carried,
// under a lock: annotation consults the nodes concurrently.
type fakeCluster struct {
	nodes     []string
	factors   map[string]float64
	unhealthy map[string]bool
	erroring  map[string]bool
	// linkFactors keyed "from->to"
	linkFactors map[string]float64

	mu     sync.Mutex
	calls  map[string]int
	probes int
}

// CostOperator is the fake node's answer to one cost probe.
func (f *fakeCluster) CostOperator(_ context.Context, node string, kind engine.CostKind, l, r, o float64) (float64, error) {
	if f.erroring[node] {
		return 0, fmt.Errorf("probe to %s failed", node)
	}
	factor := 1.0
	if v, ok := f.factors[node]; ok {
		factor = v
	}
	return planner.LocalCost(kind, l, r, o) * factor, nil
}

// PriceJoins is a priceFunc: one call per node asked, every join priced
// the way a server prices it (engine.JoinPricesOf).
func (f *fakeCluster) PriceJoins(ctx context.Context, node string, joins []connector.JoinProbe) ([]engine.JoinPrices, []error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = map[string]int{}
	}
	f.calls[node]++
	f.probes += len(joins)
	f.mu.Unlock()
	prices, errs := make([]engine.JoinPrices, len(joins)), make([]error, len(joins))
	for i, j := range joins {
		prices[i] = engine.JoinPricesOf(func(kind engine.CostKind, l, r, o float64) float64 {
			c, err := f.CostOperator(ctx, node, kind, l, r, o)
			if err != nil {
				errs[i] = err
			}
			return c
		}, j.Left, j.Right, j.Out)
	}
	return prices, errs
}

// probeCount is the number of join probes the fake was sent.
func (f *fakeCluster) probeCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.probes
}

// callsTo is the number of consultation calls node received.
func (f *fakeCluster) callsTo(node string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[node]
}

func (f *fakeCluster) Healthy(node string) bool { return !f.unhealthy[node] }

func (f *fakeCluster) LinkFactor(from, to string) float64 {
	if v, ok := f.linkFactors[from+"->"+to]; ok {
		return v
	}
	return 1
}

// sites is the fake's view for one annotation under opts, as System.plan
// builds it for the cluster.
func (f *fakeCluster) sites(opts Options) *planner.Sites {
	var all []string
	if opts.FullCandidateSet {
		all = f.nodes
	}
	return planner.NewSites(f.Healthy, f.LinkFactor, all)
}

// annotate annotates the plan under root by consulting the fake (no
// consult cache).
func (f *fakeCluster) annotate(root planner.Op, opts Options) (*planner.Annotation, error) {
	return annotate(context.Background(), root, f.sites(opts), f.PriceJoins, nil, opts)
}

func buildAnnotatedPlan(t *testing.T, sql string, opts Options) (*planner.Final, *planner.Annotation, *planner.Analysis) {
	t.Helper()
	a, root := ordered(t, newTestCatalog(), sql, opts)
	ann, err := (&fakeCluster{nodes: []string{"db1", "db2", "db3"}}).annotate(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	return root, ann, a
}

func TestAnnotateRules(t *testing.T) {
	final, ann, a := buildAnnotatedPlan(t,
		"SELECT s.s_name, COUNT(*) FROM small s, medium m WHERE s.s_id = m.m_sid GROUP BY s.s_name", Options{})
	// Rule 1: scans on their homes.
	if ann.Node[scanOf(a, "s")] != "db1" || ann.Node[scanOf(a, "m")] != "db2" {
		t.Errorf("scan annotations: %v / %v", ann.Node[scanOf(a, "s")], ann.Node[scanOf(a, "m")])
	}
	join := final.In.(*planner.Join)
	// Rule 4: join placed on one of its inputs' nodes.
	if n := ann.Node[join]; n != "db1" && n != "db2" {
		t.Errorf("join placed on %s", n)
	}
	// Rule 2: Final inherits the join's node.
	if ann.Node[final] != ann.Node[join] {
		t.Errorf("final on %s, join on %s", ann.Node[final], ann.Node[join])
	}
	// The remote child edge carries a movement.
	var remote planner.Op = join.L
	if ann.Node[join.L] == ann.Node[join] {
		remote = join.R
	}
	if mv := ann.Move[remote]; mv != planner.MoveImplicit && mv != planner.MoveExplicit {
		t.Errorf("remote edge movement = %v", mv)
	}
	if ann.ConsultRounds == 0 {
		t.Error("no consulting rounds recorded")
	}
}

func TestAnnotateRule3SameNode(t *testing.T) {
	c := newTestCatalog()
	// Two relations on db2: join inherits without consulting.
	c.Put(&planner.TableInfo{
		Name: "medium2", Node: "db2",
		Schema: sqltypes.NewSchema(sqltypes.Column{Name: "x_id", Type: sqltypes.TypeInt}),
		Stats:  &engine.TableStats{RowCount: 50, Columns: []engine.ColumnStats{{Name: "x_id", Distinct: 50}}},
	})
	_, root := ordered(t, c, "SELECT m.m_id FROM medium m, medium2 x WHERE m.m_id = x.x_id", Options{})
	cluster := &fakeCluster{nodes: []string{"db1", "db2"}}
	ann, err := cluster.annotate(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := cluster.probeCount(); n != 0 {
		t.Errorf("co-located join consulted %d times, want 0", n)
	}
	if ann.Node[root.In] != "db2" {
		t.Errorf("join on %s, want db2", ann.Node[root.In])
	}
}

func TestAnnotateForcedMovement(t *testing.T) {
	for _, force := range []planner.Movement{planner.MoveImplicit, planner.MoveExplicit} {
		root, ann, _ := buildAnnotatedPlan(t,
			"SELECT s.s_id FROM small s, medium m WHERE s.s_id = m.m_sid",
			Options{ForceMovement: force})
		join := root.In.(*planner.Join)
		for _, child := range []planner.Op{join.L, join.R} {
			if ann.Node[child] == ann.Node[join] {
				continue
			}
			if mv := ann.Move[child]; mv != force {
				t.Errorf("force=%v: edge movement = %v", force, mv)
			}
		}
	}
}

func TestAnnotateFullCandidateSetConsultsMore(t *testing.T) {
	sql := "SELECT s.s_id FROM small s, medium m, large l WHERE s.s_id = m.m_sid AND m.m_id = l.l_mid"
	_, prunedAnn, _ := buildAnnotatedPlan(t, sql, Options{})
	_, fullAnn, _ := buildAnnotatedPlan(t, sql, Options{FullCandidateSet: true})
	if fullAnn.ConsultRounds <= prunedAnn.ConsultRounds {
		t.Errorf("full set rounds (%d) <= pruned rounds (%d)",
			fullAnn.ConsultRounds, prunedAnn.ConsultRounds)
	}
}

// TestFullCandidateSetTiesDeterministic: under FullCandidateSet the
// candidates are System.AllNodes, tried in order, and the first strictly
// cheaper one wins. Two identical tables on db1 and db2 make placing their
// join on either input's node the same price, so the candidate order alone
// decides — it must be the same on every plan.
func TestFullCandidateSetTiesDeterministic(t *testing.T) {
	cl := newCluster(t, Options{FullCandidateSet: true}, "db1", "db2", "db3", "db4")
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
	var rows []sqltypes.Row
	for i := 0; i < 200; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i))})
	}
	for table, node := range map[string]string{"ta": "db1", "tb": "db2"} {
		if err := cl.engines[node].LoadTable(table, schema, rows); err != nil {
			t.Fatal(err)
		}
		if err := cl.sys.RegisterTable(table, node); err != nil {
			t.Fatal(err)
		}
	}
	var first string
	for i := 0; i < 40; i++ {
		plan, _, err := cl.sys.Plan("SELECT x.a FROM ta x, tb y WHERE x.a = y.a")
		if err != nil {
			t.Fatal(err)
		}
		desc, err := plan.Describe()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = desc
		} else if desc != first {
			t.Fatalf("plan %d differs from the first:\n%s\nfirst:\n%s", i, desc, first)
		}
	}
	if !strings.Contains(first, "db1") {
		t.Errorf("the tie went past db1, the first node in order:\n%s", first)
	}
}

func TestLinkFactorShiftsPlacement(t *testing.T) {
	// With an expensive link into db2, the join should flee to db1's side
	// ... placement candidates are only the two inputs, so the cheap-link
	// side must win when data sizes are comparable.
	c := newTestCatalog()
	c.Put(&planner.TableInfo{
		Name: "peer", Node: "db2",
		Schema: sqltypes.NewSchema(sqltypes.Column{Name: "p_id", Type: sqltypes.TypeInt}),
		Stats: &engine.TableStats{RowCount: 100, AvgRowBytes: 40,
			Columns: []engine.ColumnStats{{Name: "p_id", Distinct: 100}}},
	})
	_, root := ordered(t, c, "SELECT s.s_id FROM small s, peer p WHERE s.s_id = p.p_id", Options{})
	// Moving data INTO db2 is 100x more expensive than into db1.
	cluster := &fakeCluster{
		nodes:       []string{"db1", "db2"},
		linkFactors: map[string]float64{"db1->db2": 100, "db2->db1": 1},
	}
	ann, err := cluster.annotate(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ann.Node[root.In]; got != "db1" {
		t.Errorf("join placed on %s, want db1 (cheap inbound link)", got)
	}
}

func TestFinalizeTaskFusion(t *testing.T) {
	root, ann, a := buildAnnotatedPlan(t, `
		SELECT s.s_name, COUNT(*) FROM small s, medium m, large l
		WHERE s.s_id = m.m_sid AND m.m_id = l.l_mid
		GROUP BY s.s_name`, Options{})
	plan := planner.Finalize(a, root, ann)
	if plan.Root == nil || len(plan.Tasks) < 2 {
		t.Fatalf("plan: %s", plan)
	}
	// The root task is last in post-order and holds the Final.
	if plan.Tasks[len(plan.Tasks)-1] != plan.Root {
		t.Error("root task not last in post-order")
	}
	if _, ok := plan.Root.Root.(*planner.Final); !ok {
		t.Errorf("root task fragment is %T, want *Final", plan.Root.Root)
	}
	// Edges connect distinct nodes and carry estimates.
	for _, e := range plan.Edges {
		if e.From.Node == e.To.Node {
			t.Errorf("edge within one node: %s", e)
		}
		if e.EstRows <= 0 {
			t.Errorf("edge estimate = %v", e.EstRows)
		}
		if e.Placeholder == nil || len(e.Placeholder.Cols) == 0 {
			t.Errorf("edge placeholder missing cols: %s", e)
		}
		if len(e.Placeholder.Types) != len(e.Placeholder.Cols) {
			t.Errorf("placeholder types misaligned")
		}
	}
	// Movements counted consistently.
	i, e := plan.Movements()
	if i+e != len(plan.Edges) {
		t.Errorf("movements %d+%d != %d edges", i, e, len(plan.Edges))
	}
}

func TestRenderIntermediateTask(t *testing.T) {
	root, ann, a := buildAnnotatedPlan(t,
		"SELECT s.s_name FROM small s, medium m WHERE s.s_id = m.m_sid AND m.m_tag = 'x'", Options{})
	plan := planner.Finalize(a, root, ann)
	if len(plan.Tasks) != 2 {
		t.Fatalf("tasks = %d:\n%s", len(plan.Tasks), plan)
	}
	child := plan.Tasks[0]
	sel, err := child.Render()
	if err != nil {
		t.Fatal(err)
	}
	// The child exports, under its mangled name, only the join key the root
	// reads; the filter-only column stays behind, its filter still applied.
	want := "SELECT m.m_sid AS m_m_sid FROM medium m WHERE m.m_tag = 'x'"
	if sql := sel.String(); sql != want {
		t.Errorf("child SQL:\n%s\nwant:\n%s", sql, want)
	}
	// Render the root after binding the placeholder.
	for _, e := range plan.Root.Inputs {
		e.Placeholder.Rel = "ft_test"
	}
	rootSel, err := plan.Root.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rootSel.String(), "ft_test") {
		t.Errorf("root SQL does not reference the placeholder relation:\n%s", rootSel)
	}
	// Rendered SQL must re-parse.
	if _, err := sqlparser.ParseSelect(rootSel.String()); err != nil {
		t.Errorf("root SQL does not re-parse: %v\n%s", err, rootSel)
	}
}

func TestRenderUnboundPlaceholderFails(t *testing.T) {
	root, ann, a := buildAnnotatedPlan(t,
		"SELECT s.s_name FROM small s, medium m WHERE s.s_id = m.m_sid", Options{})
	plan := planner.Finalize(a, root, ann)
	if _, err := plan.Root.Render(); err == nil {
		t.Error("rendering with unbound placeholder succeeded")
	}
}

func TestOpString(t *testing.T) {
	root, _, _ := buildAnnotatedPlan(t,
		"SELECT s.s_name FROM small s, medium m WHERE s.s_id = m.m_sid AND m.m_tag = 'x'", Options{})
	s := planner.OpString(root)
	for _, want := range []string{"Γ", "⋈", "σ", "π"} {
		if !strings.Contains(s, want) {
			t.Errorf("OpString = %q, missing %q", s, want)
		}
	}
}

func TestMangleCol(t *testing.T) {
	if got := planner.MangleCol("n1.n_name"); got != "n1_n_name" {
		t.Errorf("MangleCol = %q", got)
	}
	if planner.MangleCol("A.B") != "a_b" {
		t.Error("MangleCol must lower-case")
	}
}

func TestCatalogLookup(t *testing.T) {
	c := newTestCatalog()
	if _, ok := c.Lookup("SMALL"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := c.Lookup("nosuch"); ok {
		t.Error("phantom table found")
	}
	if len(c.Tables()) != 3 {
		t.Errorf("tables = %d", len(c.Tables()))
	}
}

func TestPlanString(t *testing.T) {
	root, ann, a := buildAnnotatedPlan(t,
		"SELECT s.s_name FROM small s, medium m WHERE s.s_id = m.m_sid", Options{})
	plan := planner.Finalize(a, root, ann)
	out := plan.String()
	if !strings.Contains(out, "t1") || !strings.Contains(out, "-->") {
		t.Errorf("plan string:\n%s", out)
	}
	// Edge String includes movement.
	for _, e := range plan.Edges {
		if !strings.Contains(e.String(), fmt.Sprintf("--%s-->", e.Move)) {
			t.Errorf("edge string %q", e.String())
		}
	}
}
