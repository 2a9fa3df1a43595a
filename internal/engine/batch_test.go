package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"xdb/internal/sqltypes"
)

// Batch-boundary tests: every operator, over inputs that end just before,
// on and just after a batch (and morsel) boundary, must answer what a
// naive row-at-a-time evaluation answers. The naive side is the ref*
// helpers below: nested Go loops over the loaded rows, no batches, no
// hashing. Each statement runs on one worker, the serial path, and then
// through morsel exchanges of 2 and 4 workers, which must return the same
// rows in the same order.

var boundarySizes = []int{0, 1, sqltypes.BatchRows - 1, sqltypes.BatchRows, sqltypes.BatchRows + 1, 2*sqltypes.BatchRows + 1, 5000, 9000}

// withWorkers runs f with exchanges of w workers (1: the serial path).
func withWorkers(w int, f func()) {
	defer func(old func() int) { exchangeWorkers = old }(exchangeWorkers)
	exchangeWorkers = func() int { return w }
	f()
}

// Column positions of the generated tables.
const (
	colK = iota // join key: int, NULL now and then, repeats
	colS        // join key: string, repeats
	colF        // join key: ints and floats holding the same numbers
	colV        // row number, unique
	colG        // small group id
)

var boundarySchema = sqltypes.NewSchema(
	sqltypes.Column{Name: "k", Type: sqltypes.TypeInt},
	sqltypes.Column{Name: "s", Type: sqltypes.TypeString},
	sqltypes.Column{Name: "f", Type: sqltypes.TypeFloat},
	sqltypes.Column{Name: "v", Type: sqltypes.TypeInt},
	sqltypes.Column{Name: "g", Type: sqltypes.TypeInt},
)

// boundaryRows generates n rows; salt shifts the patterns so that two
// tables overlap without being equal.
func boundaryRows(n, salt int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		j := i + salt
		k := sqltypes.NewInt(int64(j % 97))
		if j%13 == 5 {
			k = sqltypes.Null
		}
		f := sqltypes.NewInt(int64(j % 50))
		if j%2 == 1 {
			f = sqltypes.NewFloat(float64(j % 50))
		}
		rows[i] = sqltypes.Row{k, sqltypes.NewString(fmt.Sprintf("s%d", j%89)), f, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(j % 7))}
	}
	return rows
}

// boundaryEngine loads t1 (n rows), t2 (131 rows, the small side of the
// joins) and u (n rows, a large build side). With remoteBuilds, t2 and u
// are foreign tables whose streams take a while to open, so a join with a
// local probe side reads it ahead while its build side is on the way.
func boundaryEngine(t *testing.T, n int, remoteBuilds bool) (e *Engine, t1, t2 []sqltypes.Row) {
	t.Helper()
	t1, t2 = boundaryRows(n, 0), boundaryRows(131, 3)
	local := map[string][]sqltypes.Row{"t1": t1, "t2": t2, "u": t1}
	if !remoteBuilds {
		e = New(Config{Name: "b", Vendor: VendorTest})
	} else {
		const d = 5 * time.Millisecond
		remote := &stagedRemote{rels: map[string]*stagedRel{"t2": {rows: t2, openDelay: d}, "u": {rows: t1, openDelay: d}}}
		e = stagedEngine(t, Profiles(VendorTest), remote, foreignDDL("t2", "t2", len(t2), false), foreignDDL("u", "u", n, false))
		local = map[string][]sqltypes.Row{"t1": t1}
	}
	for name, rows := range local {
		if err := e.LoadTable(name, boundarySchema, rows); err != nil {
			t.Fatal(err)
		}
	}
	return e, t1, t2
}

// sqlEq is SQL equality: never true for NULL.
func sqlEq(a, b sqltypes.Value) bool {
	return !a.IsNull() && !b.IsNull() && sqltypes.Equal(a, b)
}

func pick(r sqltypes.Row, cols ...int) sqltypes.Row {
	out := make(sqltypes.Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

func refFilter(rows []sqltypes.Row, keep func(sqltypes.Row) bool, out func(sqltypes.Row) sqltypes.Row) []sqltypes.Row {
	var res []sqltypes.Row
	for _, r := range rows {
		if keep(r) {
			res = append(res, out(r))
		}
	}
	return res
}

func refJoin(l, r []sqltypes.Row, on func(l, r sqltypes.Row) bool, out func(l, r sqltypes.Row) sqltypes.Row) []sqltypes.Row {
	var res []sqltypes.Row
	for _, a := range l {
		for _, b := range r {
			if on(a, b) {
				res = append(res, out(a, b))
			}
		}
	}
	return res
}

// refGroup aggregates row by row: per group (in order of first
// appearance) COUNT(*), SUM(v), and COUNT(DISTINCT k).
func refGroup(rows []sqltypes.Row, keyCols ...int) []sqltypes.Row {
	type acc struct {
		key   sqltypes.Row
		count int64
		sum   int64
		ks    map[int64]bool
	}
	var order []*acc
	byKey := map[string]*acc{}
	for _, r := range rows {
		key := pick(r, keyCols...)
		a := byKey[rowKey(key)]
		if a == nil {
			a = &acc{key: key, ks: map[int64]bool{}}
			byKey[rowKey(key)] = a
			order = append(order, a)
		}
		a.count++
		a.sum += r[colV].I()
		if !r[colK].IsNull() {
			a.ks[r[colK].I()] = true
		}
	}
	var res []sqltypes.Row
	for _, a := range order {
		sum := sqltypes.NewInt(a.sum)
		res = append(res, append(a.key, sqltypes.NewInt(a.count), sum, sqltypes.NewInt(int64(len(a.ks)))))
	}
	return res
}

// rowKey renders a row with its value types, so 3 and 3.0 differ.
func rowKey(r sqltypes.Row) string {
	var b strings.Builder
	for _, v := range r {
		fmt.Fprintf(&b, "%d:%s|", v.T, v)
	}
	return b.String()
}

func rowKeys(rows []sqltypes.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = rowKey(r)
	}
	return keys
}

// expectRows compares in order; expectBag as multisets (a join's output
// order depends on which side the planner builds on).
func expectRows(t *testing.T, what string, got, want []sqltypes.Row) {
	t.Helper()
	g, w := rowKeys(got), rowKeys(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d rows, want %d", what, len(g), len(w))
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: row %d = %s, want %s", what, i, g[i], w[i])
			return
		}
	}
}

func expectBag(t *testing.T, what string, got, want []sqltypes.Row) {
	t.Helper()
	g, w := rowKeys(got), rowKeys(want)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Errorf("%s: %d rows, want %d", what, len(g), len(w))
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: sorted row %d = %s, want %s", what, i, g[i], w[i])
			return
		}
	}
}

func TestBatchBoundaries(t *testing.T) {
	for _, n := range boundarySizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			checkBoundaries(t, n, false)
			t.Run("read-ahead", func(t *testing.T) { checkBoundaries(t, n, true) })
		})
	}
}

// checkBoundaries runs every operator over n-row inputs against the naive
// evaluation.
func checkBoundaries(t *testing.T, n int, remoteBuilds bool) {
	e, t1, t2 := boundaryEngine(t, n, remoteBuilds)
	run := func(sql string) []sqltypes.Row {
		t.Helper()
		var serial []sqltypes.Row
		for _, w := range []int{1, 2, 4} {
			var res *Result
			var err error
			withWorkers(w, func() { res, err = e.QueryAll(sql) })
			if err != nil {
				t.Fatalf("%s, %d workers: %v", sql, w, err)
			}
			if w == 1 {
				serial = res.Rows
				continue
			}
			for i := range max(len(res.Rows), len(serial)) {
				if i == len(res.Rows) || i == len(serial) || rowKey(res.Rows[i]) != rowKey(serial[i]) {
					t.Errorf("%s: %d workers differ from 1 at row %d", sql, w, i)
					break
				}
			}
		}
		return serial
	}
	all := func(sqltypes.Row) bool { return true }
	vw := func(l, r sqltypes.Row) sqltypes.Row { return sqltypes.Row{l[colV], r[colV]} }

	expectRows(t, "scan", run("SELECT * FROM t1"), t1)
	expectRows(t, "filter",
		run("SELECT v, s FROM t1 WHERE g < 3 AND v >= 5"),
		refFilter(t1, func(r sqltypes.Row) bool { return r[colG].I() < 3 && r[colV].I() >= 5 },
			func(r sqltypes.Row) sqltypes.Row { return pick(r, colV, colS) }))

	for _, j := range []struct {
		name, cond string
		on         func(l, r sqltypes.Row) bool
	}{
		{"int key", "t1.k = t2.k", func(l, r sqltypes.Row) bool { return sqlEq(l[colK], r[colK]) }},
		{"string key", "t1.s = t2.s", func(l, r sqltypes.Row) bool { return sqlEq(l[colS], r[colS]) }},
		{"int/float key", "t1.f = t2.f", func(l, r sqltypes.Row) bool { return sqlEq(l[colF], r[colF]) }},
		{"two keys", "t1.k = t2.k AND t1.s = t2.s", func(l, r sqltypes.Row) bool {
			return sqlEq(l[colK], r[colK]) && sqlEq(l[colS], r[colS])
		}},
		{"residual", "t1.k = t2.k AND t1.v > t2.v + 40", func(l, r sqltypes.Row) bool {
			return sqlEq(l[colK], r[colK]) && l[colV].I() > r[colV].I()+40
		}},
		{"nested loop", "t1.k + 0 = t2.k", func(l, r sqltypes.Row) bool { return sqlEq(l[colK], r[colK]) }},
	} {
		expectBag(t, "join, "+j.name,
			run("SELECT t1.v, t2.v FROM t1, t2 WHERE "+j.cond), refJoin(t1, t2, j.on, vw))
	}
	// A build side as large as the probe side.
	expectBag(t, "join, large build",
		run("SELECT a.v, b.g FROM t1 a, u b WHERE a.v = b.v"),
		refFilter(t1, all, func(r sqltypes.Row) sqltypes.Row { return pick(r, colV, colG) }))

	expectRows(t, "aggregate, no keys",
		run("SELECT COUNT(*), SUM(v), COUNT(DISTINCT k) FROM t1"),
		func() []sqltypes.Row {
			if n == 0 { // one group even over no rows; SUM of nothing is NULL
				return []sqltypes.Row{{sqltypes.NewInt(0), sqltypes.Null, sqltypes.NewInt(0)}}
			}
			return refGroup(t1)
		}())
	expectRows(t, "aggregate, one key",
		run("SELECT g, COUNT(*), SUM(v), COUNT(DISTINCT k) FROM t1 GROUP BY g"), refGroup(t1, colG))
	expectRows(t, "aggregate, many groups",
		run("SELECT k, s, COUNT(*), SUM(v), COUNT(DISTINCT k) FROM t1 GROUP BY k, s"), refGroup(t1, colK, colS))

	sorted := refFilter(t1, all, func(r sqltypes.Row) sqltypes.Row { return pick(r, colV, colG) })
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i][1].I() != sorted[j][1].I() {
			return sorted[i][1].I() > sorted[j][1].I()
		}
		return sorted[i][0].I() < sorted[j][0].I()
	})
	expectRows(t, "sort", run("SELECT v, g FROM t1 ORDER BY g DESC, v"), sorted)
	expectRows(t, "sort+limit", run("SELECT v, g FROM t1 ORDER BY g DESC, v LIMIT 10"), sorted[:min(10, n)])
	// Ties keep their input order, as in a stable sort.
	byG := refFilter(t1, all, func(r sqltypes.Row) sqltypes.Row { return pick(r, colV, colG) })
	sort.SliceStable(byG, func(i, j int) bool { return byG[i][1].I() > byG[j][1].I() })
	for _, limit := range []int{0, 1, 1030, n + 1} {
		expectRows(t, fmt.Sprint("sort+limit, ties, limit ", limit),
			run(fmt.Sprintf("SELECT v, g FROM t1 ORDER BY g DESC LIMIT %d", limit)), byG[:min(limit, n)])
	}

	seen := map[string]bool{}
	expectRows(t, "distinct", run("SELECT DISTINCT g, k FROM t1"),
		refFilter(t1, func(r sqltypes.Row) bool {
			key := rowKey(pick(r, colG, colK))
			dup := seen[key]
			seen[key] = true
			return !dup
		}, func(r sqltypes.Row) sqltypes.Row { return pick(r, colG, colK) }))

	unsorted := refFilter(t1, func(r sqltypes.Row) bool { return r[colG].I() != 0 },
		func(r sqltypes.Row) sqltypes.Row { return pick(r, colV) })
	expectRows(t, "limit without order",
		run("SELECT v FROM t1 WHERE g <> 0 LIMIT 1030"), unsorted[:min(1030, len(unsorted))])
}

// TestHashJoinNullKeysMatchNestedLoop: NULL = NULL is not true, whichever
// join algorithm evaluates it. The hash join used to pair NULL keys with
// each other, so the answer depended on the placement's join choice.
func TestHashJoinNullKeysMatchNestedLoop(t *testing.T) {
	e := New(Config{Name: "n", Vendor: VendorTest})
	rows := []sqltypes.Row{{sqltypes.Null}, {sqltypes.NewInt(1)}}
	for _, tbl := range []struct{ name, col string }{{"t1", "a"}, {"t2", "b"}} {
		schema := sqltypes.NewSchema(sqltypes.Column{Name: tbl.col, Type: sqltypes.TypeInt})
		if err := e.LoadTable(tbl.name, schema, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT a, b FROM t1, t2 WHERE a = b",     // hash join
		"SELECT a, b FROM t1, t2 WHERE a + 0 = b", // nested loop
	} {
		info, err := e.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.QueryAll(sql)
		if err != nil {
			t.Fatal(err)
		}
		expectRows(t, sql+"\n"+info.Text, res.Rows, []sqltypes.Row{{sqltypes.NewInt(1), sqltypes.NewInt(1)}})
	}
}

// TestRetainedRowsSurviveSlabReuse: every consumer that keeps rows past
// its producer's next call — hash build, probe rows a join read ahead,
// sort, a materialized foreign table, CREATE TABLE AS, Drain — must own
// them, and no batch goes back to the statement's spares while rows of it
// are still held. The producers here reuse their slabs (the staged remote,
// projections, joins, the spares), so a consumer that kept bare views, or
// a batch handed back too soon, would show later rows' values in earlier
// rows' places. The second half covers the hand-back paths of a morsel
// exchange on two workers, over huge, whose 40 morsels are many more than
// an exchange's window, so that its batches go round the spares while
// rows of them are kept: rows read ahead from a projection, serially and
// on workers; a stash run once its table is ready; a filter's batch that
// views a projection's; re-cut exchange output kept by a parent's build,
// by Drain and by CREATE TABLE AS; and an exchange over a materialized
// foreign table.
func TestRetainedRowsSurviveSlabReuse(t *testing.T) {
	remote := boundaryRows(2500, 0)
	// The join's probe side ra is read ahead whole while its build side rg
	// waits for ra's stream to end.
	readAhead := make(chan struct{})
	rels := map[string]*stagedRel{
		"r":  {rows: remote},
		"ra": {rows: remote, done: readAhead},
		"rg": {rows: remote, after: readAhead},
		"rh": {rows: remote, openDelay: 30 * time.Millisecond}, // a build side held back
		"rm": {rows: boundaryRows(40*morselRows, 0)},
	}
	e := New(Config{Name: "o", Vendor: VendorTest, Remote: &stagedRemote{rels: rels}})
	huge, dim, probe := boundaryRows(40*morselRows, 0), boundaryRows(131, 3), boundaryRows(500, 5)
	for name, rows := range map[string][]sqltypes.Row{"big": boundaryRows(6000, 0), "huge": huge, "d": dim, "p": probe} {
		if err := e.LoadTable(name, boundarySchema, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		"CREATE SERVER s FOREIGN DATA WRAPPER xdb OPTIONS (host 'h', port '1')",
		"CREATE FOREIGN TABLE f (k BIGINT, s TEXT, f DOUBLE, v BIGINT, g BIGINT) SERVER s OPTIONS (table_name 'r')",
		"CREATE FOREIGN TABLE fm (k BIGINT, s TEXT, f DOUBLE, v BIGINT, g BIGINT) SERVER s OPTIONS (table_name 'r', materialize 'true')",
		"CREATE TABLE c AS SELECT * FROM f",
		foreignDDL("fa", "ra", 100_000, false),
		foreignDDL("fg", "rg", 10, false),
		foreignDDL("fh", "rh", 10, false),
		foreignDDL("fmx", "rm", 40*morselRows, true),
		"CREATE VIEW pv AS SELECT v + 0 AS v, s FROM huge",
		"CREATE VIEW jv AS SELECT huge.v AS v, d.s AS s FROM huge, d WHERE huge.k = d.k",
	} {
		if err := e.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	run := func(sql string) []sqltypes.Row {
		t.Helper()
		res, err := e.QueryAll(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows
	}
	expectRows(t, "Drain", run("SELECT * FROM f"), remote)
	expectRows(t, "CREATE TABLE AS", run("SELECT * FROM c"), remote)
	expectRows(t, "materialized, first scan", run("SELECT * FROM fm"), remote)
	expectRows(t, "materialized, second scan", run("SELECT * FROM fm"), remote)

	byV := append([]sqltypes.Row(nil), remote...)
	sort.SliceStable(byV, func(i, j int) bool { return byV[i][colV].I() > byV[j][colV].I() })
	expectRows(t, "sort", run("SELECT * FROM f ORDER BY v DESC"), byV)

	// f is the smaller input, so it is the build side; the join reads its
	// strings back out of the rows the build kept. A selective filter in
	// between makes the build keep a compacted copy instead of the slab.
	for _, where := range []string{"", " AND f.g = 3"} {
		info, err := e.Explain("SELECT big.v, f.s FROM big, f WHERE big.v = f.v" + where)
		if err != nil || !strings.Contains(info.Text, "HashJoin") {
			t.Fatalf("plan: %v, %v", info, err)
		}
		expectRows(t, "hash build"+where,
			run("SELECT big.v, f.s FROM big, f WHERE big.v = f.v"+where),
			refFilter(remote, func(r sqltypes.Row) bool { return where == "" || r[colG].I() == 3 },
				func(r sqltypes.Row) sqltypes.Row { return pick(r, colV, colS) }))
	}
	expectRows(t, "probe rows read ahead",
		run("SELECT fa.v, fa.s FROM fa, fg WHERE fa.v = fg.v"),
		refFilter(remote, func(sqltypes.Row) bool { return true },
			func(r sqltypes.Row) sqltypes.Row { return pick(r, colV, colS) }))

	// remote is huge's first rows, so a join of the two on v is those.
	vs := func(r sqltypes.Row) sqltypes.Row { return pick(r, colV, colS) }
	onRemote := func(keep func(sqltypes.Row) bool) []sqltypes.Row {
		return refFilter(huge, func(r sqltypes.Row) bool { return r[colV].I() < int64(len(remote)) && keep(r) }, vs)
	}
	all := func(sqltypes.Row) bool { return true }
	hugeDim := refJoin(huge, dim, func(l, r sqltypes.Row) bool { return sqlEq(l[colK], r[colK]) },
		func(l, r sqltypes.Row) sqltypes.Row { return sqltypes.Row{l[colV], r[colS]} })
	for _, w := range []int{1, 2} {
		withWorkers(w, func() {
			at := fmt.Sprintf(", %d workers", w)
			// pv's projection carves its rows; they are read ahead while fh
			// is held back.
			expectBag(t, "projected rows read ahead"+at,
				run("SELECT pv.v, fh.s FROM pv, fh WHERE pv.v = fh.v"), onRemote(all))
			// The stored rows, filtered or not, wait in the stash and run
			// once fh's table is ready.
			expectBag(t, "stash run"+at,
				run("SELECT huge.v, fh.s FROM huge, fh WHERE huge.v = fh.v"), onRemote(all))
			expectBag(t, "filtered stash run"+at,
				run("SELECT huge.v, fh.s FROM huge, fh WHERE huge.v = fh.v AND huge.g < 5"),
				onRemote(func(r sqltypes.Row) bool { return r[colG].I() < 5 }))
			// The filter's batches view the projection's, which the
			// projection refills once a worker has taken them over.
			expectRows(t, "filtered projection"+at, run("SELECT v, s FROM pv WHERE v >= 10"),
				refFilter(huge, func(r sqltypes.Row) bool { return r[colV].I() >= 10 }, vs))
			// jv's output (planned smaller than p, so the build side) is the
			// probe spine's output re-cut in full batches; p's v are 0..499.
			expectBag(t, "re-cut output kept by a build"+at,
				run("SELECT p.v, jv.s FROM p, jv WHERE p.v = jv.v"),
				refFilter(hugeDim, func(r sqltypes.Row) bool { return r[0].I() < int64(len(probe)) }, func(r sqltypes.Row) sqltypes.Row { return r }))
			expectBag(t, "Drain of re-cut output"+at, run("SELECT huge.v, d.s FROM huge, d WHERE huge.k = d.k"), hugeDim)
			name := fmt.Sprint("cx", w)
			if err := e.Exec("CREATE TABLE " + name + " AS SELECT huge.v, d.s FROM huge, d WHERE huge.k = d.k"); err != nil {
				t.Fatal(err)
			}
			expectBag(t, "CREATE TABLE AS over re-cut output"+at, run("SELECT * FROM "+name), hugeDim)
			expectBag(t, "materialized rows on an exchange"+at,
				run("SELECT fmx.v, d.s FROM fmx, d WHERE fmx.k = d.k"), hugeDim)
		})
	}
}
