package engine

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"xdb/internal/sqltypes"
)

// The value semantics of the operators that group, order, join and count
// values, pinned over the edge cases of each type: NULL, NaN, the two
// zeros, the int64 extremes, int 1 beside float 1.0, the infinities, dates
// before 1970 and strings. Every operator follows sqltypes' one value
// identity (Compare, Equal, Hash: PostgreSQL's float8 rules); the
// expected results must not move with a layout or a kernel, only with a
// deliberate change of that identity.

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// edgeValues is every edge case once.
func edgeValues() []sqltypes.Value {
	return []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewFloat(math.NaN()),
		sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewFloat(0),
		sqltypes.NewInt(0),
		sqltypes.NewInt(-1),
		sqltypes.NewInt(math.MinInt64),
		sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewInt(1),
		sqltypes.NewFloat(1),
		sqltypes.NewFloat(math.Inf(1)),
		sqltypes.NewFloat(math.Inf(-1)),
		sqltypes.NewDate(-1),
		sqltypes.DateFromYMD(1931, 5, 1),
		sqltypes.NewBool(true),
		sqltypes.NewBool(false),
		sqltypes.NewString(""),
		sqltypes.NewString("1"),
		sqltypes.NewString("a"),
	}
}

// numericEdges is the NULL and the ints and floats of edgeValues: the
// values ORDER BY can sort together.
func numericEdges() []sqltypes.Value {
	var out []sqltypes.Value
	for _, v := range edgeValues() {
		if v.T == sqltypes.TypeNull || v.T == sqltypes.TypeInt || v.T == sqltypes.TypeFloat {
			out = append(out, v)
		}
	}
	return out
}

// intEdges is the ints and dates of edgeValues, and a NULL: the keys of an
// int-keyed join table.
func intEdges() []sqltypes.Value {
	out := []sqltypes.Value{sqltypes.Null}
	for _, v := range edgeValues() {
		if v.T == sqltypes.TypeInt || v.T == sqltypes.TypeDate {
			out = append(out, v)
		}
	}
	return out
}

// twice is a table (id, v) holding each value twice, ids in order.
func twice(vals []sqltypes.Value) []sqltypes.Row {
	var rows []sqltypes.Row
	for _, v := range append(append([]sqltypes.Value(nil), vals...), vals...) {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(len(rows))), v})
	}
	return rows
}

// typed renders a value with its type, so that int 1 and float 1.0 differ.
func typed(v sqltypes.Value) string { return v.T.String() + ":" + v.String() }

func renderRows(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = typed(v)
		}
		out[i] = strings.Join(cells, " ")
	}
	return out
}

// unordered renders rows as a sorted multiset.
func unordered(rows []sqltypes.Row) []string {
	out := renderRows(rows)
	sort.Strings(out)
	return out
}

// semanticsTables are the tables (id, v) of the pin, each value twice.
func semanticsTables() map[string][]sqltypes.Value {
	return map[string][]sqltypes.Value{"mixed": edgeValues(), "num": numericEdges(), "ints": intEdges()}
}

func semanticsEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Name: "db1", Vendor: VendorTest})
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "v", Type: sqltypes.TypeFloat},
	)
	for name, vals := range semanticsTables() {
		if err := e.LoadTable(name, schema, twice(vals)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestValueSemantics renders every section of the pin into
// testdata/semantics.golden; `go test ./internal/engine/ -run
// TestValueSemantics -update` rewrites it, only when a change of
// semantics is meant.
func TestValueSemantics(t *testing.T) {
	var b strings.Builder
	semanticsInvariants(t)
	semanticsSQL(t, &b)
	semanticsJoinTables(t, &b)
	semanticsStats(&b)
	semanticsCompare(t, &b)
	path := filepath.Join("testdata", "semantics.golden")
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run the test with -update)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		g, w := "<end of output>", "<end of file>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// section writes a titled block of lines.
func section(b *strings.Builder, title string, lines []string) {
	fmt.Fprintf(b, "== %s\n", title)
	for _, l := range lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
}

// semanticsInvariants holds the operators that ask "same value?" to one
// answer, per table: DISTINCT's non-NULL rows, COUNT(DISTINCT) and
// ComputeStats' distinct count are one number, each GROUP BY group holds
// one distinct value, and an equality filter (a column against an int or
// a float literal, or an expression against one) returns only values
// Equal to its literal.
func semanticsInvariants(t *testing.T) {
	e := semanticsEngine(t)
	query := func(sql string) []sqltypes.Row {
		t.Helper()
		res, err := e.QueryAll(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows
	}
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "v", Type: sqltypes.TypeFloat},
	)
	for name, vals := range semanticsTables() {
		var distinct int64
		for _, r := range query("SELECT DISTINCT v FROM " + name) {
			if !r[0].IsNull() {
				distinct++
			}
		}
		count := query("SELECT COUNT(DISTINCT v) FROM " + name)[0][0].I()
		stats := ComputeStats(schema, twice(vals)).Columns[1].Distinct
		if distinct != count || count != stats {
			t.Errorf("%s: DISTINCT has %d non-NULL values, COUNT(DISTINCT) %d, ComputeStats %d", name, distinct, count, stats)
		}
		for _, r := range query("SELECT v, COUNT(DISTINCT v) FROM " + name + " GROUP BY v") {
			if !r[0].IsNull() && r[1].I() != 1 {
				t.Errorf("%s: the group of %s counts %d distinct values", name, typed(r[0]), r[1].I())
			}
		}
	}
	for _, lit := range []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(1), sqltypes.NewInt(5), sqltypes.NewFloat(5)} {
		for _, pred := range []string{"v = ", "v + 0 = "} {
			sql := "SELECT v FROM num WHERE " + pred + lit.SQL()
			if lit.T == sqltypes.TypeFloat {
				sql += ".0"
			}
			for _, r := range query(sql) {
				if !sqltypes.Equal(r[0], lit) {
					t.Errorf("%s returned %s", sql, typed(r[0]))
				}
			}
		}
	}
}

// semanticsSQL runs DISTINCT, COUNT(DISTINCT), GROUP BY, ORDER BY (sorted
// and top-n) and joins through the executor; a result without ORDER BY is
// compared as a multiset.
func semanticsSQL(t *testing.T, b *strings.Builder) {
	e := semanticsEngine(t)
	for _, q := range []string{
		"SELECT DISTINCT v FROM mixed",
		"SELECT COUNT(DISTINCT v), COUNT(v), COUNT(*) FROM mixed",
		"SELECT v, COUNT(*), COUNT(DISTINCT v) FROM mixed GROUP BY v",
		"SELECT v, MIN(id), MAX(v) FROM num GROUP BY v",
		"SELECT id, v FROM num ORDER BY v, id",
		"SELECT id, v FROM num ORDER BY v DESC, id DESC",
		"SELECT id, v FROM num ORDER BY v, id LIMIT 7",
		"SELECT id, v FROM ints ORDER BY v DESC, id",
		"SELECT a.id, b.id FROM mixed a JOIN mixed b ON a.v = b.v",
		"SELECT a.id, b.id FROM num a JOIN ints b ON a.v = b.v",
		"SELECT a.id, b.id FROM ints a JOIN ints b ON a.v = b.v",
		"SELECT MIN(v), MAX(v), SUM(v) FROM ints WHERE v > -2",
		"SELECT id, v FROM num WHERE v = 1",
	} {
		res, err := e.QueryAll(q)
		switch {
		case err != nil:
			section(b, q, []string{"error: " + err.Error()})
		case strings.Contains(q, "ORDER BY"):
			section(b, q, renderRows(res.Rows))
		default:
			section(b, q, unordered(res.Rows))
		}
	}
}

// semanticsJoinTables probes both kinds of join table directly, each side
// fixed: an int-keyed build side of ints and dates probed by every edge
// value, and a general one of every edge value. A general table over the
// int-keyed one's rows and a string that joins nothing must pair the same
// rows as the int-keyed one.
func semanticsJoinTables(t *testing.T, b *strings.Builder) {
	join := func(probe, build []sqltypes.Row) ([]string, bool) {
		out := joinOutput{probeCols: []int{0, 1}, buildCols: []int{0, 1}}
		j, err := openJoin(opened(&scanIter{rows: probe}),
			&joinSpec{build: opened(&scanIter{rows: build}), probeKeys: []int{1}, buildKeys: []int{1}, out: out, est: 1}, new(statement))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		return unordered(rows), j.table.intKeyed
	}
	intKeyed, ok := join(twice(edgeValues()), twice(intEdges()))
	if !ok {
		t.Fatal("the table of ints and dates is not int-keyed")
	}
	section(b, "int-keyed join table", intKeyed)
	general, ok := join(twice(edgeValues()), twice(edgeValues()))
	if ok {
		t.Fatal("the table of every edge value is int-keyed")
	}
	section(b, "general join table", general)
	build := append(twice(intEdges()), sqltypes.Row{sqltypes.NewInt(99), sqltypes.NewString("no match")})
	if same, ok := join(twice(edgeValues()), build); ok || !slices.Equal(same, intKeyed) {
		t.Errorf("a general table over the int-keyed table's rows pairs\n%s\nnot\n%s", strings.Join(same, "\n"), strings.Join(intKeyed, "\n"))
	}
}

// semanticsStats pins ComputeStats' distinct count and extremes.
func semanticsStats(b *strings.Builder) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "v", Type: sqltypes.TypeFloat},
	)
	var lines []string
	for _, name := range []string{"mixed", "num", "ints"} {
		st := ComputeStats(schema, twice(semanticsTables()[name]))
		c := st.Columns[1]
		lines = append(lines, fmt.Sprintf("%s: rows=%d distinct=%d min=%s max=%s nulls=%.4f", name, st.RowCount, c.Distinct, typed(c.Min), typed(c.Max), c.NullFrac))
	}
	section(b, "ComputeStats", lines)
}

// semanticsCompare pins Compare, Equal and Hash over every pair of edge
// values: each cell is Compare's sign ('<', '=', '>') or 'x' for a type
// error, then '#' where the two hash alike.
func semanticsCompare(t *testing.T, b *strings.Builder) {
	vals := edgeValues()
	var lines []string
	for _, a := range vals {
		var row strings.Builder
		for _, v := range vals {
			c, err := sqltypes.Compare(a, v)
			switch {
			case err != nil:
				row.WriteByte('x')
			case c < 0:
				row.WriteByte('<')
			case c > 0:
				row.WriteByte('>')
			default:
				row.WriteByte('=')
			}
			if (c == 0 && err == nil) != sqltypes.Equal(a, v) {
				t.Errorf("Equal(%s, %s) disagrees with Compare", typed(a), typed(v))
			}
			if sqltypes.Hash(a) == sqltypes.Hash(v) {
				row.WriteByte('#')
			} else {
				row.WriteByte(' ')
			}
		}
		lines = append(lines, fmt.Sprintf("%-32s %s", typed(a), strings.TrimRight(row.String(), " ")))
	}
	section(b, "Compare and Hash", lines)
}
