package engine

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"xdb/internal/sqltypes"
)

// The value semantics of the operators that group, order, join and count
// values, pinned over the edge cases of each type: NULL, NaN, the two
// zeros, the int64 extremes, int 1 beside float 1.0, the infinities, dates
// before 1970 and strings. The expected results were recorded from the
// executor as it stood before Value's layout changed, and must not move
// with a layout: only a deliberate change of semantics edits them.

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
// value, and a general one of every edge value.
func semanticsJoinTables(t *testing.T, b *strings.Builder) {
	for _, c := range []struct {
		name         string
		probe, build []sqltypes.Value
	}{
		{"int-keyed", edgeValues(), intEdges()},
		{"general", edgeValues(), edgeValues()},
	} {
		out := joinOutput{probeCols: []int{0, 1}, buildCols: []int{0, 1}}
		j, err := openJoin(opened(&rowsIter{rows: twice(c.probe)}),
			&joinSpec{build: opened(&rowsIter{rows: twice(c.build)}), probeKeys: []int{1}, buildKeys: []int{1}, out: out, est: 1}, new(statement))
		if err != nil {
			t.Fatal(err)
		}
		if j.table.intKeyed != (c.name == "int-keyed") {
			t.Fatalf("%s: intKeyed = %v", c.name, j.table.intKeyed)
		}
		rows, err := Drain(j)
		if err != nil {
			t.Fatal(err)
		}
		section(b, c.name+" join table", unordered(rows))
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
