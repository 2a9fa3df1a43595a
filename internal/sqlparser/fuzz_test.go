package sqlparser_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"xdb/internal/dialect"
	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// goldenStatements reads the statements the rendered-SQL goldens pin:
// XDB's task statements (placeholders "<tN>" bound to plain names) and the
// Garlic/Presto fragments.
func goldenStatements(f *testing.F) []string {
	f.Helper()
	placeholder := regexp.MustCompile(`<(t\d+)>`)
	var out []string
	for _, g := range []struct{ path, prefix string }{
		{"../planner/testdata/render.golden", "    "},
		{"../mediator/testdata/fragments.golden", ": "},
	} {
		data, err := os.ReadFile(g.path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if _, stmt, ok := strings.Cut(line, g.prefix); ok && strings.HasPrefix(stmt, "SELECT ") {
				out = append(out, placeholder.ReplaceAllString(stmt, "$1"))
			}
		}
	}
	return out
}

// dialectStatements is every DDL statement each vendor's dialect writes.
func dialectStatements(f *testing.F) []string {
	f.Helper()
	q, err := sqlparser.ParseSelect("SELECT a.x AS a_x FROM a WHERE a.x > 1")
	if err != nil {
		f.Fatal(err)
	}
	cols := []sqltypes.Column{
		{Name: "i", Type: sqltypes.TypeInt}, {Name: "f", Type: sqltypes.TypeFloat},
		{Name: "s", Type: sqltypes.TypeString}, {Name: "d", Type: sqltypes.TypeDate},
		{Name: "b", Type: sqltypes.TypeBool},
	}
	var out []string
	for _, v := range []engine.Vendor{engine.VendorPostgres, engine.VendorMariaDB, engine.VendorHive} {
		d := dialect.ForVendor(v)
		out = append(out,
			d.CreateServer("srv_db2", "127.0.0.1:5432", "db2"),
			d.CreateForeignTable("ft1", cols, "srv_db2", "xdb1_t1", false, 0),
			d.CreateForeignTable("ft2", cols, "srv_db2", "xdb1_t2", true, 42),
			d.CreateView("v1", q), d.CreateTableAs("t1", q),
			d.DropView("v1"), d.DropTable("t1"), d.DropServer("srv_db2"))
	}
	return out
}

// FuzzParse: any input either fails to parse, or parses to a statement
// whose rendering parses again and renders to the same text. The parser
// never panics.
func FuzzParse(f *testing.F) {
	for _, s := range goldenStatements(f) {
		f.Add(s)
	}
	for _, s := range dialectStatements(f) {
		f.Add(s)
	}
	for _, qn := range tpch.QueryNames {
		f.Add(tpch.Queries[qn])
	}
	// Shapes earlier renderings did not parse back: an empty quoted
	// identifier, keywords as names, floats in exponent form, negative
	// zero, SUBSTRING, string aliases and option keys, an empty server
	// option list.
	for _, s := range []string{
		`SELECT ""`,
		`SELECT t.date, "date", "Year" AS "select" FROM "table" t WHERE "date" > DATE '1995-01-01'`,
		"SELECT 1e25, 1.5E-7, -0.0, 1234567.5, 12e3 FROM t",
		"SELECT SUBSTRING(c FROM 1 FOR 2), SUBSTRING(c FROM 3) FROM t",
		"SELECT a AS 'age group' FROM t",
		"CREATE SERVER s FOREIGN DATA WRAPPER w OPTIONS ('a b' 'c', k 'v')",
		"CREATE SERVER s FOREIGN DATA WRAPPER w",
		`CREATE TABLE "select" (date DATE, "from" BIGINT)`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sqlparser.Parse(src)
		if err != nil {
			return
		}
		text := stmt.String()
		again, err := sqlparser.Parse(text)
		if err != nil {
			t.Fatalf("%q renders to %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("%q renders to %q, which renders to %q", src, text, got)
		}
	})
}
