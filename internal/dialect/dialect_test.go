package dialect

import (
	"reflect"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

var testCols = []sqltypes.Column{
	{Name: "id", Type: sqltypes.TypeInt},
	{Name: "name", Type: sqltypes.TypeString},
	{Name: "when", Type: sqltypes.TypeDate},
	{Name: "score", Type: sqltypes.TypeFloat},
	{Name: "ok", Type: sqltypes.TypeBool},
}

func TestForVendor(t *testing.T) {
	cases := map[engine.Vendor]string{
		engine.VendorPostgres: "postgres",
		engine.VendorMariaDB:  "mariadb",
		engine.VendorHive:     "hive",
		engine.VendorTest:     "postgres", // test vendor speaks postgres
	}
	for v, want := range cases {
		d := ForVendor(v)
		if got := string(d.Vendor()); got != want {
			t.Errorf("ForVendor(%s).Vendor() = %s, want %s", v, got, want)
		}
	}
}

// TestForeignTableDDLRoundTrips checks the critical contract: every
// dialect's foreign-table DDL must parse back into the same logical
// declaration (that is what the engines execute) — the materialize flag
// and the declared row estimate included — and that declaration must
// survive the parser's own rendering (parse → render → parse).
func TestForeignTableDDLRoundTrips(t *testing.T) {
	type decl struct {
		mat  bool
		rows int64
	}
	for _, v := range []engine.Vendor{engine.VendorPostgres, engine.VendorMariaDB, engine.VendorHive} {
		for _, want := range []decl{{false, 0}, {true, 0}, {false, 6696}, {true, 25}} {
			mat := want.mat
			d := ForVendor(v)
			ddl := d.CreateForeignTable("ft1", testCols, "srv", "remote_rel", want.mat, want.rows)
			stmt, err := sqlparser.Parse(ddl)
			if err != nil {
				t.Errorf("%s (%+v): DDL does not parse: %v\n%s", v, want, err, ddl)
				continue
			}
			ft, ok := stmt.(*sqlparser.CreateForeignTable)
			if !ok {
				t.Errorf("%s: parsed to %T", v, stmt)
				continue
			}
			if ft.Name != "ft1" || ft.Server != "srv" || ft.RemoteTable != "remote_rel" {
				t.Errorf("%s: round trip = %+v", v, ft)
			}
			if ft.Materialize != mat {
				t.Errorf("%s: materialize = %v, want %v", v, ft.Materialize, mat)
			}
			if ft.Rows != want.rows {
				t.Errorf("%s: rows = %d, want %d\n%s", v, ft.Rows, want.rows, ddl)
			}
			again, err := sqlparser.Parse(ft.String())
			if err != nil {
				t.Errorf("%s (%+v): the parser's rendering does not parse: %v\n%s", v, want, err, ft)
			} else if !reflect.DeepEqual(again, stmt) {
				t.Errorf("%s (%+v): parse → render → parse changed the declaration:\n%+v\n%+v", v, want, stmt, again)
			}
			if len(ft.Columns) != len(testCols) {
				t.Errorf("%s: %d columns, want %d", v, len(ft.Columns), len(testCols))
				continue
			}
			for i, c := range ft.Columns {
				if !strings.EqualFold(c.Name, testCols[i].Name) || c.Type != testCols[i].Type {
					t.Errorf("%s: column %d = %v %v, want %v %v", v, i, c.Name, c.Type, testCols[i].Name, testCols[i].Type)
				}
			}
		}
	}
}

func TestServerDDLRoundTrips(t *testing.T) {
	for _, v := range []engine.Vendor{engine.VendorPostgres, engine.VendorMariaDB, engine.VendorHive} {
		d := ForVendor(v)
		ddl := d.CreateServer("srv1", "127.0.0.1:5001", "db3")
		stmt, err := sqlparser.Parse(ddl)
		if err != nil {
			t.Errorf("%s: server DDL does not parse: %v\n%s", v, err, ddl)
			continue
		}
		cs := stmt.(*sqlparser.CreateServer)
		if cs.Name != "srv1" {
			t.Errorf("%s: name = %q", v, cs.Name)
		}
		if cs.Options["host"] != "127.0.0.1" || cs.Options["port"] != "5001" {
			t.Errorf("%s: options = %v", v, cs.Options)
		}
		if cs.Options["node"] != "db3" {
			t.Errorf("%s: node option = %q", v, cs.Options["node"])
		}
	}
}

func TestViewAndCTASAndDrops(t *testing.T) {
	q, err := sqlparser.ParseSelect("SELECT a FROM t WHERE a > 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []engine.Vendor{engine.VendorPostgres, engine.VendorMariaDB, engine.VendorHive} {
		d := ForVendor(v)
		// Every vendor spells these five the same way.
		for ddl, want := range map[string]string{
			d.CreateView("v1", q):    "CREATE VIEW v1 AS SELECT a FROM t WHERE a > 1",
			d.CreateTableAs("t1", q): "CREATE TABLE t1 AS SELECT a FROM t WHERE a > 1",
			d.DropView("v1"):         "DROP VIEW IF EXISTS v1",
			d.DropTable("t1"):        "DROP TABLE IF EXISTS t1",
			d.DropServer("s1"):       "DROP SERVER IF EXISTS s1",
		} {
			if ddl != want {
				t.Errorf("%s: %q, want %q", v, ddl, want)
			}
			if _, err := sqlparser.Parse(ddl); err != nil {
				t.Errorf("%s: %q does not parse: %v", v, ddl, err)
			}
		}
	}
}

func TestQuoting(t *testing.T) {
	if got := (Postgres{}).QuoteIdent("x"); got != `"x"` {
		t.Errorf("pg quote = %q", got)
	}
	if got := (MariaDB{}).QuoteIdent("x"); got != "`x`" {
		t.Errorf("maria quote = %q", got)
	}
	if got := (Hive{}).QuoteIdent("x"); got != "`x`" {
		t.Errorf("hive quote = %q", got)
	}
}

func TestTypeNamesParseable(t *testing.T) {
	types := []sqltypes.Type{
		sqltypes.TypeInt, sqltypes.TypeFloat, sqltypes.TypeString,
		sqltypes.TypeDate, sqltypes.TypeBool,
	}
	for _, v := range []engine.Vendor{engine.VendorPostgres, engine.VendorMariaDB, engine.VendorHive} {
		d := ForVendor(v)
		for _, typ := range types {
			name := d.TypeName(typ)
			got, err := sqltypes.ParseType(strings.Fields(name)[0])
			if err != nil && name == "DOUBLE PRECISION" {
				got, err = sqltypes.ParseType("DOUBLE")
			}
			if err != nil {
				t.Errorf("%s: type name %q unparseable: %v", v, name, err)
				continue
			}
			if got != typ {
				t.Errorf("%s: TypeName(%v) = %q parses to %v", v, typ, name, got)
			}
		}
	}
}

func TestSplitAddr(t *testing.T) {
	h, p := splitAddr("localhost:123")
	if h != "localhost" || p != "123" {
		t.Errorf("splitAddr = %q, %q", h, p)
	}
	h, p = splitAddr("bare")
	if h != "bare" || p != "" {
		t.Errorf("splitAddr(bare) = %q, %q", h, p)
	}
}
