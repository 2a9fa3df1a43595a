package sqlparser

import (
	"strings"
	"testing"

	"xdb/internal/sqltypes"
)

func mustSelect(t *testing.T, sql string) *Select {
	t.Helper()
	s, err := ParseSelect(sql)
	if err != nil {
		t.Fatalf("ParseSelect(%q): %v", sql, err)
	}
	return s
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustSelect(t, "SELECT a, b FROM t WHERE a > 5")
	if len(s.Projections) != 2 {
		t.Fatalf("projections = %d", len(s.Projections))
	}
	if s.From[0].Name != "t" {
		t.Fatalf("from = %+v", s.From)
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != OpGt {
		t.Fatalf("where = %#v", s.Where)
	}
}

func TestParseStarAndQualifiedStar(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM t")
	if !s.Projections[0].Star || s.Projections[0].StarTable != "" {
		t.Fatalf("star = %+v", s.Projections[0])
	}
	s = mustSelect(t, "SELECT c.* , o.id FROM c, o")
	if !s.Projections[0].Star || s.Projections[0].StarTable != "c" {
		t.Fatalf("qualified star = %+v", s.Projections[0])
	}
}

func TestParseAliases(t *testing.T) {
	s := mustSelect(t, "SELECT a AS x, b y FROM t1 u, t2 AS v")
	if s.Projections[0].Alias != "x" || s.Projections[1].Alias != "y" {
		t.Fatalf("aliases = %+v", s.Projections)
	}
	if s.From[0].Alias != "u" || s.From[1].Alias != "v" {
		t.Fatalf("table aliases = %+v", s.From)
	}
	if s.From[0].EffectiveAlias() != "u" {
		t.Fatal("EffectiveAlias with alias")
	}
	if (TableRef{Name: "t"}).EffectiveAlias() != "t" {
		t.Fatal("EffectiveAlias without alias")
	}
}

func TestParseDBQualifiedTable(t *testing.T) {
	s := mustSelect(t, "SELECT c.id FROM CDB.Citizen c")
	if s.From[0].DB != "CDB" || s.From[0].Name != "Citizen" || s.From[0].Alias != "c" {
		t.Fatalf("from = %+v", s.From[0])
	}
}

func TestParseJoinSyntaxNormalization(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM a JOIN b ON a.x = b.x INNER JOIN c ON b.y = c.y WHERE a.z > 1")
	if len(s.From) != 3 {
		t.Fatalf("from = %+v", s.From)
	}
	conj := SplitConjuncts(s.Where)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d: %v", len(conj), s.Where)
	}
}

func TestParseGroupHavingOrderLimit(t *testing.T) {
	s := mustSelect(t, `SELECT a, SUM(b) AS total FROM t GROUP BY a HAVING SUM(b) > 10 ORDER BY total DESC, a LIMIT 20`)
	if len(s.GroupBy) != 1 || s.Having == nil {
		t.Fatalf("group/having = %v / %v", s.GroupBy, s.Having)
	}
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order = %+v", s.OrderBy)
	}
	if s.Limit != 20 {
		t.Fatalf("limit = %d", s.Limit)
	}
}

func TestParseExpressions(t *testing.T) {
	cases := []string{
		"a + b * c - d / e",
		"a BETWEEN 1 AND 10",
		"a NOT BETWEEN 1 AND 10",
		"x IN ('a', 'b', 'c')",
		"x NOT IN (1, 2)",
		"name LIKE '%green%'",
		"name NOT LIKE 'x%'",
		"a IS NULL",
		"a IS NOT NULL",
		"NOT (a = 1)",
		"(a = 1 OR b = 2) AND c = 3",
		"CASE WHEN a > 1 THEN 'x' ELSE 'y' END",
		"EXTRACT(YEAR FROM o_orderdate)",
		"DATE '1995-01-01' + INTERVAL '1' YEAR",
		"SUBSTRING(c_phone FROM 1 FOR 2)",
		"COUNT(*)",
		"COUNT(DISTINCT x)",
		"AVG(u_ml)",
		"1 - 0.5",
		"-x + 3",
		"a || b",
		"a % 2 = 0",
	}
	for _, c := range cases {
		if _, err := ParseExpr(c); err != nil {
			t.Errorf("ParseExpr(%q): %v", c, err)
		}
	}
}

func TestExprRenderRoundTrip(t *testing.T) {
	// Rendering and re-parsing must produce the same rendering (fixpoint).
	cases := []string{
		"a + b * c",
		"(a = 1 OR b = 2) AND c = 3",
		"x BETWEEN 1 AND 10",
		"CASE WHEN a > 1 THEN 'x' ELSE 'y' END",
		"EXTRACT(YEAR FROM d)",
		"l_extendedprice * (1 - l_discount)",
		"c.id = vn.c_id AND c.age > 20",
		"NOT (a LIKE 'b%')",
	}
	for _, c := range cases {
		e1, err := ParseExpr(c)
		if err != nil {
			t.Fatalf("parse %q: %v", c, err)
		}
		r1 := e1.String()
		e2, err := ParseExpr(r1)
		if err != nil {
			t.Fatalf("re-parse %q (rendered from %q): %v", r1, c, err)
		}
		if r2 := e2.String(); r2 != r1 {
			t.Errorf("render not a fixpoint: %q -> %q -> %q", c, r1, r2)
		}
	}
}

func TestSelectRenderRoundTrip(t *testing.T) {
	cases := []string{
		"SELECT a, b AS x FROM t WHERE a > 5 GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 3",
		"SELECT * FROM CDB.Citizen c, VDB.Vaccines v WHERE c.id = v.id",
		"SELECT v.type, AVG(m.u_ml) FROM v, m WHERE v.id = m.id GROUP BY v.type",
	}
	for _, c := range cases {
		s1 := mustSelect(t, c)
		r1 := s1.String()
		s2 := mustSelect(t, r1)
		if r2 := s2.String(); r2 != r1 {
			t.Errorf("select render not a fixpoint:\n%q\n%q", r1, r2)
		}
	}
}

func TestParsePaperExampleQuery(t *testing.T) {
	// The motivating query from Fig. 3 of the paper (with the ellipsis
	// expanded to two CASE arms).
	q := `SELECT v.type, AVG(m.u_ml),
	  case when c.age between 20 and 30 then '20-30'
	       when c.age between 30 and 40 then '30-40'
	       else '40+' end as 'age_group'
	FROM CDB.Citizen c, VDB.Vaccines v, VDB.Vaccination vn, HDB.Measurements m
	WHERE c.id = vn.c_id AND c.id = m.c_id AND v.id = vn.v_id AND c.age > 20
	GROUP BY age_group, v.type`
	s := mustSelect(t, q)
	if len(s.From) != 4 {
		t.Fatalf("from = %+v", s.From)
	}
	if len(SplitConjuncts(s.Where)) != 4 {
		t.Fatalf("conjuncts = %v", s.Where)
	}
	if s.Projections[2].Alias != "age_group" {
		t.Fatalf("alias = %q", s.Projections[2].Alias)
	}
	if len(s.GroupBy) != 2 {
		t.Fatalf("group by = %v", s.GroupBy)
	}
}

func TestParseCreateView(t *testing.T) {
	stmt, err := Parse("CREATE VIEW vvn AS SELECT v.type, vn.c_id FROM Vaccines v, Vaccination vn WHERE v.id = vn.v_id")
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := stmt.(*CreateView)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if cv.Name != "vvn" || len(cv.Query.From) != 2 {
		t.Fatalf("%+v", cv)
	}
	stmt, err = Parse("CREATE OR REPLACE VIEW v AS SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*CreateView).OrReplace {
		t.Error("OrReplace not set")
	}
}

func TestParseForeignTableDialects(t *testing.T) {
	// Postgres SQL/MED spelling.
	stmt, err := Parse("CREATE FOREIGN TABLE vvn (type VARCHAR, c_id BIGINT) SERVER vdb OPTIONS (table_name 'VVN')")
	if err != nil {
		t.Fatal(err)
	}
	ft := stmt.(*CreateForeignTable)
	if ft.Server != "vdb" || ft.RemoteTable != "VVN" || len(ft.Columns) != 2 {
		t.Fatalf("%+v", ft)
	}

	// MariaDB federated spelling.
	stmt, err = Parse("CREATE TABLE vvn (type VARCHAR(10), c_id BIGINT) ENGINE=FEDERATED CONNECTION='vdb/VVN'")
	if err != nil {
		t.Fatal(err)
	}
	ft = stmt.(*CreateForeignTable)
	if ft.Server != "vdb" || ft.RemoteTable != "VVN" {
		t.Fatalf("%+v", ft)
	}

	// Hive external-table spelling.
	stmt, err = Parse("CREATE EXTERNAL TABLE vvn (type STRING, c_id BIGINT) STORED BY 'xdb' TBLPROPERTIES ('server' 'vdb', 'table' 'VVN')")
	if err != nil {
		t.Fatal(err)
	}
	ft = stmt.(*CreateForeignTable)
	if ft.Server != "vdb" || ft.RemoteTable != "VVN" {
		t.Fatalf("%+v", ft)
	}

	// The declared row estimate, in each spelling; a malformed one is an
	// error, not a silent default.
	for _, ddl := range []string{
		"CREATE FOREIGN TABLE vvn (c_id BIGINT) SERVER vdb OPTIONS (table_name 'VVN', materialize 'true', rows '6696')",
		"CREATE TABLE vvn (c_id BIGINT) ENGINE=FEDERATED CONNECTION='vdb/VVN?materialize=1&rows=6696'",
		"CREATE EXTERNAL TABLE vvn (c_id BIGINT) STORED BY 'xdb' TBLPROPERTIES ('server' 'vdb', 'table' 'VVN', 'materialize' 'true', 'rows' '6696')",
	} {
		stmt, err := Parse(ddl)
		if err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		ft := stmt.(*CreateForeignTable)
		if ft.Rows != 6696 || !ft.Materialize || ft.RemoteTable != "VVN" {
			t.Errorf("%s\nparsed to %+v", ddl, ft)
		}
		if _, err := Parse(strings.Replace(ddl, "6696", "many", 1)); err == nil {
			t.Errorf("rows 'many' parsed: %s", ddl)
		}
	}
}

func TestParseCreateServer(t *testing.T) {
	stmt, err := Parse("CREATE SERVER vdb FOREIGN DATA WRAPPER xdb OPTIONS (host '127.0.0.1', port '5001')")
	if err != nil {
		t.Fatal(err)
	}
	cs := stmt.(*CreateServer)
	if cs.Name != "vdb" || cs.Wrapper != "xdb" || cs.Options["host"] != "127.0.0.1" || cs.Options["port"] != "5001" {
		t.Fatalf("%+v", cs)
	}
}

func TestParseCreateTableAndCTAS(t *testing.T) {
	stmt, err := Parse("CREATE TABLE t (a BIGINT, b VARCHAR(10), c DATE)")
	if err != nil {
		t.Fatal(err)
	}
	ct := stmt.(*CreateTable)
	if len(ct.Columns) != 3 || ct.Columns[2].Type != sqltypes.TypeDate {
		t.Fatalf("%+v", ct)
	}
	stmt, err = Parse("CREATE TABLE t2 AS SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*CreateTable).As == nil {
		t.Error("CTAS query missing")
	}
}

func TestParseDrop(t *testing.T) {
	stmt, err := Parse("DROP TABLE IF EXISTS t")
	if err != nil {
		t.Fatal(err)
	}
	d := stmt.(*Drop)
	if d.Kind != "TABLE" || !d.IfExists || d.Name != "t" {
		t.Fatalf("%+v", d)
	}
	for _, q := range []string{"DROP VIEW v", "DROP SERVER s", "DROP FOREIGN TABLE ft"} {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a', DATE '2020-01-01'), (2, 'b', NULL)")
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if ins.Table != "t" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("%+v", ins)
	}
	stmt, err = Parse("INSERT INTO t SELECT * FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*Insert).Query == nil {
		t.Error("insert-select query missing")
	}
}

func TestParseExplain(t *testing.T) {
	stmt, err := Parse("EXPLAIN SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.(*Explain).Stmt.(*Select); !ok {
		t.Fatalf("%+v", stmt)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t GROUP a",
		"CREATE VIEW v SELECT 1",
		"CREATE TABLE t (a)",
		"CREATE TABLE t (a BLOB)",
		"INSERT INTO t VALUES 1",
		"SELECT 'unterminated FROM t",
		"SELECT a FROM t; SELECT b FROM t",
		"SELECT a b c FROM t",
		"CASE WHEN",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestParseCommentsAndWhitespace(t *testing.T) {
	s := mustSelect(t, "SELECT a -- trailing comment\nFROM t -- another\nWHERE a > 1")
	if len(s.From) != 1 || s.Where == nil {
		t.Fatalf("%+v", s)
	}
}

func TestParseQuotedIdentifiers(t *testing.T) {
	s := mustSelect(t, "SELECT \"select\", `from` FROM `t`")
	if s.Projections[0].Expr.(*ColumnRef).Name != "select" {
		t.Fatalf("%+v", s.Projections[0])
	}
	if s.Projections[1].Expr.(*ColumnRef).Name != "from" {
		t.Fatalf("%+v", s.Projections[1])
	}
}

func TestSplitJoinConjuncts(t *testing.T) {
	e, _ := ParseExpr("a = 1 AND b = 2 AND c = 3")
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	back := JoinConjuncts(parts)
	if len(SplitConjuncts(back)) != 3 {
		t.Fatal("JoinConjuncts lost conjuncts")
	}
	if JoinConjuncts(nil) != nil {
		t.Fatal("JoinConjuncts(nil) != nil")
	}
	if got := SplitConjuncts(nil); got != nil {
		t.Fatal("SplitConjuncts(nil) != nil")
	}
}

func TestColumnsInAndWalk(t *testing.T) {
	e, _ := ParseExpr("a.x + b.y * f(c.z, CASE WHEN d.w > 1 THEN e.v ELSE 2 END)")
	cols := ColumnsIn(e)
	var names []string
	for _, c := range cols {
		names = append(names, c.String())
	}
	want := "a.x b.y c.z d.w e.v"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("ColumnsIn = %q, want %q", got, want)
	}
}

func TestHasAggregate(t *testing.T) {
	e, _ := ParseExpr("SUM(a) + 1")
	if !HasAggregate(e) {
		t.Error("SUM not detected")
	}
	e, _ = ParseExpr("f(a) + 1")
	if HasAggregate(e) {
		t.Error("non-aggregate detected as aggregate")
	}
}

func TestCloneExprIndependence(t *testing.T) {
	e, _ := ParseExpr("a = 1 AND b BETWEEN 2 AND 3")
	c := CloneExpr(e)
	if c.String() != e.String() {
		t.Fatalf("clone renders differently: %q vs %q", c.String(), e.String())
	}
	// Mutate the clone; the original must not change.
	c.(*BinaryExpr).L.(*BinaryExpr).L.(*ColumnRef).Name = "zzz"
	if strings.Contains(e.String(), "zzz") {
		t.Error("CloneExpr shares nodes with the original")
	}
}

func TestNegativeNumberFolding(t *testing.T) {
	e, err := ParseExpr("-5")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := e.(*Literal)
	if !ok || lit.Val.Int() != -5 {
		t.Fatalf("got %#v", e)
	}
}

func TestLeftJoinAcceptedAsInner(t *testing.T) {
	s := mustSelect(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.x")
	if len(s.From) != 2 || s.Where == nil {
		t.Fatalf("%+v", s)
	}
}
