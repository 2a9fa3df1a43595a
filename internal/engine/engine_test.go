package engine

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"xdb/internal/sqltypes"
)

// newTestEngine builds an engine with the motivating scenario's tables
// from Sec. II-A (Table I): Citizen, Vaccines, Vaccination, Measurements —
// all on one node for local-execution tests.
func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Config{Name: "db1", Vendor: VendorTest})

	citizens := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "name", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "age", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "address", Type: sqltypes.TypeString},
	)
	var crows []sqltypes.Row
	for i := 0; i < 100; i++ {
		crows = append(crows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("citizen-%d", i)),
			sqltypes.NewInt(int64(18 + i%60)),
			sqltypes.NewString("credo"),
		})
	}
	if err := e.LoadTable("Citizen", citizens, crows); err != nil {
		t.Fatal(err)
	}

	vaccines := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "name", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "type", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "manufacturer", Type: sqltypes.TypeString},
	)
	vrows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("vaxA"), sqltypes.NewString("mRNA"), sqltypes.NewString("acme")},
		{sqltypes.NewInt(2), sqltypes.NewString("vaxB"), sqltypes.NewString("vector"), sqltypes.NewString("bmco")},
	}
	if err := e.LoadTable("Vaccines", vaccines, vrows); err != nil {
		t.Fatal(err)
	}

	vaccination := sqltypes.NewSchema(
		sqltypes.Column{Name: "c_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "v_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "date", Type: sqltypes.TypeDate},
	)
	var vnrows []sqltypes.Row
	for i := 0; i < 100; i++ {
		vnrows = append(vnrows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewInt(int64(1 + i%2)),
			sqltypes.DateFromYMD(2021, 3, 1+i%28),
		})
	}
	if err := e.LoadTable("Vaccination", vaccination, vnrows); err != nil {
		t.Fatal(err)
	}

	measurements := sqltypes.NewSchema(
		sqltypes.Column{Name: "id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "c_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "date", Type: sqltypes.TypeDate},
		sqltypes.Column{Name: "u_ml", Type: sqltypes.TypeFloat},
	)
	var mrows []sqltypes.Row
	for i := 0; i < 100; i++ {
		mrows = append(mrows, sqltypes.Row{
			sqltypes.NewInt(int64(1000 + i)),
			sqltypes.NewInt(int64(i)),
			sqltypes.DateFromYMD(2021, 6, 1+i%28),
			sqltypes.NewFloat(float64(50 + i%100)),
		})
	}
	if err := e.LoadTable("Measurements", measurements, mrows); err != nil {
		t.Fatal(err)
	}
	return e
}

func queryAll(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.QueryAll(sql)
	if err != nil {
		t.Fatalf("QueryAll(%q): %v", sql, err)
	}
	return r
}

func TestSimpleScan(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT * FROM Citizen")
	if len(r.Rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(r.Rows))
	}
	if r.Schema.Len() != 4 {
		t.Fatalf("columns = %d, want 4", r.Schema.Len())
	}
}

func TestFilterPushdown(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT id FROM Citizen WHERE age > 70")
	for _, row := range r.Rows {
		id := row[0].Int()
		if age := 18 + id%60; age <= 70 {
			t.Fatalf("row id=%d has age %d <= 70", id, age)
		}
	}
	if len(r.Rows) == 0 {
		t.Fatal("filter returned nothing")
	}
}

func TestProjectionExpressions(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT id * 2 + 1 AS x, UPPER(name) AS n FROM Citizen WHERE id = 3")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if got := r.Rows[0][0].Int(); got != 7 {
		t.Errorf("x = %d, want 7", got)
	}
	if got := r.Rows[0][1].String(); got != "CITIZEN-3" {
		t.Errorf("n = %q", got)
	}
	if r.Schema.Columns[0].Name != "x" || r.Schema.Columns[1].Name != "n" {
		t.Errorf("schema = %v", r.Schema)
	}
}

func TestTwoWayHashJoin(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, `SELECT c.name, vn.date FROM Citizen c, Vaccination vn WHERE c.id = vn.c_id AND c.age > 50`)
	want := 0
	for i := 0; i < 100; i++ {
		if 18+i%60 > 50 {
			want++
		}
	}
	if len(r.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(r.Rows), want)
	}
}

func TestThreeWayJoinWithAggregation(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, `
		SELECT v.type, AVG(m.u_ml) AS avg_uml, COUNT(*) AS n
		FROM Citizen c, Vaccines v, Vaccination vn, Measurements m
		WHERE c.id = vn.c_id AND c.id = m.c_id AND v.id = vn.v_id AND c.age > 20
		GROUP BY v.type ORDER BY v.type`)
	if len(r.Rows) != 2 {
		t.Fatalf("groups = %d, want 2 (mRNA, vector): %v", len(r.Rows), r.Rows)
	}
	if r.Rows[0][0].String() != "mRNA" || r.Rows[1][0].String() != "vector" {
		t.Fatalf("group keys = %v, %v", r.Rows[0][0], r.Rows[1][0])
	}
	total := r.Rows[0][2].Int() + r.Rows[1][2].Int()
	want := int64(0)
	for i := 0; i < 100; i++ {
		if 18+i%60 > 20 {
			want++
		}
	}
	if total != want {
		t.Fatalf("total count = %d, want %d", total, want)
	}
}

func TestPaperMotivatingQueryLocal(t *testing.T) {
	// The Fig. 3 query with GROUP BY on a projection alias.
	e := newTestEngine(t)
	r := queryAll(t, e, `
		SELECT v.type, AVG(m.u_ml),
		  CASE WHEN c.age BETWEEN 20 AND 30 THEN '20-30'
		       WHEN c.age BETWEEN 30 AND 40 THEN '30-40'
		       ELSE '40+' END AS age_group
		FROM Citizen c, Vaccines v, Vaccination vn, Measurements m
		WHERE c.id = vn.c_id AND c.id = m.c_id AND v.id = vn.v_id AND c.age > 20
		GROUP BY age_group, v.type
		ORDER BY age_group, v.type`)
	if len(r.Rows) != 6 {
		t.Fatalf("groups = %d, want 6: %v", len(r.Rows), r.Rows)
	}
	for _, row := range r.Rows {
		if row[1].IsNull() || row[1].Float() <= 0 {
			t.Errorf("avg u_ml = %v", row[1])
		}
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT COUNT(*), MIN(age), MAX(age), SUM(age), AVG(age) FROM Citizen")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row[0].Int() != 100 {
		t.Errorf("count = %v", row[0])
	}
	if row[1].Int() != 18 || row[2].Int() != 77 {
		t.Errorf("min/max = %v/%v", row[1], row[2])
	}
	var sum int64
	for i := 0; i < 100; i++ {
		sum += int64(18 + i%60)
	}
	if row[3].Int() != sum {
		t.Errorf("sum = %v, want %d", row[3], sum)
	}
	if row[4].Float() != float64(sum)/100 {
		t.Errorf("avg = %v", row[4])
	}
}

func TestCountDistinct(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT COUNT(DISTINCT age) FROM Citizen")
	if got := r.Rows[0][0].Int(); got != 60 {
		t.Errorf("count distinct = %d, want 60", got)
	}
}

func TestGlobalAggregateOnEmptyInput(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT COUNT(*), SUM(age) FROM Citizen WHERE age > 1000")
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(r.Rows))
	}
	if r.Rows[0][0].Int() != 0 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
	if !r.Rows[0][1].IsNull() {
		t.Errorf("sum of empty = %v, want NULL", r.Rows[0][1])
	}
}

func TestHaving(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT age, COUNT(*) AS n FROM Citizen GROUP BY age HAVING COUNT(*) > 1 ORDER BY age")
	// Ages cycle 18..77 over 100 rows, so ages 18..57 appear twice.
	if len(r.Rows) != 40 {
		t.Fatalf("groups = %d, want 40", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[1].Int() != 2 {
			t.Errorf("count = %v", row[1])
		}
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT id, age FROM Citizen ORDER BY age DESC, id ASC LIMIT 5")
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][1].Int() != 77 {
		t.Errorf("top age = %v", r.Rows[0][1])
	}
	// Ties broken by id ascending.
	if r.Rows[0][0].Int() >= r.Rows[1][0].Int() && sqltypes.Equal(r.Rows[0][1], r.Rows[1][1]) {
		t.Errorf("tie-break order wrong: %v", r.Rows[:2])
	}
}

func TestDistinct(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT DISTINCT age FROM Citizen")
	if len(r.Rows) != 60 {
		t.Fatalf("distinct ages = %d, want 60", len(r.Rows))
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT 1 + 1 AS two, 'x' AS s")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 2 || r.Rows[0][1].String() != "x" {
		t.Fatalf("%v", r.Rows)
	}
}

func TestViews(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec("CREATE VIEW adults AS SELECT id, age FROM Citizen WHERE age > 40"); err != nil {
		t.Fatal(err)
	}
	r := queryAll(t, e, "SELECT COUNT(*) FROM adults")
	want := int64(0)
	for i := 0; i < 100; i++ {
		if 18+i%60 > 40 {
			want++
		}
	}
	if got := r.Rows[0][0].Int(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	// Views compose: a view over a view, with alias.
	if err := e.Exec("CREATE VIEW seniors AS SELECT a.id FROM adults a WHERE a.age > 70"); err != nil {
		t.Fatal(err)
	}
	r = queryAll(t, e, "SELECT * FROM seniors s")
	if len(r.Rows) == 0 {
		t.Fatal("view-over-view returned nothing")
	}
	// Join a view with a base table.
	r = queryAll(t, e, "SELECT COUNT(*) FROM adults a, Vaccination vn WHERE a.id = vn.c_id")
	if got := r.Rows[0][0].Int(); got != want {
		t.Fatalf("join view count = %d, want %d", got, want)
	}
}

func TestViewErrors(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec("CREATE VIEW v1 AS SELECT id FROM Citizen"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("CREATE VIEW v1 AS SELECT age FROM Citizen"); err == nil {
		t.Error("duplicate view creation succeeded")
	}
	if err := e.Exec("CREATE OR REPLACE VIEW v1 AS SELECT age FROM Citizen"); err != nil {
		t.Errorf("OR REPLACE failed: %v", err)
	}
	if err := e.Exec("CREATE VIEW bad AS SELECT nosuch FROM Citizen"); err == nil {
		t.Error("view over missing column succeeded")
	}
	if err := e.Exec("CREATE VIEW Citizen AS SELECT 1"); err == nil {
		t.Error("view shadowing a table succeeded")
	}
}

func TestCreateTableInsertSelect(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec("CREATE TABLE t (a BIGINT, b VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')"); err != nil {
		t.Fatal(err)
	}
	r := queryAll(t, e, "SELECT * FROM t ORDER BY a")
	if len(r.Rows) != 2 || r.Rows[1][1].String() != "y" {
		t.Fatalf("%v", r.Rows)
	}
	if err := e.Exec("INSERT INTO t SELECT id, name FROM Citizen WHERE id < 3"); err != nil {
		t.Fatal(err)
	}
	r = queryAll(t, e, "SELECT COUNT(*) FROM t")
	if r.Rows[0][0].Int() != 5 {
		t.Fatalf("count = %v", r.Rows[0][0])
	}
}

func TestCreateTableAS(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec("CREATE TABLE old AS SELECT id, age FROM Citizen WHERE age > 70"); err != nil {
		t.Fatal(err)
	}
	tab, ok := e.Catalog().Table("old")
	if !ok {
		t.Fatal("CTAS table missing")
	}
	if tab.Stats.RowCount != int64(len(tab.Rows)) || len(tab.Rows) == 0 {
		t.Fatalf("stats = %+v rows = %d", tab.Stats, len(tab.Rows))
	}
	r := queryAll(t, e, "SELECT COUNT(*) FROM old")
	if r.Rows[0][0].Int() != int64(len(tab.Rows)) {
		t.Fatal("CTAS query mismatch")
	}
}

func TestDrop(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec("CREATE VIEW v AS SELECT 1 AS one"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("DROP VIEW v"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("DROP VIEW v"); err == nil {
		t.Error("double drop succeeded")
	}
	if err := e.Exec("DROP VIEW IF EXISTS v"); err != nil {
		t.Errorf("DROP IF EXISTS failed: %v", err)
	}
	if err := e.Exec("DROP TABLE Citizen"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryAll("SELECT * FROM Citizen"); err == nil {
		t.Error("query of dropped table succeeded")
	}
}

func TestQueryErrors(t *testing.T) {
	e := newTestEngine(t)
	cases := []string{
		"SELECT * FROM nosuch",
		"SELECT nosuch FROM Citizen",
		"SELECT id FROM Citizen WHERE bogus > 1",
		"SELECT OTHERDB.x FROM OTHERDB.T",        // cross-db ref
		"SELECT id FROM Citizen ORDER BY nosuch", // unresolvable order key
		"SELECT age, COUNT(*) FROM Citizen GROUP BY nosuch",
	}
	for _, q := range cases {
		if _, err := e.QueryAll(q); err == nil {
			t.Errorf("QueryAll(%q) succeeded, want error", q)
		}
	}
	if err := e.Exec("SELECT 1"); err == nil {
		t.Error("Exec(SELECT) succeeded")
	}
	if err := e.Exec("INSERT INTO nosuch VALUES (1)"); err == nil {
		t.Error("INSERT into missing table succeeded")
	}
}

func TestExplain(t *testing.T) {
	e := newTestEngine(t)
	info, err := e.Explain("SELECT c.name FROM Citizen c, Vaccination vn WHERE c.id = vn.c_id AND c.age > 50")
	if err != nil {
		t.Fatal(err)
	}
	if info.Cost <= 0 || info.Rows <= 0 {
		t.Fatalf("explain = %+v", info)
	}
	if !strings.Contains(info.Text, "HashJoin") {
		t.Errorf("plan text missing HashJoin:\n%s", info.Text)
	}
	if !strings.Contains(info.Text, "SeqScan") {
		t.Errorf("plan text missing SeqScan:\n%s", info.Text)
	}
	// EXPLAIN prefix also works.
	info2, err := e.Explain("EXPLAIN SELECT * FROM Citizen")
	if err != nil || info2.Rows != 100 {
		t.Fatalf("EXPLAIN SELECT * = %+v, %v", info2, err)
	}
}

func TestExplainCostUnitsVaryByVendor(t *testing.T) {
	// Same data, same query, different vendors: cost units must differ —
	// this is the calibration problem of footnote 6.
	mk := func(v Vendor) *Engine {
		e := New(Config{Name: "dbx", Vendor: v})
		schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
		var rows []sqltypes.Row
		for i := 0; i < 1000; i++ {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i))})
		}
		if err := e.LoadTable("t", schema, rows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	pg, _ := mk(VendorPostgres).Explain("SELECT * FROM t")
	hv, _ := mk(VendorHive).Explain("SELECT * FROM t")
	if pg.Cost == hv.Cost {
		t.Errorf("postgres and hive report identical cost %v — calibration would be a no-op", pg.Cost)
	}
	if hv.Cost < pg.Cost*10 {
		t.Errorf("hive cost %v not wildly different from postgres %v", hv.Cost, pg.Cost)
	}
}

func TestStats(t *testing.T) {
	e := newTestEngine(t)
	st, err := e.Stats("Citizen")
	if err != nil {
		t.Fatal(err)
	}
	if st.RowCount != 100 {
		t.Errorf("rows = %d", st.RowCount)
	}
	age := st.Column("age")
	if age == nil || age.Distinct != 60 {
		t.Errorf("age stats = %+v", age)
	}
	if age.Min.Int() != 18 || age.Max.Int() != 77 {
		t.Errorf("age min/max = %v/%v", age.Min, age.Max)
	}
	if st.AvgRowBytes <= 0 {
		t.Errorf("avg row bytes = %v", st.AvgRowBytes)
	}
	// View stats are estimates.
	if err := e.Exec("CREATE VIEW v AS SELECT * FROM Citizen WHERE age > 40"); err != nil {
		t.Fatal(err)
	}
	vst, err := e.Stats("v")
	if err != nil {
		t.Fatal(err)
	}
	if vst.RowCount <= 0 || vst.RowCount > 100 {
		t.Errorf("view stats rows = %d", vst.RowCount)
	}
	if _, err := e.Stats("nosuch"); err == nil {
		t.Error("stats of missing relation succeeded")
	}
}

func TestOrExpressionInJoin(t *testing.T) {
	// Q7-style OR across relations must work as a join residual.
	e := newTestEngine(t)
	r := queryAll(t, e, `SELECT COUNT(*) FROM Citizen c, Vaccination vn
		WHERE c.id = vn.c_id AND (c.age = 20 OR c.age = 30)`)
	want := int64(0)
	for i := 0; i < 100; i++ {
		a := 18 + i%60
		if a == 20 || a == 30 {
			want++
		}
	}
	if got := r.Rows[0][0].Int(); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT COUNT(*) FROM Vaccines a, Vaccines b")
	if got := r.Rows[0][0].Int(); got != 4 {
		t.Fatalf("cross join count = %d, want 4", got)
	}
}

func TestNonEquiJoin(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT COUNT(*) FROM Vaccines a, Vaccines b WHERE a.id < b.id")
	if got := r.Rows[0][0].Int(); got != 1 {
		t.Fatalf("non-equi join count = %d, want 1", got)
	}
}

func TestDateArithmeticInQueries(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, `SELECT COUNT(*) FROM Vaccination vn
		WHERE vn.date >= DATE '2021-03-01' AND vn.date < DATE '2021-03-01' + INTERVAL '1' MONTH`)
	if got := r.Rows[0][0].Int(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	r = queryAll(t, e, "SELECT EXTRACT(YEAR FROM vn.date) AS y FROM Vaccination vn GROUP BY y")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 2021 {
		t.Fatalf("%v", r.Rows)
	}
}

func TestLikeInQueries(t *testing.T) {
	e := newTestEngine(t)
	r := queryAll(t, e, "SELECT COUNT(*) FROM Citizen WHERE name LIKE 'citizen-1%'")
	// citizen-1, citizen-10..19, citizen-100 is out of range (ids 0..99):
	// 1 + 10 = 11.
	if got := r.Rows[0][0].Int(); got != 11 {
		t.Fatalf("count = %d, want 11", got)
	}
}

func TestStreamingQueryIterator(t *testing.T) {
	e := newTestEngine(t)
	_, it, err := e.Query("SELECT id FROM Citizen")
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		b, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(b.Rows)
	}
	if n != 100 {
		t.Fatalf("streamed %d rows", n)
	}
	if e.QueriesServed() == 0 {
		t.Error("QueriesServed not incremented")
	}
}

func TestForeignTableWithFakeRemote(t *testing.T) {
	e := newTestEngine(t)
	fake := &fakeRemote{
		rows: []sqltypes.Row{
			{sqltypes.NewInt(1), sqltypes.NewFloat(0.5)},
			{sqltypes.NewInt(2), sqltypes.NewFloat(1.5)},
			{sqltypes.NewInt(3), sqltypes.NewFloat(2.5)},
		},
	}
	e.SetRemote(fake)
	if err := e.Exec("CREATE SERVER r FOREIGN DATA WRAPPER xdb OPTIONS (host 'h', port '1')"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("CREATE FOREIGN TABLE scores (id BIGINT, score DOUBLE) SERVER r OPTIONS (table_name 'remote_scores')"); err != nil {
		t.Fatal(err)
	}
	r := queryAll(t, e, "SELECT s.score FROM scores s WHERE s.id > 1 ORDER BY s.score")
	if len(r.Rows) != 2 || r.Rows[0][0].Float() != 1.5 {
		t.Fatalf("%v", r.Rows)
	}
	if fake.lastSQL != "SELECT * FROM remote_scores" {
		t.Errorf("remote sql = %q", fake.lastSQL)
	}
	// Join local with foreign.
	r = queryAll(t, e, "SELECT c.name FROM Citizen c, scores s WHERE c.id = s.id")
	if len(r.Rows) != 3 {
		t.Fatalf("join rows = %d", len(r.Rows))
	}
	// CTAS over a foreign table = explicit materialization.
	if err := e.Exec("CREATE TABLE local_scores AS SELECT * FROM scores"); err != nil {
		t.Fatal(err)
	}
	lt, _ := e.Catalog().Table("local_scores")
	if len(lt.Rows) != 3 {
		t.Fatalf("materialized %d rows", len(lt.Rows))
	}
}

func TestForeignTableErrors(t *testing.T) {
	e := newTestEngine(t)
	if err := e.Exec("CREATE FOREIGN TABLE f (a BIGINT) SERVER missing OPTIONS (table_name 't')"); err == nil {
		t.Error("foreign table with unknown server succeeded")
	}
	if err := e.Exec("CREATE SERVER s FOREIGN DATA WRAPPER xdb OPTIONS (host 'h', port '1')"); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("CREATE FOREIGN TABLE f (a BIGINT) SERVER s OPTIONS (table_name 't')"); err != nil {
		t.Fatal(err)
	}
	// No remote querier configured.
	if _, err := e.QueryAll("SELECT * FROM f"); err == nil {
		t.Error("foreign scan without FDW succeeded")
	}
}

// TestForeignTableDeclaredEstimate: a foreign table is planned from the
// row estimate its DDL declared (1000 without one), in every dialect's
// spelling; EXPLAIN of a view over it and Stats on it report that number;
// and neither contacts the remote — planning is local, the foreign table
// binds to its producer when it is scanned.
func TestForeignTableDeclaredEstimate(t *testing.T) {
	e := newTestEngine(t)
	remote := &fakeRemote{}
	e.SetRemote(remote)
	for _, ddl := range []string{
		"CREATE SERVER r FOREIGN DATA WRAPPER xdb OPTIONS (host '127.0.0.1', port '1')", // nobody listens there
		"CREATE FOREIGN TABLE pg (id BIGINT) SERVER r OPTIONS (table_name 'rel', rows '6696')",
		"CREATE TABLE maria (id BIGINT) ENGINE=FEDERATED CONNECTION='r/rel?materialize=1&rows=25'",
		"CREATE EXTERNAL TABLE hive (id BIGINT) STORED BY 'xdb' TBLPROPERTIES ('server' 'r', 'table' 'rel', 'rows' '7')",
		"CREATE FOREIGN TABLE plain (id BIGINT) SERVER r OPTIONS (table_name 'rel')",
		"CREATE VIEW over_pg AS SELECT p.id FROM pg p",
	} {
		if err := e.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	for table, want := range map[string]int64{"pg": 6696, "maria": 25, "hive": 7, "plain": 1000} {
		st, err := e.Stats(table)
		if err != nil {
			t.Fatalf("Stats(%s): %v", table, err)
		}
		if st.RowCount != want {
			t.Errorf("Stats(%s).RowCount = %d, want the declared %d", table, st.RowCount, want)
		}
	}
	info, err := e.Explain("SELECT * FROM over_pg")
	if err != nil {
		t.Fatalf("EXPLAIN of a view over a foreign table: %v", err)
	}
	if info.Rows != 6696 || !strings.Contains(info.Text, "ForeignScan pg") || !strings.Contains(info.Text, "rows=6696") {
		t.Errorf("EXPLAIN rows = %v, want the declared 6696:\n%s", info.Rows, info.Text)
	}
	if st, err := e.Stats("over_pg"); err != nil || st.RowCount != 6696 {
		t.Errorf("Stats(over_pg) = %+v, %v; want 6696 rows", st, err)
	}
	if remote.lastSQL != "" {
		t.Errorf("planning contacted the remote: %q", remote.lastSQL)
	}
}

type fakeRemote struct {
	rows    []sqltypes.Row
	lastSQL string
}

func (f *fakeRemote) QueryRemote(srv *Server, sql string) (BatchIter, error) {
	f.lastSQL = sql
	return &scanIter{rows: f.rows}, nil
}

func TestCostOperator(t *testing.T) {
	pg := New(Config{Name: "a", Vendor: VendorPostgres})
	maria := New(Config{Name: "b", Vendor: VendorMariaDB})
	jpg := pg.CostOperator(CostJoin, 1000, 1000, 1000)
	jma := maria.CostOperator(CostJoin, 1000, 1000, 1000)
	if jpg <= 0 || jma <= 0 {
		t.Fatalf("costs: %v %v", jpg, jma)
	}
	// In *native units* MariaDB may look cheap (CostUnit 0.5), but after
	// calibration (divide by CostUnit) its joins must be pricier than
	// PostgreSQL's.
	if jma/maria.Profile().CostUnit <= jpg/pg.Profile().CostUnit {
		t.Errorf("calibrated mariadb join (%v) not more expensive than postgres (%v)",
			jma/maria.Profile().CostUnit, jpg/pg.Profile().CostUnit)
	}
	if pg.CostOperator(CostScan, 100, 0, 0) <= 0 || pg.CostOperator(CostAgg, 100, 0, 0) <= 0 {
		t.Error("scan/agg costs must be positive")
	}
}

func TestComputeStatsEdgeCases(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "b", Type: sqltypes.TypeString},
	)
	st := ComputeStats(schema, nil)
	if st.RowCount != 0 || len(st.Columns) != 2 {
		t.Fatalf("%+v", st)
	}
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.Null},
		{sqltypes.NewInt(1), sqltypes.NewString("x")},
		{sqltypes.NewInt(2), sqltypes.NewString("x")},
	}
	st = ComputeStats(schema, rows)
	if st.Columns[0].Distinct != 2 {
		t.Errorf("distinct a = %d", st.Columns[0].Distinct)
	}
	if st.Columns[1].NullFrac < 0.3 || st.Columns[1].NullFrac > 0.34 {
		t.Errorf("null frac = %v", st.Columns[1].NullFrac)
	}
	if st.Columns[0].Min.Int() != 1 || st.Columns[0].Max.Int() != 2 {
		t.Errorf("min/max = %v/%v", st.Columns[0].Min, st.Columns[0].Max)
	}
}

func TestVendorProfiles(t *testing.T) {
	for _, v := range []Vendor{VendorPostgres, VendorMariaDB, VendorHive, VendorTest} {
		p := Profiles(v)
		if p.CostUnit <= 0 {
			t.Errorf("%s: CostUnit = %v", v, p.CostUnit)
		}
	}
	if Profiles(VendorHive).StartupLatency <= Profiles(VendorPostgres).StartupLatency {
		t.Error("hive startup must exceed postgres")
	}
	if Profiles(VendorTest).ScanNsPerRow != 0 {
		t.Error("test vendor must not throttle")
	}
	if Profiles(VendorPostgres).TransferEncoding != EncodingBinary {
		t.Error("postgres must use binary encoding")
	}
	if Profiles(VendorMariaDB).TransferEncoding != EncodingText {
		t.Error("mariadb must use text encoding")
	}
}
