package tpch

import (
	"bytes"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(0.001, 42).GenAll()
	b := NewGenerator(0.001, 42).GenAll()
	for _, table := range TableNames {
		ra, rb := a[table], b[table]
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d rows", table, len(ra), len(rb))
		}
		for i := range ra {
			for j := range ra[i] {
				if !sqltypes.Same(ra[i][j], rb[i][j]) {
					t.Fatalf("%s row %d col %d: %v vs %v", table, i, j, ra[i][j], rb[i][j])
				}
			}
		}
	}
	// Different seed differs.
	c := NewGenerator(0.001, 43).GenAll()
	same := true
	for i := range a[Customer] {
		if !sqltypes.Same(a[Customer][i][5], c[Customer][i][5]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical customer acctbals")
	}
}

func TestGeneratorProportions(t *testing.T) {
	g := NewGenerator(0.01, 1)
	data := g.GenAll()
	if n := len(data[Region]); n != 5 {
		t.Errorf("region = %d", n)
	}
	if n := len(data[Nation]); n != 25 {
		t.Errorf("nation = %d", n)
	}
	if n := len(data[Customer]); n != 1500 {
		t.Errorf("customer = %d, want 1500", n)
	}
	if n := len(data[Orders]); n != 15000 {
		t.Errorf("orders = %d, want 15000", n)
	}
	if n := len(data[Supplier]); n != 100 {
		t.Errorf("supplier = %d, want 100", n)
	}
	// Lineitem averages 4 lines per order (1..7 uniform).
	l := float64(len(data[Lineitem])) / float64(len(data[Orders]))
	if l < 3.5 || l > 4.5 {
		t.Errorf("lines per order = %v", l)
	}
	// Partsupp is 4x part.
	if len(data[PartSupp]) != 4*len(data[Part]) {
		t.Errorf("partsupp = %d, part = %d", len(data[PartSupp]), len(data[Part]))
	}
}

func TestGeneratorSchemasMatch(t *testing.T) {
	g := NewGenerator(0.001, 7)
	data := g.GenAll()
	for _, table := range TableNames {
		schema, err := Schema(table)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range data[table] {
			if len(row) != schema.Len() {
				t.Fatalf("%s row %d: %d values for %d columns", table, i, len(row), schema.Len())
			}
			for j, v := range row {
				want := schema.Columns[j].Type
				if v.IsNull() {
					continue
				}
				if v.T != want {
					t.Fatalf("%s row %d col %s: type %v, want %v", table, i, schema.Columns[j].Name, v.T, want)
				}
			}
			if i > 50 {
				break
			}
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	g := NewGenerator(0.002, 3)
	data := g.GenAll()
	nCust := int64(len(data[Customer]))
	for _, o := range data[Orders] {
		if ck := o[1].I(); ck < 1 || ck > nCust {
			t.Fatalf("order custkey %d out of range", ck)
		}
	}
	nOrders := int64(len(data[Orders]))
	nParts := int64(len(data[Part]))
	nSupp := int64(len(data[Supplier]))
	for _, l := range data[Lineitem] {
		if ok := l[0].I(); ok < 1 || ok > nOrders {
			t.Fatalf("lineitem orderkey %d out of range", ok)
		}
		if pk := l[1].I(); pk < 1 || pk > nParts {
			t.Fatalf("lineitem partkey %d out of range", pk)
		}
		if sk := l[2].I(); sk < 1 || sk > nSupp {
			t.Fatalf("lineitem suppkey %d out of range", sk)
		}
	}
	for _, ps := range data[PartSupp] {
		if sk := ps[1].I(); sk < 1 || sk > nSupp {
			t.Fatalf("partsupp suppkey %d out of range", sk)
		}
	}
	for _, n := range data[Nation] {
		if rk := n[2].I(); rk < 0 || rk > 4 {
			t.Fatalf("nation regionkey %d out of range", rk)
		}
	}
}

func TestLineitemDateConsistency(t *testing.T) {
	g := NewGenerator(0.001, 5)
	orders := g.GenOrders()
	lines := g.GenLineitem(orders)
	odate := map[int64]int64{}
	for _, o := range orders {
		odate[o[0].I()] = o[4].I()
	}
	for _, l := range lines {
		ship, receipt := l[10].I(), l[12].I()
		if ship <= odate[l[0].I()] {
			t.Fatalf("shipdate %d not after orderdate %d", ship, odate[l[0].I()])
		}
		if receipt <= ship {
			t.Fatalf("receiptdate %d not after shipdate %d", receipt, ship)
		}
	}
}

func TestQueriesParse(t *testing.T) {
	for name, sql := range Queries {
		if _, err := sqlparser.ParseSelect(sql); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
}

func TestQueriesRunLocally(t *testing.T) {
	// All six queries must execute on a single engine holding all tables,
	// and the selective ones must return non-empty results at small scale.
	e := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	g := NewGenerator(0.01, 42)
	data := g.GenAll()
	for _, table := range TableNames {
		schema, _ := Schema(table)
		if err := e.LoadTable(table, schema, data[table]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range QueryNames {
		res, err := e.QueryAll(Queries[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Q8's AMERICA x BRAZIL x exact-part-type filter can legitimately
		// be empty at tiny scale; all others must produce rows.
		if len(res.Rows) == 0 && name != "Q8" {
			t.Errorf("%s returned no rows at sf 0.01", name)
		}
		t.Logf("%s: %d rows", name, len(res.Rows))
	}
}

func TestQ3RevenueIsPositive(t *testing.T) {
	e := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	g := NewGenerator(0.01, 42)
	data := g.GenAll()
	for _, table := range []string{Customer, Orders, Lineitem} {
		schema, _ := Schema(table)
		if err := e.LoadTable(table, schema, data[table]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.QueryAll(Queries["Q3"])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 10 {
		t.Fatalf("rows = %d (limit 10)", len(res.Rows))
	}
	prev := res.Rows[0][1].Float()
	for _, r := range res.Rows {
		rev := r[1].Float()
		if rev <= 0 {
			t.Errorf("revenue = %v", rev)
		}
		if rev > prev {
			t.Error("revenue not sorted descending")
		}
		prev = rev
	}
}

func TestDistributionsMatchTableIII(t *testing.T) {
	td1, err := TD("TD1")
	if err != nil {
		t.Fatal(err)
	}
	if td1[Lineitem] != "db1" || td1[Customer] != "db2" || td1[Orders] != "db2" {
		t.Errorf("TD1 = %v", td1)
	}
	if got := td1.Nodes(); len(got) != 4 {
		t.Errorf("TD1 nodes = %v", got)
	}
	td3, _ := TD("TD3")
	if got := td3.Nodes(); len(got) != 7 {
		t.Errorf("TD3 nodes = %v", got)
	}
	if td3[Nation] != "db7" || td3[Region] != "db7" {
		t.Errorf("TD3 n/r = %s/%s", td3[Nation], td3[Region])
	}
	// Every distribution covers every table.
	for name, d := range Distributions {
		for _, table := range TableNames {
			if d[table] == "" {
				t.Errorf("%s: table %s unplaced", name, table)
			}
		}
	}
	if _, err := TD("TD9"); err == nil {
		t.Error("unknown TD accepted")
	}
	if got := td1.TablesOn("db3"); strings.Join(got, ",") != "nation,region,supplier" {
		t.Errorf("TablesOn(db3) = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	g := NewGenerator(0.001, 9)
	rows := g.GenNation()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Nation, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, Nation)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		for j := range rows[i] {
			if !sqltypes.Equal(got[i][j], rows[i][j]) {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

func TestCSVDates(t *testing.T) {
	g := NewGenerator(0.0005, 2)
	orders := g.GenOrders()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Orders, orders[:10]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, Orders)
	if err != nil {
		t.Fatal(err)
	}
	if got[0][4].T != sqltypes.TypeDate || !sqltypes.Same(got[0][4], orders[0][4]) {
		t.Fatalf("date round trip: %v vs %v", got[0][4], orders[0][4])
	}
}

func TestSelectivities(t *testing.T) {
	// Sanity-check the value distributions the queries depend on.
	g := NewGenerator(0.01, 42)
	parts := g.GenPart()
	var green, econSteel int
	for _, p := range parts {
		if strings.Contains(p[1].String(), "green") {
			green++
		}
		if p[4].String() == "ECONOMY ANODIZED STEEL" {
			econSteel++
		}
	}
	gf := float64(green) / float64(len(parts))
	if gf < 0.02 || gf > 0.12 {
		t.Errorf("'green' part fraction = %v", gf)
	}
	ef := float64(econSteel) / float64(len(parts))
	if ef < 0.001 || ef > 0.02 {
		t.Errorf("ECONOMY ANODIZED STEEL fraction = %v (want ~1/150)", ef)
	}
	custs := g.GenCustomer()
	var building int
	for _, c := range custs {
		if c[6].String() == "BUILDING" {
			building++
		}
	}
	bf := float64(building) / float64(len(custs))
	if bf < 0.1 || bf > 0.3 {
		t.Errorf("BUILDING fraction = %v (want ~1/5)", bf)
	}
}

func TestQueryHelpers(t *testing.T) {
	if _, err := Query("Q3"); err != nil {
		t.Error(err)
	}
	if _, err := Query("Q99"); err == nil {
		t.Error("unknown query accepted")
	}
	if _, err := Schema("nosuch"); err == nil {
		t.Error("unknown table accepted")
	}
	for _, q := range QueryNames {
		if len(QueryTables[q]) == 0 {
			t.Errorf("QueryTables missing %s", q)
		}
	}
}
