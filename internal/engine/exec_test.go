package engine

import (
	"io"
	"sync"
	"testing"

	"xdb/internal/sqltypes"
)

// Operator-level tests against the batch executor, exercising edge cases
// the SQL-level tests do not isolate.

func rowsOf(vals ...int64) []sqltypes.Row {
	out := make([]sqltypes.Row, len(vals))
	for i, v := range vals {
		out[i] = sqltypes.Row{sqltypes.NewInt(v)}
	}
	return out
}

// allCols is a joinOutput that emits every column of one-column inputs.
func allCols() joinOutput { return joinOutput{probeCols: []int{0}, buildCols: []int{0}} }

// opened is an opener handing out an iterator that is already open.
func opened(it BatchIter) opener {
	return func(*statement) (BatchIter, error) { return it, nil }
}

// joinOf joins two open one-column iterators, unthrottled, as a statement
// of its own.
func joinOf(probe, build BatchIter, probeKeys, buildKeys []int) (*joinIter, error) {
	return openJoin(opened(probe), &joinSpec{build: opened(build), probeKeys: probeKeys, buildKeys: buildKeys, out: allCols(), est: 1}, new(statement))
}

func TestRowsIterAndDrain(t *testing.T) {
	it := &scanIter{rows: rowsOf(1, 2, 3)}
	rows, err := Drain(it)
	if err != nil || len(rows) != 3 {
		t.Fatalf("rows=%d err=%v", len(rows), err)
	}
	// Exhausted iterator keeps returning EOF.
	if _, err := it.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v", err)
	}
}

func TestLimitIterZeroAndOverrun(t *testing.T) {
	it := &limitIter{in: &scanIter{rows: rowsOf(1, 2, 3)}, left: 0}
	rows, err := Drain(it)
	if err != nil || len(rows) != 0 {
		t.Fatalf("limit 0: rows=%d err=%v", len(rows), err)
	}
	it = &limitIter{in: &scanIter{rows: rowsOf(1, 2)}, left: 10}
	rows, _ = Drain(it)
	if len(rows) != 2 {
		t.Fatalf("limit beyond input: rows=%d", len(rows))
	}
}

func TestDistinctIterWithNulls(t *testing.T) {
	in := &scanIter{rows: []sqltypes.Row{
		{sqltypes.Null}, {sqltypes.NewInt(1)}, {sqltypes.Null}, {sqltypes.NewInt(1)},
	}}
	rows, err := Drain(&distinctIter{in: in, seen: newRowSet(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("distinct rows = %d, want 2 (NULL and 1)", len(rows))
	}
}

func TestHashJoinCollisionSafety(t *testing.T) {
	// Values that may collide in the hash must still compare by value.
	probe := &scanIter{rows: rowsOf(1, 2, 3, 4)}
	build := &scanIter{rows: rowsOf(2, 4, 6)}
	j, err := joinOf(probe, build, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Drain(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("join rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if !sqltypes.Equal(r[0], r[1]) {
			t.Errorf("joined mismatched keys: %v", r)
		}
	}
}

func TestHashJoinDuplicateKeys(t *testing.T) {
	probe := &scanIter{rows: rowsOf(1, 1)}
	build := &scanIter{rows: rowsOf(1, 1, 1)}
	j, err := joinOf(probe, build, []int{0}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := Drain(j)
	if len(rows) != 6 {
		t.Fatalf("duplicate-key join rows = %d, want 6", len(rows))
	}
}

func TestNestedLoopCrossAndConditional(t *testing.T) {
	left := &scanIter{rows: rowsOf(1, 2)}
	right := &scanIter{rows: rowsOf(10, 20, 30)}
	nl, err := joinOf(left, right, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := Drain(nl)
	if len(rows) != 6 {
		t.Fatalf("cross join rows = %d, want 6", len(rows))
	}
}

func TestSortNullsFirst(t *testing.T) {
	e := New(Config{Name: "t", Vendor: VendorTest})
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
	rows := []sqltypes.Row{{sqltypes.NewInt(2)}, {sqltypes.Null}, {sqltypes.NewInt(1)}}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAll("SELECT a FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[0][0].IsNull() {
		t.Errorf("NULL not first: %v", res.Rows)
	}
	if res.Rows[1][0].Int() != 1 || res.Rows[2][0].Int() != 2 {
		t.Errorf("order: %v", res.Rows)
	}
	// DESC puts NULL last.
	res, err = e.QueryAll("SELECT a FROM t ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows[2][0].IsNull() {
		t.Errorf("DESC NULL not last: %v", res.Rows)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	e := New(Config{Name: "t", Vendor: VendorTest})
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "g", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "v", Type: sqltypes.TypeInt},
	)
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewInt(10)},
		{sqltypes.NewInt(1), sqltypes.Null},
		{sqltypes.NewInt(1), sqltypes.NewInt(20)},
	}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAll("SELECT g, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[1].Int() != 3 {
		t.Errorf("COUNT(*) = %v", r[1])
	}
	if r[2].Int() != 2 {
		t.Errorf("COUNT(v) = %v, want 2 (NULLs skipped)", r[2])
	}
	if r[3].Int() != 30 {
		t.Errorf("SUM = %v", r[3])
	}
	if r[4].Float() != 15 {
		t.Errorf("AVG = %v, want 15 (NULL-excluding)", r[4])
	}
	if r[5].Int() != 10 || r[6].Int() != 20 {
		t.Errorf("MIN/MAX = %v/%v", r[5], r[6])
	}
}

func TestGroupByNullKey(t *testing.T) {
	e := New(Config{Name: "t", Vendor: VendorTest})
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "g", Type: sqltypes.TypeInt})
	rows := []sqltypes.Row{{sqltypes.Null}, {sqltypes.NewInt(1)}, {sqltypes.Null}}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAll("SELECT g, COUNT(*) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2 (NULLs group together)", len(res.Rows))
	}
}

func TestSumIntegerStaysInteger(t *testing.T) {
	e := New(Config{Name: "t", Vendor: VendorTest})
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "v", Type: sqltypes.TypeInt})
	var rows []sqltypes.Row
	for i := int64(1); i <= 4; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(i)})
	}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAll("SELECT SUM(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].T != sqltypes.TypeInt || res.Rows[0][0].I() != 10 {
		t.Errorf("SUM(int) = %+v, want integer 10", res.Rows[0][0])
	}
}

func TestCPUThrottleAccumulation(t *testing.T) {
	// Sub-millisecond work accumulates instead of sleeping per row.
	th := cpuThrottle{nsPerRow: 100, cpu: new(sync.Mutex)}
	for i := 0; i < 100; i++ {
		th.charge(1)
	}
	if th.pending != 100*100 {
		t.Errorf("pending = %d, want 10000", th.pending)
	}
	th.flush()
	if th.pending != 0 {
		t.Errorf("pending after flush = %d", th.pending)
	}
	// Zero rate: no accounting at all.
	z := cpuThrottle{}
	z.charge(1 << 40)
	if z.pending != 0 {
		t.Error("zero-rate throttle accumulated work")
	}
}

func TestViewWithOrderByAndLimit(t *testing.T) {
	e := New(Config{Name: "t", Vendor: VendorTest})
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
	if err := e.LoadTable("t", schema, rowsOf(5, 3, 9, 1, 7)); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec("CREATE VIEW top3 AS SELECT a FROM t ORDER BY a DESC LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	res, err := e.QueryAll("SELECT * FROM top3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0].Int() != 9 {
		t.Fatalf("%v", res.Rows)
	}
}

func TestOrderByNonProjectedColumn(t *testing.T) {
	e := New(Config{Name: "t", Vendor: VendorTest})
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "name", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "age", Type: sqltypes.TypeInt},
	)
	rows := []sqltypes.Row{
		{sqltypes.NewString("b"), sqltypes.NewInt(30)},
		{sqltypes.NewString("a"), sqltypes.NewInt(50)},
		{sqltypes.NewString("c"), sqltypes.NewInt(10)},
	}
	if err := e.LoadTable("p", schema, rows); err != nil {
		t.Fatal(err)
	}
	// ORDER BY a column the projection drops.
	res, err := e.QueryAll("SELECT name FROM p ORDER BY age DESC")
	if err != nil {
		t.Fatal(err)
	}
	got := ""
	for _, r := range res.Rows {
		got += r[0].String()
	}
	if got != "abc" {
		t.Errorf("order = %q, want abc", got)
	}
	if res.Schema.Len() != 1 {
		t.Errorf("hidden sort column leaked: %v", res.Schema)
	}
	// Mixed: alias plus non-projected column.
	res, err = e.QueryAll("SELECT name AS n FROM p WHERE age > 5 ORDER BY age")
	if err != nil {
		t.Fatal(err)
	}
	got = ""
	for _, r := range res.Rows {
		got += r[0].String()
	}
	if got != "cba" {
		t.Errorf("order = %q, want cba", got)
	}
	// Aggregated queries still reject unknown order keys.
	if _, err := e.QueryAll("SELECT name, COUNT(*) FROM p GROUP BY name ORDER BY age"); err == nil {
		t.Error("aggregate ORDER BY over non-grouped column succeeded")
	}
	// DISTINCT with pre-projection sort keeps the sorted order.
	res, err = e.QueryAll("SELECT DISTINCT name FROM p ORDER BY age")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].String() != "c" {
		t.Errorf("distinct+sort order: %v", res.Rows)
	}
}
