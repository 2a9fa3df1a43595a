package engine

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
)

// Tests of the morsel exchange (exchange.go), of the join table it
// shares between workers, and of ComputeStats across cores.

// TestExchangeChargesLikeSerial: a Q3-shaped statement on VendorPostgres —
// a filtered scan probing a join table, aggregated above — models the same
// CPU time whether it runs serially or on an exchange, and the exchange's
// workers sleep no more often than the serial operators.
func TestExchangeChargesLikeSerial(t *testing.T) {
	e := New(Config{Name: "pg", Vendor: VendorPostgres})
	for name, n := range map[string]int{"big": 30 * morselRows, "dim": 500} {
		if err := e.LoadTable(name, boundarySchema, boundaryRows(n, len(name))); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT big.g, SUM(big.v), COUNT(*) FROM big, dim WHERE big.k = dim.k AND big.g < 5 GROUP BY big.g"
	var sleeps, slept atomic.Int64
	defer func(old func(time.Duration)) { throttleSleep = old }(throttleSleep)
	throttleSleep = func(d time.Duration) { sleeps.Add(1); slept.Add(int64(d)) }

	measure := func(w int) (rows []sqltypes.Row, n, ns int64) {
		sleeps.Store(0)
		slept.Store(0)
		withWorkers(w, func() {
			res, err := e.QueryAll(sql)
			if err != nil {
				t.Fatal(err)
			}
			rows = res.Rows
		})
		return rows, sleeps.Load(), slept.Load()
	}
	want, serialSleeps, serialNs := measure(1)
	if serialSleeps == 0 {
		t.Fatal("the serial statement never slept")
	}
	for _, w := range []int{2, 4} {
		got, n, ns := measure(w)
		expectRows(t, fmt.Sprint(w, " workers"), got, want)
		if ns != serialNs {
			t.Errorf("%d workers modelled %v of CPU, the serial path %v", w, time.Duration(ns), time.Duration(serialNs))
		}
		if n > serialSleeps {
			t.Errorf("%d workers slept %d times, the serial path %d", w, n, serialSleeps)
		}
	}
}

// TestExchangeLeavesNoGoroutine: whether a statement's exchange runs to
// the end, fails in the middle of a morsel, or is closed early under a
// LIMIT, none of its goroutines outlives the statement — with its builds
// local or behind slow foreign streams.
func TestExchangeLeavesNoGoroutine(t *testing.T) {
	const n = 40 * morselRows
	rows := boundaryRows(n, 0)
	remote := &stagedRemote{rels: map[string]*stagedRel{"r": {rows: boundaryRows(300, 1), openDelay: 20 * time.Millisecond}}}
	e := stagedEngine(t, Profiles(VendorTest), remote, foreignDDL("f", "r", 300, false))
	for name, rs := range map[string][]sqltypes.Row{"t": rows, "d": boundaryRows(300, 1)} {
		if err := e.LoadTable(name, boundarySchema, rs); err != nil {
			t.Fatal(err)
		}
	}
	// Row 20000 is in the middle of morsel 19: its filter divides by zero.
	const failing = "SELECT t.v FROM t, %s WHERE t.k = %[1]s.k AND 1 / (t.v - 20000) < 1"
	for _, c := range []struct {
		name, sql string
		limit     int // rows read before Close; 0: to the end
		wantErr   string
	}{
		{name: "success", sql: "SELECT t.v, %s.s FROM t, %[1]s WHERE t.k = %[1]s.k AND t.g < 3"},
		{name: "error mid-morsel", sql: failing, wantErr: "division by zero"},
		{name: "close under limit", sql: "SELECT t.v FROM t, %s WHERE t.k = %[1]s.k AND t.g < 6 LIMIT 10", limit: 10},
	} {
		for _, build := range []string{"d", "f"} {
			t.Run(c.name+"/"+build, func(t *testing.T) {
				withWorkers(4, func() {
					before := runtime.NumGoroutine()
					_, it, err := e.Query(fmt.Sprintf(c.sql, build))
					if err != nil {
						t.Fatal(err)
					}
					got := 0
					for c.limit == 0 || got < c.limit {
						b, err := it.Next()
						if err != nil {
							if c.wantErr == "" && err != io.EOF || c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr) {
								t.Errorf("Next: %v, want %q", err, c.wantErr)
							}
							break
						}
						got += len(b.Rows)
					}
					it.Close()
					if c.limit > 0 && got != c.limit {
						t.Errorf("%d rows before Close, want %d", got, c.limit)
					}
					waitGoroutines(t, c.name, before)
				})
			})
		}
	}
	checkClosedOnce(t, "exchange builds", remote.rels)
}

// TestJoinKeysMatchNestedLoop: hash joins on one and on two int keys
// answer what the naive nested loop answers for int, float, date and NULL
// probe keys: int 3 = float 3.0 = date 3, a fraction, NaN or NULL matches
// nothing, and beyond 2^53 a float equals every int that rounds to it. The
// SQL nested loop, which compares with Compare, agrees.
func TestJoinKeysMatchNestedLoop(t *testing.T) {
	const big = 1 << 53
	ints := []sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(4), sqltypes.NewInt(big), sqltypes.NewInt(big + 1), sqltypes.NewInt(-7)}
	probes := []sqltypes.Value{
		sqltypes.NewInt(3), sqltypes.NewFloat(3), sqltypes.NewFloat(3.5), sqltypes.NewFloat(-7),
		sqltypes.NewFloat(big), sqltypes.NewFloat(math.Inf(1)), sqltypes.Null, sqltypes.NewInt(big + 1),
		sqltypes.NewDate(4), sqltypes.NewFloat(math.NaN()),
	}
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "b", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "i", Type: sqltypes.TypeInt},
	)
	var build, probe []sqltypes.Row
	for i, a := range ints {
		for j, b := range ints[:3] {
			build = append(build, sqltypes.Row{a, b, sqltypes.NewInt(int64(10*i + j))})
		}
	}
	for rep := range 2 {
		for i, a := range probes {
			for j, b := range probes {
				probe = append(probe, sqltypes.Row{a, b, sqltypes.NewInt(int64(1000*rep + 100*i + j))})
			}
		}
	}
	e := New(Config{Name: "k", Vendor: VendorTest})
	// The probe side is the larger, so the build side is bt.
	for name, rows := range map[string][]sqltypes.Row{"pt": probe, "bt": build} {
		if err := e.LoadTable(name, schema, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		cond string // over p and bt
		on   func(p, b sqltypes.Row) bool
	}{
		{"p.a = bt.a", func(p, b sqltypes.Row) bool { return sqlEq(p[0], b[0]) }},
		{"p.a = bt.a AND p.b = bt.b", func(p, b sqltypes.Row) bool { return sqlEq(p[0], b[0]) && sqlEq(p[1], b[1]) }},
	} {
		for _, loop := range []bool{false, true} {
			cond := c.cond
			if loop {
				cond = strings.ReplaceAll(cond, "p.a", "p.a + 0")
				cond = strings.ReplaceAll(cond, "p.b", "p.b + 0")
			}
			sql := "SELECT p.i, bt.i FROM pt p, bt WHERE " + cond
			info, err := e.Explain(sql)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(info.Text, "HashJoin") == loop {
				t.Fatalf("%s: unexpected plan\n%s", sql, info.Text)
			}
			res, err := e.QueryAll(sql)
			if err != nil {
				t.Fatal(err)
			}
			expectBag(t, sql, res.Rows, refJoin(probe, build, c.on, func(p, b sqltypes.Row) sqltypes.Row { return sqltypes.Row{p[2], b[2]} }))
		}
	}
}

// refComputeStats is ComputeStats as one pass over the rows with all
// columns together: the reference the per-column workers must match. It
// counts a column's distinct values by sorting them (refDistinct), not by
// hashing them into a set as ComputeStats does.
func refComputeStats(schema *sqltypes.Schema, rows []sqltypes.Row) *TableStats {
	st := &TableStats{RowCount: int64(len(rows)), Columns: make([]ColumnStats, schema.Len())}
	for i, c := range schema.Columns {
		st.Columns[i].Name = c.Name
	}
	if len(rows) == 0 {
		return st
	}
	type tracker struct {
		vals     []sqltypes.Value // the non-NULL values
		nulls    int64
		min, max sqltypes.Value
	}
	trackers := make([]tracker, schema.Len())
	for i := range trackers {
		trackers[i] = tracker{min: sqltypes.Null, max: sqltypes.Null}
	}
	var totalBytes int64
	for _, row := range rows {
		totalBytes += int64(row.EncodedSize())
		for i := range trackers {
			t, v := &trackers[i], row[i]
			if v.IsNull() {
				t.nulls++
				continue
			}
			t.vals = append(t.vals, v)
			if t.min.IsNull() {
				t.min, t.max = v, v
				continue
			}
			if c, err := sqltypes.Compare(v, t.min); err == nil && c < 0 {
				t.min = v
			}
			if c, err := sqltypes.Compare(v, t.max); err == nil && c > 0 {
				t.max = v
			}
		}
	}
	st.AvgRowBytes = float64(totalBytes) / float64(len(rows))
	for i, t := range trackers {
		d := refDistinct(t.vals)
		if d >= distinctTrackLimit {
			// Tracking stops at the cap; the count is scaled by the
			// fraction of the values seen until then.
			d = min(int64(float64(distinctTrackLimit)*float64(st.RowCount)/float64(len(t.vals))), st.RowCount)
		}
		st.Columns[i].Distinct, st.Columns[i].Min, st.Columns[i].Max = d, t.min, t.max
		st.Columns[i].NullFrac = float64(t.nulls) / float64(st.RowCount)
	}
	return st
}

// refDistinct counts the distinct values by sorting them and counting the
// places where a value is not Equal to the one before it. The sort is by
// class (numbers and dates, strings, bools), a number by its float64 value
// and then its type, and last by Compare, which is exact among the values
// of one type.
func refDistinct(vals []sqltypes.Value) int64 {
	class := func(v sqltypes.Value) int {
		switch v.T {
		case sqltypes.TypeString:
			return 1
		case sqltypes.TypeBool:
			return 2
		}
		return 0
	}
	vals = slices.Clone(vals)
	slices.SortFunc(vals, func(a, b sqltypes.Value) int {
		if c := cmp.Compare(class(a), class(b)); c != 0 {
			return c
		}
		if class(a) == 0 {
			if c := sqltypes.CompareFloat(a.Float(), b.Float()); c != 0 {
				return c
			}
			if c := cmp.Compare(a.T, b.T); c != 0 {
				return c
			}
		}
		c, _ := sqltypes.Compare(a, b)
		return c
	})
	var d int64
	for i, v := range vals {
		if i == 0 || !sqltypes.Equal(vals[i-1], v) {
			d++
		}
	}
	return d
}

// TestComputeStatsMatchesOnePass: statistics computed a column per worker
// are exactly the one-pass statistics, on every TPC-H table (lineitem's
// comments pass the distinct-tracking cap) and on a column mixing types,
// NULL, NaN and ±0.
func TestComputeStatsMatchesOnePass(t *testing.T) {
	data := tpch.NewGenerator(0.02, 1).GenAll()
	for _, name := range tpch.TableNames {
		schema, err := tpch.Schema(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ComputeStats(schema, data[name]), refComputeStats(schema, data[name]); !got.Same(want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
	mixed := sqltypes.NewSchema(sqltypes.Column{Name: "m"}, sqltypes.Column{Name: "n", Type: sqltypes.TypeFloat})
	var rows []sqltypes.Row
	for i := range 3000 {
		vals := []sqltypes.Value{
			sqltypes.NewInt(int64(i % 17)), sqltypes.NewFloat(float64(i%5) / 2), sqltypes.Null,
			sqltypes.NewFloat(math.NaN()), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewFloat(0),
			sqltypes.NewString(fmt.Sprint("s", i%11)), sqltypes.NewDate(int64(i % 3)), sqltypes.NewBool(i%2 == 0),
		}
		rows = append(rows, sqltypes.Row{vals[i%len(vals)], vals[(i+1)%6]})
	}
	if got, want := ComputeStats(mixed, rows), refComputeStats(mixed, rows); !got.Same(want) {
		t.Errorf("mixed:\n got %+v\nwant %+v", got, want)
	}
}

// probeSpineSQL is the last task of TPC-H Q5 in miniature: stored rows,
// filtered, probe a small foreign build side, and an aggregate sits above.
const probeSpineSQL = "SELECT fd.g, SUM(big.v), COUNT(*) FROM big, fd WHERE big.k = fd.k AND big.g < 5 GROUP BY fd.g"

// probeSpineHold is how late probeSpineEngine's build side opens: longer
// than reading 64 morsels ahead takes.
const probeSpineHold = 50 * time.Millisecond

// probeSpineEngine loads big, morsels morsels of stored rows, and declares
// fd, a foreign build side of 300 rows whose stream opens only after
// probeSpineHold: meanwhile the probe side is read ahead as far as it may
// go.
func probeSpineEngine(tb testing.TB, morsels int) *Engine {
	tb.Helper()
	remote := &stagedRemote{rels: map[string]*stagedRel{"rd": {rows: boundaryRows(300, 1), openDelay: probeSpineHold}}}
	e := stagedEngine(tb, Profiles(VendorTest), remote, foreignDDL("fd", "rd", 300, false))
	if err := e.LoadTable("big", boundarySchema, boundaryRows(morsels*morselRows, 0)); err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestProbeSpineAllocsBoundedByWindow: a statement recycles its batch
// memory. After a warm-up, what one execution of a Q5-shaped statement
// allocates is bounded by its read-ahead, its window and its build — not
// by how many morsels its probe side has — serially and on an exchange of
// two workers, with the probe side filtered (its read-ahead copies row
// headers) and not (its stored rows are its read-ahead). When every morsel
// read ahead ran at once, each with fresh output batches, an execution
// allocated several times the bound.
func TestProbeSpineAllocsBoundedByWindow(t *testing.T) {
	const (
		rowBytes = int(unsafe.Sizeof(sqltypes.Row{}))
		outBytes = sqltypes.BatchRows * (rowBytes + 2*int(unsafe.Sizeof(sqltypes.Value{}))) // a full join batch: fd.g, big.v
	)
	perExec := func(e *Engine, sql string) uint64 {
		var ms runtime.MemStats
		var per []uint64
		for range 4 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := e.QueryAll(sql); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			per = append(per, ms.TotalAlloc-before)
		}
		per = per[1:] // the first execution warms up
		slices.Sort(per)
		return per[1]
	}
	small, large := probeSpineEngine(t, 100), probeSpineEngine(t, 200)
	for _, sql := range []string{probeSpineSQL, strings.Replace(probeSpineSQL, " AND big.g < 5", "", 1)} {
		for _, w := range []int{1, 2} {
			withWorkers(w, func() {
				window := 4 * w
				bound := uint64(pullAheadBatches*sqltypes.BatchRows*rowBytes + 4*window*outBytes + 1<<20)
				a, b := perExec(small, sql), perExec(large, sql)
				t.Logf("%d workers, %s: %d KiB at 100 morsels, %d KiB at 200 (bound %d KiB)", w, sql, a>>10, b>>10, bound>>10)
				if a > bound || b > bound {
					t.Errorf("%d workers, %s: an execution allocates %d KiB at 100 morsels and %d KiB at 200, over the %d KiB its read-ahead, window and build account for", w, sql, a>>10, b>>10, bound>>10)
				}
				if 2*b > 3*a {
					t.Errorf("%d workers, %s: twice the probe rows took %d KiB, not about the %d KiB of half of them", w, sql, b>>10, a>>10)
				}
			})
		}
	}
}
