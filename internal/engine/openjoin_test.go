package engine

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xdb/internal/sqltypes"
)

// Tests of a join's open: both inputs start together, a statement keeps
// one modelled CPU, and every failure closes what was opened, once.

// stagedRemote is a foreign data wrapper serving named relations (the
// remote table of "SELECT * FROM <table>"). A relation can open slowly,
// fail to open, fail mid-stream, or hold its first batch until another
// stream has ended; opens and closes are counted. Every batch is carved
// from one slab per stream that the next call overwrites, as the wire
// client's are.
type stagedRemote struct {
	rels map[string]*stagedRel // fixed before the first query
}

type stagedRel struct {
	rows      []sqltypes.Row
	openDelay time.Duration
	openErr   error
	failAfter int           // batches served before failing with errStream; 0: never
	after     chan struct{} // if set, the first batch waits until it is closed
	done      chan struct{} // if set, closed when the stream reaches its end

	doneOnce      sync.Once
	opens, closes atomic.Int32
	doubleClose   atomic.Bool
}

var (
	errOpen   = errors.New("injected open failure")
	errStream = errors.New("injected stream failure")
)

func (r *stagedRemote) QueryRemote(_ *Server, sql string) (BatchIter, error) {
	rel := r.rels[strings.TrimPrefix(sql, "SELECT * FROM ")]
	if rel == nil {
		return nil, fmt.Errorf("no remote relation for %q", sql)
	}
	time.Sleep(rel.openDelay)
	if rel.openErr != nil {
		return nil, rel.openErr
	}
	rel.opens.Add(1)
	return &stagedIter{rel: rel, rows: rel.rows}, nil
}

type stagedIter struct {
	rel    *stagedRel
	rows   []sqltypes.Row
	served int
	closed bool
	batch  sqltypes.Batch
}

func (s *stagedIter) Next() (*sqltypes.Batch, error) {
	if s.served == 0 && s.rel.after != nil {
		select {
		case <-s.rel.after:
		case <-time.After(5 * time.Second):
			return nil, errors.New("waited 5 s for the other input to be read ahead")
		}
	}
	if s.rel.failAfter > 0 && s.served == s.rel.failAfter {
		return nil, errStream
	}
	if len(s.rows) == 0 {
		if s.rel.done != nil {
			s.rel.doneOnce.Do(func() { close(s.rel.done) })
		}
		return nil, io.EOF
	}
	n := min(len(s.rows), 700) // not a divisor of BatchRows: boundaries drift
	s.batch.Reset()
	for _, r := range s.rows[:n] {
		copy(s.batch.NewRow(len(r)), r)
	}
	s.rows = s.rows[n:]
	s.served++
	return &s.batch, nil
}

func (s *stagedIter) Close() error {
	if s.closed {
		s.rel.doubleClose.Store(true)
	}
	s.closed = true
	s.rel.closes.Add(1)
	return nil
}

// checkClosedOnce reports a relation whose streams were not each closed
// exactly once.
func checkClosedOnce(t *testing.T, what string, rels map[string]*stagedRel) {
	t.Helper()
	for name, rel := range rels {
		if o, c := rel.opens.Load(), rel.closes.Load(); o != c || rel.doubleClose.Load() {
			t.Errorf("%s: %s opened %d streams, closed %d (a stream closed twice: %v)", what, name, o, c, rel.doubleClose.Load())
		}
	}
}

// foreignDDL declares a foreign table over server s with the boundary
// schema and a declared row estimate, which decides the build side.
func foreignDDL(name, remote string, rows int, materialize bool) string {
	opts := fmt.Sprintf("table_name '%s', rows '%d'", remote, rows)
	if materialize {
		opts += ", materialize 'true'"
	}
	return fmt.Sprintf("CREATE FOREIGN TABLE %s (k BIGINT, s TEXT, f DOUBLE, v BIGINT, g BIGINT) SERVER s OPTIONS (%s)", name, opts)
}

// stagedEngine is an engine with the given profile over the remote,
// running the DDL after declaring server s.
func stagedEngine(t testing.TB, profile Profile, remote RemoteQuerier, ddl ...string) *Engine {
	t.Helper()
	e := New(Config{Name: "j", Profile: &profile, Remote: remote})
	for _, stmt := range append([]string{"CREATE SERVER s FOREIGN DATA WRAPPER xdb OPTIONS (host 'h', port '1')"}, ddl...) {
		if err := e.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return e
}

// waitGoroutines waits until the goroutine count is back to n: a
// statement's goroutines have all sent their last value by the time it
// returns, but may still be exiting.
func waitGoroutines(t *testing.T, what string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines outlive the statement", what, runtime.NumGoroutine()-n)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// onV pairs rows with equal v values, the one join condition used below.
func onV(l, r sqltypes.Row) bool { return sqlEq(l[colV], r[colV]) }

// TestJoinOpensInputsTogether: the inputs of a join, and of every join
// down a left-deep tree, are opened at once. Each remote relation takes d
// to open, so one after the other a two-way join takes 2d and a three-way
// join 3d; together both take about d.
func TestJoinOpensInputsTogether(t *testing.T) {
	const d = 150 * time.Millisecond
	ra, rb, rc := boundaryRows(3000, 0), boundaryRows(500, 1), boundaryRows(200, 2)
	remote := &stagedRemote{rels: map[string]*stagedRel{
		"ra": {rows: ra, openDelay: d},
		"rb": {rows: rb, openDelay: d},
		"rc": {rows: rc, openDelay: d},
	}}
	e := stagedEngine(t, Profiles(VendorTest), remote,
		foreignDDL("fa", "ra", 3000, false), foreignDDL("fb", "rb", 500, false), foreignDDL("fc", "rc", 200, false))

	vv := func(l, r sqltypes.Row) sqltypes.Row { return sqltypes.Row{l[colV], r[colV]} }
	for _, c := range []struct {
		sql  string
		want []sqltypes.Row
	}{
		{"SELECT fa.v, fb.v FROM fa, fb WHERE fa.v = fb.v", refJoin(ra, rb, onV, vv)},
		{"SELECT fa.v, fc.v FROM fa, fb, fc WHERE fa.v = fb.v AND fb.v = fc.v",
			refJoin(refJoin(ra, rb, onV, func(l, _ sqltypes.Row) sqltypes.Row { return l }), rc, onV, vv)},
	} {
		begin := time.Now()
		res, err := e.QueryAll(c.sql)
		took := time.Since(begin)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		expectBag(t, c.sql, res.Rows, c.want)
		if took >= 3*d/2 {
			t.Errorf("%s took %v; its inputs, each %v to open, were not opened together", c.sql, took, d)
		}
	}
	checkClosedOnce(t, "overlap", remote.rels)
}

// TestStatementModelsOneCPU: one statement's operators share one modelled
// CPU, so its two throttled local build sides, drained on two goroutines,
// still take the sum of their modelled time; two statements are two
// backends and overlap.
func TestStatementModelsOneCPU(t *testing.T) {
	const rows, scanNs = 10 * sqltypes.BatchRows, 4000
	perTable := time.Duration(rows * scanNs) // modelled scan time of one build side
	remote := &stagedRemote{rels: map[string]*stagedRel{"rp": {rows: boundaryRows(100, 0)}}}
	profile := Profiles(VendorTest)
	profile.ScanNsPerRow = scanNs
	// The foreign probe side declares many rows, so both local tables are
	// build sides.
	e := stagedEngine(t, profile, remote, foreignDDL("fp", "rp", 1_000_000, false))
	for _, name := range []string{"b1", "b2"} {
		if err := e.LoadTable(name, boundarySchema, boundaryRows(rows, 0)); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT fp.v FROM fp, b1, b2 WHERE fp.v = b1.v AND fp.v = b2.v"
	info, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(info.Text, "HashJoin") != 2 {
		t.Fatalf("want two hash joins:\n%s", info.Text)
	}

	begin := time.Now()
	res, err := e.QueryAll(sql)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took < 2*perTable {
		t.Errorf("one statement took %v for %v of modelled scan work: its operators modelled more than one CPU", took, 2*perTable)
	}
	if len(res.Rows) != 100 {
		t.Errorf("%d rows, want 100", len(res.Rows))
	}

	begin = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.QueryAll(sql); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if took := time.Since(begin); took >= 4*perTable {
		t.Errorf("two statements took %v for 2 x %v of modelled work: they did not overlap", took, 2*perTable)
	}
}

// TestJoinOpenFailuresCloseEverything: whichever input fails, and
// whenever, the statement closes each remote stream it opened exactly
// once, and none of its goroutines outlives it.
func TestJoinOpenFailuresCloseEverything(t *testing.T) {
	probeRows, buildRows := boundaryRows(2500, 0), boundaryRows(1500, 1)
	// fp declares more rows than fb, so fp is the probe side.
	const sql = "SELECT fp.v, fb.v FROM fp, fb WHERE fp.v = fb.v"
	type side struct {
		openDelay time.Duration
		openErr   error
		failAfter int
	}
	slow := side{openDelay: 20 * time.Millisecond} // the probe side is read ahead meanwhile
	for _, c := range []struct {
		name         string
		probe, build side
		want         error // nil: the join opens, reads one batch and is closed
	}{
		{name: "build fails to open", build: side{openErr: errOpen}, want: errOpen},
		{name: "build fails mid-stream", build: side{failAfter: 1}, want: errStream},
		{name: "probe fails to open", probe: side{openErr: errOpen}, build: slow, want: errOpen},
		{name: "probe fails reading ahead", probe: side{failAfter: 1}, build: slow, want: errStream},
		{name: "close before drain", build: slow},
	} {
		t.Run(c.name, func(t *testing.T) {
			rel := func(s side, rows []sqltypes.Row) *stagedRel {
				return &stagedRel{rows: rows, openDelay: s.openDelay, openErr: s.openErr, failAfter: s.failAfter}
			}
			rels := map[string]*stagedRel{"rp": rel(c.probe, probeRows), "rb": rel(c.build, buildRows)}
			e := stagedEngine(t, Profiles(VendorTest), &stagedRemote{rels: rels},
				foreignDDL("fp", "rp", 100_000, false), foreignDDL("fb", "rb", 10, false))
			before := runtime.NumGoroutine()

			_, it, err := e.Query(sql)
			if c.want != nil {
				if !errors.Is(err, c.want) {
					t.Fatalf("open: %v, want %v", err, c.want)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if _, err := it.Next(); err != nil {
					t.Fatal(err)
				}
				it.Close()
			}
			checkClosedOnce(t, c.name, rels)
			waitGoroutines(t, c.name, before)
		})
	}
}

// TestSelfJoinMaterializedFetchedOnce: both inputs of a self-join of a
// materialized foreign table open at once; the table is still fetched
// once, and both sides scan the same rows.
func TestSelfJoinMaterializedFetchedOnce(t *testing.T) {
	rows := boundaryRows(2500, 0)
	rel := &stagedRel{rows: rows, openDelay: 20 * time.Millisecond}
	e := stagedEngine(t, Profiles(VendorTest), &stagedRemote{rels: map[string]*stagedRel{"r": rel}},
		foreignDDL("fm", "r", 2500, true))
	want := refJoin(rows, rows, func(l, r sqltypes.Row) bool { return l[colV].I() == r[colV].I() },
		func(l, r sqltypes.Row) sqltypes.Row { return sqltypes.Row{l[colV], l[colS], r[colS]} })
	for run := 0; run < 2; run++ {
		res, err := e.QueryAll("SELECT a.v, a.s, b.s FROM fm a, fm b WHERE a.v = b.v")
		if err != nil {
			t.Fatal(err)
		}
		expectBag(t, fmt.Sprint("self-join, run ", run), res.Rows, want)
	}
	if n := rel.opens.Load(); n != 1 {
		t.Errorf("materialized foreign table fetched %d times, want once", n)
	}
	checkClosedOnce(t, "self-join", map[string]*stagedRel{"r": rel})
}
