package engine

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"xdb/internal/sqltypes"
)

// BatchIter is the pull interface every operator implements: one call
// moves up to sqltypes.BatchRows rows. Next returns a non-empty batch, or
// io.EOF after the last one. The batch is the producer's: it and the rows
// it carries are valid until the following Next or Close, and until then
// the caller may read them and truncate batch.Rows, never write into it;
// rows kept longer go through Batch.AppendOwned. Iterators are single-use
// and not safe for concurrent use; Close releases any resources (remote
// connections for foreign scans, batches back to the statement's spares)
// and must be called exactly once.
type BatchIter interface {
	Next() (*sqltypes.Batch, error)
	Close() error
}

// Drain consumes an iterator into a slice of rows it owns and closes it.
func Drain(it BatchIter) ([]sqltypes.Row, error) {
	defer it.Close()
	var out []sqltypes.Row
	for {
		b, err := it.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = b.AppendOwned(out)
	}
}

// scanIter emits a run of rows without copying them: stored rows (a base
// table, a materialized foreign table) under the vendor CPU throttle, or
// rows an operator materialized and owns (a sort, an aggregate, a constant
// SELECT) with a nil one. Each batch aliases the next run of the slice, so
// no row, not even its header, is copied; the batch's Rows array is not
// its own, so it is never handed back to the statement's spares.
type scanIter struct {
	rows     []sqltypes.Row
	throttle *cpuThrottle
	batch    sqltypes.Batch
}

func (s *scanIter) Next() (*sqltypes.Batch, error) {
	if len(s.rows) == 0 {
		s.throttle.flush()
		return nil, io.EOF
	}
	n := min(len(s.rows), sqltypes.BatchRows)
	s.batch.Rows, s.rows = s.rows[:n:n], s.rows[n:]
	s.throttle.charge(int64(n))
	return &s.batch, nil
}

func (s *scanIter) Close() error { return nil }

// filterIter hands on the rows of each input batch that satisfy the
// predicate, in a batch of its own that views them (Batch.View).
type filterIter struct {
	in     BatchIter
	pred   compiledPred
	spares *sqltypes.Spares
	out    sqltypes.Batch
}

func (f *filterIter) Next() (*sqltypes.Batch, error) {
	for {
		b, err := f.in.Next()
		if err != nil {
			return nil, err
		}
		f.spares.Refill(&f.out, len(b.Rows), 0)
		f.out.View(b, nil)
		for _, r := range b.Rows {
			ok, err := f.pred(r)
			if err != nil {
				return nil, err
			}
			if ok {
				f.out.Rows = append(f.out.Rows, r)
			}
		}
		if len(f.out.Rows) > 0 {
			return &f.out, nil
		}
	}
}

func (f *filterIter) Close() error {
	f.spares.Put(&f.out)
	return f.in.Close()
}

// projectIter evaluates the output expressions over each input batch into
// rows of its own slab. cols is set when every expression is a bare
// column, which turns evaluation into a gather.
type projectIter struct {
	in     BatchIter
	exprs  []compiledExpr
	cols   []int
	spares *sqltypes.Spares
	out    sqltypes.Batch
}

func (p *projectIter) Next() (*sqltypes.Batch, error) {
	b, err := p.in.Next()
	if err != nil {
		return nil, err
	}
	p.spares.Refill(&p.out, len(b.Rows), len(b.Rows)*len(p.exprs))
	for _, r := range b.Rows {
		o := p.out.NewRow(len(p.exprs))
		if p.cols != nil {
			for i, c := range p.cols {
				o[i] = r[c]
			}
			continue
		}
		for i, e := range p.exprs {
			if o[i], err = e(r); err != nil {
				return nil, err
			}
		}
	}
	return &p.out, nil
}

func (p *projectIter) Close() error {
	p.spares.Put(&p.out)
	return p.in.Close()
}

// joinOutput is what a join does with a candidate pair of rows: evaluate
// the residual on probe||build, and emit the columns the plan above reads
// — probeCols of the probe row, then buildCols of the build row.
type joinOutput struct {
	residual  compiledPred // nil when there is none
	probeCols []int
	buildCols []int
	scratch   sqltypes.Row // probe||build, reused; kept current only for a residual
	out       sqltypes.Batch
}

// expect takes the first output batch from the spares, sized for the
// planner's row estimate, so that a join that fills its batches does not
// grow there by doubling.
func (o *joinOutput) expect(est float64, spares *sqltypes.Spares) {
	n := int(min(est, sqltypes.BatchRows))
	o.out = spares.Get(n, n*(len(o.probeCols)+len(o.buildCols)))
}

// setProbe loads the probe row of the pairs to come.
func (o *joinOutput) setProbe(p sqltypes.Row) {
	if o.residual != nil {
		o.scratch = append(o.scratch[:0], p...)
	}
}

// emit appends the pair's output row if the residual accepts the pair.
func (o *joinOutput) emit(p, b sqltypes.Row) error {
	if o.residual != nil {
		o.scratch = append(o.scratch[:len(p)], b...)
		ok, err := o.residual(o.scratch)
		if err != nil || !ok {
			return err
		}
	}
	row := o.out.NewRow(len(o.probeCols) + len(o.buildCols))
	for i, c := range o.probeCols {
		row[i] = p[c]
	}
	row = row[len(o.probeCols):]
	for i, c := range o.buildCols {
		row[i] = b[c]
	}
	return nil
}

func (o *joinOutput) full() bool { return len(o.out.Rows) >= sqltypes.BatchRows }

// joinTable is the build side of a join: the rows, chained per bucket in
// arrival order (so matches come out in the order they went in). Indexes
// are 1-based; 0 ends a chain. Without keys every row hashes alike and the
// one chain is the whole input: a nested loop. A table is immutable once
// built: every worker of a morsel exchange probes the same one.
//
// The rows are kept in chunks of BatchRows, so that a table never grows by
// copying: row i is chunks[i/BatchRows][i%BatchRows]. Only the first chunk
// starts smaller, at the planner's estimate, and grows up to BatchRows.
type joinTable struct {
	chunks [][]sqltypes.Row
	n      int // rows
	keys   []int
	heads  []int32
	next   []int32
	shift  uint
	// Key columns holding only Int and Date values are looked up by their
	// int64 payloads, len(keys) per row in ints; anything else by HashRow
	// and RowsEqualOn, which keep int 3 = float 3.0.
	intKeyed bool
	ints     []int64
	hashes   []uint64
}

// intFamily reports whether the value compares by its I payload.
func intFamily(v sqltypes.Value) bool {
	return v.T == sqltypes.TypeInt || v.T == sqltypes.TypeDate
}

// hasNull reports whether any key column of the row is NULL. SQL equality
// never holds for NULL, so such rows join nothing.
func hasNull(r sqltypes.Row, keys []int) bool {
	for _, k := range keys {
		if r[k].IsNull() {
			return true
		}
	}
	return false
}

// newJoinTable consumes the build input, whose planned size is est, into
// chunks taken from the spares. Hashing a row is a unit of work; merely
// storing it for a nested loop is not.
func newJoinTable(build BatchIter, keys []int, throttle *cpuThrottle, est float64, spares *sqltypes.Spares) (*joinTable, error) {
	defer build.Close()
	t := &joinTable{keys: keys, intKeyed: len(keys) > 0}
	if t.intKeyed {
		t.ints = make([]int64, 0, int(min(max(est, 1), sqltypes.BatchRows))*len(keys))
	}
	var own sqltypes.Batch // the rows of the batch at hand, owned
	defer spares.Put(&own)
	for {
		b, err := build.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(keys) > 0 {
			throttle.charge(int64(len(b.Rows)))
		}
		spares.Refill(&own, len(b.Rows), 0)
		own.Rows = b.AppendOwned(own.Rows)
		for _, r := range own.Rows {
			if hasNull(r, keys) {
				continue
			}
			if t.intKeyed {
				t.addInts(r)
			}
			t.add(r, est, spares)
		}
	}
	t.index()
	return t, nil
}

// addInts appends the int64 payloads of the row's keys to ints, read while
// the row is at hand; at the first key that is not an int or a date the
// table is keyed by HashRow instead and ints is dropped.
func (t *joinTable) addInts(r sqltypes.Row) {
	for _, k := range t.keys {
		v := &r[k]
		if !intFamily(*v) {
			t.intKeyed, t.ints = false, nil
			return
		}
		t.ints = append(t.ints, v.I())
	}
}

// add appends an owned row to the chunks.
func (t *joinTable) add(r sqltypes.Row, est float64, spares *sqltypes.Spares) {
	if t.n%sqltypes.BatchRows == 0 {
		room := sqltypes.BatchRows
		if t.n == 0 {
			room = int(min(max(est, 1), sqltypes.BatchRows))
		}
		t.chunks = append(t.chunks, spares.Get(room, 0).Rows)
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, r)
	t.n++
}

// row returns row i, counted from 0.
func (t *joinTable) row(i int32) sqltypes.Row {
	return t.chunks[uint32(i)/sqltypes.BatchRows][uint32(i)%sqltypes.BatchRows]
}

// index builds the buckets.
func (t *joinTable) index() {
	n, k := t.n, len(t.keys)
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	t.shift = 64 - bits
	t.heads = make([]int32, 1<<bits)
	t.next = make([]int32, n)
	if !t.intKeyed {
		t.hashes = make([]uint64, n)
	}
	for i := n - 1; i >= 0; i-- {
		var h uint64
		if t.intKeyed {
			for _, key := range t.ints[i*k : (i+1)*k] {
				h = hashInt(h, key)
			}
		} else {
			h = sqltypes.HashRow(t.row(int32(i)), t.keys)
			t.hashes[i] = h
		}
		t.next[i] = t.heads[h>>t.shift]
		t.heads[h>>t.shift] = int32(i + 1)
	}
}

// hashInt folds the next int64 of a key list into its hash h, which starts
// at 0: one multiply per key spreads the list over the table (the buckets
// are picked from the top bits).
func hashInt(h uint64, k int64) uint64 {
	return (bits.RotateLeft64(h, 31) ^ uint64(k)) * 0x9e3779b97f4a7c15
}

// joinIter joins a streamed probe input with a build input consumed into a
// joinTable on open: an equi hash join, or with no keys a nested loop over
// the materialized build side with the condition left to the residual.
// Streaming the probe side is what makes implicit (pipelined) data
// movement between DBMSes effective: a foreign scan on the probe side never
// materializes.
//
// openJoin starts both inputs together. The build input is opened and
// drained on a goroutine of its own; meanwhile the probe input is opened
// and, until the table is ready, read ahead into owned batches. Down a
// left-deep tree this starts every build side of a statement, and the head
// of its probe pipeline, at once: a task waits for its slowest input, not
// for the sum of them.
type joinIter struct {
	probe     BatchIter
	table     *joinTable
	probeKeys []int
	joinOutput
	throttle *cpuThrottle
	spares   *sqltypes.Spares
	perProbe int64 // work per probe row: one lookup, or one pairing per build row

	in  *sqltypes.Batch // current probe batch
	pos int             // next row of in to look at
	// What lookup found for each row of in, in arrays the iterator keeps
	// for all its batches.
	head []int32     // first candidate of the row's chain, 0 for none
	hash []uint64    // hash of its key
	rule []probeRule // how its candidates are matched
	x    int         // row of in whose chain is being walked
	m    int32       // next candidate of that chain
	done bool
}

// probeRule is how the candidates of a probe row are matched.
type probeRule uint8

const (
	exact probeRule = iota // by the int64 payloads, or HashRow and RowsEqualOn
	// A float probe key: the int of its value finds the candidates and
	// Equal decides (a float never equals a date); beyond 2^53, where
	// several ints round to the same float, every build row is a candidate
	// (scanAll).
	verify
	scanAll
	// A NULL key, or one no int or date equals. Such a row has no
	// candidates at all: walked, a NULL's chain would meet Equal, under
	// which NULL equals NULL (the grouping rule), not SQL's =.
	noMatch
)

// pullAheadBatches bounds the probe batches a join reads ahead while its
// table is being built. Past it the join waits and its probe producer
// feels back pressure, as before the build was concurrent. The bound is
// measured, not derived (EXPERIMENTS.md "Opening a join's inputs
// together"): on the benchmark's cold-lan workload a bound of 0, 4, 16 and
// 64 batches cut Q8's median latency by 22, 25, 27 and 31 % and Q3's by 0,
// 0, 3 and 14 %, while each batch read ahead is one more owned copy that
// plan-raw, with nothing to wait for, pays in CPU (+2, +5 and +10 % per
// query at 0, 4 and 64).
const pullAheadBatches = 64

// joinSpec is a join as planned: how to open its build input, the key
// columns of each side, what it emits, its row estimate and its build
// side's, and the vendor's rate.
type joinSpec struct {
	build                opener
	probeKeys, buildKeys []int
	out                  joinOutput
	est, buildEst        float64
	nsPerRow             int64
}

// built is a join's build side once drained: the table, or why there is
// none, and the throttle whose pending work carries over to the probe.
type built struct {
	table    *joinTable
	throttle *cpuThrottle
	err      error
}

// drainBuild opens the build input and drains it into the table.
func (s *joinSpec) drainBuild(st *statement) built {
	r := built{throttle: st.throttle(s.nsPerRow)}
	b, err := s.build(st)
	if err == nil {
		r.table, err = newJoinTable(b, s.buildKeys, r.throttle, s.buildEst, &st.spares)
	}
	r.err = err
	return r
}

// newIter probes the table with the rows of probe, charging throttle, and
// emits into batches of the statement's spares, the first sized for est
// rows.
func (s *joinSpec) newIter(probe BatchIter, t *joinTable, throttle *cpuThrottle, spares *sqltypes.Spares, est float64) *joinIter {
	j := &joinIter{probe: probe, table: t, probeKeys: s.probeKeys, joinOutput: s.out, throttle: throttle, spares: spares, perProbe: 1}
	j.expect(est, spares)
	if len(s.buildKeys) == 0 {
		j.perProbe = int64(t.n)
	}
	return j
}

// openJoin opens a join's two inputs together (see joinIter). The build
// goroutine never outlives openJoin: every path waits for it. On an error
// the other side is closed before openJoin returns; a table built for a
// failed probe side is discarded (its input is closed once drained).
func openJoin(probeOpen opener, s *joinSpec, st *statement) (*joinIter, error) {
	ready := make(chan built, 1)
	go func() { ready <- s.drainBuild(st) }()
	probe, err := probeOpen(st)
	if err != nil {
		<-ready
		return nil, err
	}
	// Read ahead while the table is not ready: len(ready) is 1 once the
	// build goroutine has sent. The row headers go to spare batches.
	ahead := &aheadIter{in: probe, spares: &st.spares}
	for n := 0; n < pullAheadBatches && !ahead.eof && len(ready) == 0; n++ {
		b, err := probe.Next()
		switch {
		case err == io.EOF:
			ahead.eof = true
		case err != nil:
			<-ready
			probe.Close()
			return nil, err
		default:
			ahead.batches = append(ahead.batches, owned(b, &st.spares))
		}
	}
	r := <-ready
	if r.err != nil {
		probe.Close()
		return nil, r.err
	}
	return s.newIter(ahead, r.table, r.throttle, &st.spares, s.est), nil
}

// owned returns the batch's rows in a spare batch of their own: the row
// headers copied, the values kept (AppendOwned).
func owned(b *sqltypes.Batch, spares *sqltypes.Spares) sqltypes.Batch {
	spare := spares.Get(len(b.Rows), 0)
	spare.Rows = b.AppendOwned(spare.Rows)
	return spare
}

// aheadIter is a join's probe input: the batches read ahead, as the probe
// produced them, then the rest of the stream (none when eof). It owns the
// batches read ahead and hands each back to the spares once its consumer
// has moved on from it.
type aheadIter struct {
	batches []sqltypes.Batch
	batch   sqltypes.Batch // the one handed on last
	spares  *sqltypes.Spares
	in      BatchIter
	eof     bool // in has returned io.EOF
}

func (a *aheadIter) Next() (*sqltypes.Batch, error) {
	a.spares.Put(&a.batch)
	if len(a.batches) > 0 {
		a.batch, a.batches[0] = a.batches[0], sqltypes.Batch{}
		a.batches = a.batches[1:]
		return &a.batch, nil
	}
	if a.eof {
		return nil, io.EOF
	}
	return a.in.Next()
}

func (a *aheadIter) Close() error { return a.in.Close() }

// fit returns s with length n, on a new array only when its own is too
// small.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lookup finds the first candidate of every row of a probe batch in one
// pass, a key column at a time: a loop whose iterations do not wait on
// each other, so the cache misses of reading the rows overlap instead of
// each stalling a chain walk. A row with a NULL key gets no candidate: SQL
// equality never holds for NULL. An int-keyed table is looked up by the
// int64 payloads, hashed as the table hashed them; a float key takes the
// int of its value under a rule that checks each candidate (int 3 = float
// 3.0), and a fraction, NaN, a string or a bool finds nothing. A general
// table is looked up by HashRow.
func (j *joinIter) lookup(rows []sqltypes.Row) {
	t, n := j.table, len(rows)
	j.head, j.hash, j.rule = fit(j.head, n), fit(j.hash, n), fit(j.rule, n)
	clear(j.hash)
	clear(j.rule)
	for _, c := range j.probeKeys {
		if !t.intKeyed {
			for x, r := range rows {
				if r[c].T == sqltypes.TypeNull {
					j.rule[x] = noMatch
				}
			}
			continue
		}
		for x, r := range rows {
			v := &r[c]
			key := v.I()
			switch v.T {
			case sqltypes.TypeFloat:
				key = j.floatKey(x, v.F)
			case sqltypes.TypeNull, sqltypes.TypeString, sqltypes.TypeBool:
				j.rule[x] = noMatch
			}
			j.hash[x] = hashInt(j.hash[x], key)
		}
	}
	for x, rule := range j.rule {
		switch rule {
		case noMatch:
			j.head[x] = 0
		case scanAll:
			j.head[x] = int32(min(t.n, 1))
		default:
			if !t.intKeyed {
				j.hash[x] = sqltypes.HashRow(rows[x], j.probeKeys)
			}
			j.head[x] = t.heads[j.hash[x]>>t.shift]
		}
	}
}

// floatKey returns the int a float key of row x finds, and sets the row's
// rule to check each candidate.
func (j *joinIter) floatKey(x int, f float64) int64 {
	switch {
	case f != math.Trunc(f): // a fraction or NaN
		j.rule[x] = noMatch
	case math.Abs(f) >= 1<<53:
		j.rule[x] = max(j.rule[x], scanAll)
	default:
		j.rule[x] = max(j.rule[x], verify)
	}
	return int64(f)
}

// matches reports whether build row i pairs with the probe row whose
// chain is being walked.
func (j *joinIter) matches(i int32) bool {
	t, p := j.table, j.in.Rows[j.x]
	switch {
	case !t.intKeyed:
		return t.hashes[i] == j.hash[j.x] && sqltypes.RowsEqualOn(p, j.probeKeys, t.row(i), t.keys)
	case j.rule[j.x] != exact:
		return sqltypes.RowsEqualOn(p, j.probeKeys, t.row(i), t.keys)
	}
	k := len(j.probeKeys)
	for y, v := range t.ints[int(i)*k : int(i+1)*k] {
		if v != p[j.probeKeys[y]].I() {
			return false
		}
	}
	return true
}

func (j *joinIter) Next() (*sqltypes.Batch, error) {
	t := j.table
	j.out.Reset()
	for !j.done {
		for j.m != 0 {
			i := j.m - 1
			if j.rule[j.x] == scanAll {
				j.m = (j.m + 1) % int32(t.n+1)
			} else {
				j.m = t.next[i]
			}
			if !j.matches(i) {
				continue
			}
			if err := j.emit(j.in.Rows[j.x], t.row(i)); err != nil {
				return nil, err
			}
			if j.full() {
				return &j.out, nil
			}
		}
		// Step over the rows whose bucket is empty.
		for j.pos < len(j.head) && j.head[j.pos] == 0 {
			j.pos++
		}
		if j.pos == len(j.head) {
			b, err := j.probe.Next()
			if err == io.EOF {
				j.throttle.flush()
				j.done = true
				break
			}
			if err != nil {
				return nil, err
			}
			j.throttle.charge(int64(len(b.Rows)) * j.perProbe)
			j.in, j.pos = b, 0
			j.lookup(b.Rows)
			continue
		}
		j.x, j.m = j.pos, j.head[j.pos]
		j.pos++
		j.setProbe(j.in.Rows[j.x])
	}
	if len(j.out.Rows) == 0 {
		return nil, io.EOF
	}
	return &j.out, nil
}

func (j *joinIter) Close() error {
	j.spares.Put(&j.out)
	return j.probe.Close()
}

// aggSpec describes one aggregate to compute.
type aggSpec struct {
	fn       string       // COUNT, SUM, AVG, MIN, MAX
	arg      compiledExpr // nil for COUNT(*)
	distinct bool
}

// aggState accumulates one aggregate within one group.
type aggState struct {
	count int64
	sum   float64
	sumI  int64
	isInt bool
	min   sqltypes.Value
	max   sqltypes.Value
	seen  *rowSet // for DISTINCT
	any   bool
}

func (a *aggState) add(spec *aggSpec, v sqltypes.Value) error {
	if spec.arg != nil && v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	if spec.distinct {
		if a.seen == nil {
			a.seen = newRowSet(1)
		}
		if _, added := a.seen.find(sqltypes.Row{v}); !added {
			return nil
		}
	}
	a.count++
	switch spec.fn {
	case "SUM", "AVG":
		if v.T == sqltypes.TypeString {
			// A string is no number (its payload is its length), as in PostgreSQL.
			return fmt.Errorf("engine: cannot compute %s of %v", spec.fn, v.T)
		}
		if !a.any {
			a.isInt = v.T == sqltypes.TypeInt
		}
		if v.T != sqltypes.TypeInt {
			a.isInt = false
		}
		a.sum += v.Float()
		a.sumI += v.Int()
	case "MIN":
		if !a.any {
			a.min = v
		} else if c, err := sqltypes.Compare(v, a.min); err == nil && c < 0 {
			a.min = v
		}
	case "MAX":
		if !a.any {
			a.max = v
		} else if c, err := sqltypes.Compare(v, a.max); err == nil && c > 0 {
			a.max = v
		}
	}
	a.any = true
	return nil
}

func (a *aggState) result(spec *aggSpec) sqltypes.Value {
	switch spec.fn {
	case "COUNT":
		return sqltypes.NewInt(a.count)
	case "SUM":
		if !a.any {
			return sqltypes.Null
		}
		if a.isInt {
			return sqltypes.NewInt(a.sumI)
		}
		return sqltypes.NewFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return sqltypes.Null
		}
		return sqltypes.NewFloat(a.sum / float64(a.count))
	case "MIN":
		if !a.any {
			return sqltypes.Null
		}
		return a.min
	case "MAX":
		if !a.any {
			return sqltypes.Null
		}
		return a.max
	}
	return sqltypes.Null
}

// rowSet finds or adds rows by value: a hash index over rows cloned into
// its own slab, in first-appearance order. Two rows are the same when
// their values are pairwise sqltypes.Equal (NULL is NULL, 1 is 1.0, -0 is
// 0, NaN is NaN): the one rule of DISTINCT, GROUP BY, COUNT(DISTINCT) and
// the statistics' distinct counts.
type rowSet struct {
	index map[uint64]int32 // row hash -> 1-based first row of its chain
	next  []int32
	store sqltypes.Batch // Rows are the distinct rows
	all   []int          // 0..width-1, for HashRow
}

func newRowSet(width int) *rowSet {
	s := &rowSet{index: make(map[uint64]int32), all: make([]int, width)}
	for i := range s.all {
		s.all[i] = i
	}
	return s
}

// find returns the position of r among the distinct rows, adding a clone
// of it (and reporting true) when it is new.
func (s *rowSet) find(r sqltypes.Row) (int, bool) {
	h := sqltypes.HashRow(r, s.all)
	head := s.index[h]
	for i := head; i != 0; i = s.next[i-1] {
		if sqltypes.RowsEqualOn(s.store.Rows[i-1], s.all, r, s.all) {
			return int(i - 1), false
		}
	}
	copy(s.store.NewRow(len(r)), r)
	s.next = append(s.next, head)
	s.index[h] = int32(len(s.next))
	return len(s.next) - 1, true
}

// hashAggregate fully consumes the input and emits one row per group, in
// order of first appearance: [group key values..., aggregate results...].
// With no group keys it emits exactly one row (global aggregation).
func hashAggregate(in BatchIter, keys []compiledExpr, aggs []aggSpec, throttle *cpuThrottle) (BatchIter, error) {
	defer in.Close()
	groups := newRowSet(len(keys))
	var states []aggState // len(aggs) per group, in group order
	key := make(sqltypes.Row, len(keys))
	group := func() int { // key's group, added if new
		g, added := groups.find(key)
		if added {
			for range aggs {
				states = append(states, aggState{})
			}
		}
		return g
	}
	if len(keys) == 0 {
		group() // a global aggregate is one group, even over no input
	}

	for {
		b, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		throttle.charge(int64(len(b.Rows)))
		for _, r := range b.Rows {
			g := 0
			if len(keys) > 0 {
				for i, k := range keys {
					if key[i], err = k(r); err != nil {
						return nil, err
					}
				}
				g = group()
			}
			for i := range aggs {
				var v sqltypes.Value
				if aggs[i].arg != nil {
					if v, err = aggs[i].arg(r); err != nil {
						return nil, err
					}
				}
				if err := states[g*len(aggs)+i].add(&aggs[i], v); err != nil {
					return nil, err
				}
			}
		}
	}
	throttle.flush()

	var out sqltypes.Batch
	out.Grow(len(groups.store.Rows) * (len(keys) + len(aggs)))
	for g, k := range groups.store.Rows {
		row := out.NewRow(len(keys) + len(aggs))
		copy(row, k)
		for i := range aggs {
			row[len(keys)+i] = states[g*len(aggs)+i].result(&aggs[i])
		}
	}
	return &scanIter{rows: out.Rows}, nil
}

// sortKey is one compiled ORDER BY key.
type sortKey struct {
	fn   compiledExpr
	desc bool
}

// compareKeys orders two rows' evaluated sort keys: negative when a sorts
// first, positive when b does, 0 on a tie.
func compareKeys(keys []sortKey, a, b sqltypes.Row) (int, error) {
	for x := range keys {
		c, err := sqltypes.Compare(a[x], b[x])
		if err != nil {
			return 0, err
		}
		if c == 0 {
			continue
		}
		if keys[x].desc {
			return -c, nil
		}
		return c, nil
	}
	return 0, nil
}

// evalKeys evaluates the sort keys of r into kv.
func evalKeys(keys []sortKey, r, kv sqltypes.Row) error {
	for j, k := range keys {
		var err error
		if kv[j], err = k.fn(r); err != nil {
			return err
		}
	}
	return nil
}

// sortRows materializes and sorts the input by the given keys. Draining
// closes the input before anything else can fail. With limit >= 0 only the
// first limit rows are kept (topN).
func sortRows(in BatchIter, keys []sortKey, limit int64) (BatchIter, error) {
	if limit >= 0 {
		return topN(in, keys, limit)
	}
	rows, err := Drain(in)
	if err != nil {
		return nil, err
	}
	type keyed struct {
		row  sqltypes.Row
		keys sqltypes.Row
	}
	ks := make([]keyed, len(rows))
	slab := make(sqltypes.Row, len(rows)*len(keys))
	for i, r := range rows {
		kv := slab[i*len(keys) : (i+1)*len(keys)]
		if err := evalKeys(keys, r, kv); err != nil {
			return nil, err
		}
		ks[i] = keyed{row: r, keys: kv}
	}
	var sortErr error
	sort.SliceStable(ks, func(i, j int) bool {
		c, err := compareKeys(keys, ks[i].keys, ks[j].keys)
		if err != nil {
			sortErr = err
		}
		return c < 0
	})
	if sortErr != nil {
		return nil, sortErr
	}
	for i := range ks {
		rows[i] = ks[i].row
	}
	return &scanIter{rows: rows}, nil
}

// topN is ORDER BY … LIMIT n: the first n rows of the stable sort. It
// streams the input through a bounded heap whose root is the worst row
// kept, ordered by (keys, arrival); a later row displaces it only with
// strictly smaller keys, so ties keep their input order as the stable sort
// does. A row that gets in is copied into storage of the heap's own, which
// the row it displaces hands on.
func topN(in BatchIter, keys []sortKey, n int64) (BatchIter, error) {
	defer in.Close()
	type entry struct {
		row, keys sqltypes.Row
		seq       int // arrival
	}
	var (
		heap  []entry // heap[0] sorts last
		store sqltypes.Batch
		kv    = make(sqltypes.Row, len(keys))
		seq   int
		err   error
	)
	// after reports whether heap[a] sorts after heap[b].
	after := func(a, b int) bool {
		c, cerr := compareKeys(keys, heap[a].keys, heap[b].keys)
		if cerr != nil {
			err = cerr
		}
		return c > 0 || c == 0 && heap[a].seq > heap[b].seq
	}
	down := func(i int) {
		for {
			w := i
			for _, c := range []int{2*i + 1, 2*i + 2} {
				if c < len(heap) && after(c, w) {
					w = c
				}
			}
			if w == i {
				return
			}
			heap[i], heap[w] = heap[w], heap[i]
			i = w
		}
	}
	for err == nil {
		b, nerr := in.Next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			return nil, nerr
		}
		for _, r := range b.Rows {
			if err = evalKeys(keys, r, kv); err != nil {
				return nil, err
			}
			seq++
			if int64(len(heap)) < n {
				e := entry{row: store.NewRow(len(r)), keys: store.NewRow(len(kv)), seq: seq}
				copy(e.row, r)
				copy(e.keys, kv)
				heap = append(heap, e)
				for i := len(heap) - 1; i > 0 && after(i, (i-1)/2); i = (i - 1) / 2 {
					heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
				}
				continue
			}
			if n == 0 {
				continue
			}
			c, cerr := compareKeys(keys, kv, heap[0].keys)
			if cerr != nil {
				return nil, cerr
			}
			if c < 0 {
				copy(heap[0].row, r)
				copy(heap[0].keys, kv)
				heap[0].seq = seq
				down(0)
			}
		}
	}
	rows := make([]sqltypes.Row, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		rows[i] = heap[0].row
		heap[0], heap[i] = heap[i], heap[0]
		heap = heap[:i]
		down(0)
	}
	if err != nil {
		return nil, err
	}
	return &scanIter{rows: rows}, nil
}

// limitIter stops after n rows.
type limitIter struct {
	in   BatchIter
	left int64
}

func (l *limitIter) Next() (*sqltypes.Batch, error) {
	if l.left <= 0 {
		return nil, io.EOF
	}
	b, err := l.in.Next()
	if err != nil {
		return nil, err
	}
	if int64(len(b.Rows)) > l.left {
		b.Rows = b.Rows[:l.left]
	}
	l.left -= int64(len(b.Rows))
	return b, nil
}

func (l *limitIter) Close() error { return l.in.Close() }

// distinctIter deduplicates full rows, emitting each row's first
// appearance: the clone its set keeps, which outlives the input batch.
type distinctIter struct {
	in   BatchIter
	seen *rowSet
	out  sqltypes.Batch
}

func (d *distinctIter) Next() (*sqltypes.Batch, error) {
	for {
		b, err := d.in.Next()
		if err != nil {
			return nil, err
		}
		d.out.Rows = d.out.Rows[:0]
		for _, r := range b.Rows {
			if i, added := d.seen.find(r); added {
				d.out.Rows = append(d.out.Rows, d.seen.store.Rows[i])
			}
		}
		if len(d.out.Rows) > 0 {
			return &d.out, nil
		}
	}
}

func (d *distinctIter) Close() error { return d.in.Close() }

// startupIter charges the vendor's startup latency on the first Next call.
type startupIter struct {
	in      BatchIter
	started bool
	delay   func()
}

func (s *startupIter) Next() (*sqltypes.Batch, error) {
	if !s.started {
		s.started = true
		if s.delay != nil {
			s.delay()
		}
	}
	return s.in.Next()
}

func (s *startupIter) Close() error { return s.in.Close() }
