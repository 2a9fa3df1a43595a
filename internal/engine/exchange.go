package engine

import (
	"io"
	"runtime"
	"sync"

	"xdb/internal/sqltypes"
)

// A morsel exchange runs one probe spine (plan.go) on several workers. The
// stored rows are cut into morsels; W workers take them in order from a
// shared counter and run each through their own copies of the spine's
// scanIter, filterIter, projectIter and joinIter, probing join tables that
// are built once per execution. The exchange hands the outputs on in
// morsel order, so its consumer reads the serial row stream: batch for
// batch the same when the spine ends in a filter or a projection, and cut
// into full batches exactly as the serial top join cuts them when it ends
// in a probe.
//
// While a build is pending, workers read morsels ahead as far as the
// stages below its join (at most pullAheadBatches of them, as openJoin
// does) and keep the rows until the table is ready. Every worker charges
// the operator's one throttle (cpuThrottle.share) under the statement's
// token, so the statement still models one CPU; only the real CPU work
// spreads.

// morselRows is the exchange's unit of work, a run of stored rows: one
// scan batch.
const morselRows = sqltypes.BatchRows

// exchangeWorkers is how many workers an exchange runs: one per processor
// the Go scheduler runs on. Tests set it to compare worker counts.
var exchangeWorkers = func() int { return runtime.GOMAXPROCS(0) }

// stageIter is a spine operator that a worker re-points at each morsel.
type stageIter interface {
	BatchIter
	setInput(in BatchIter)
}

func (f *filterIter) setInput(in BatchIter)  { f.in = in }
func (p *projectIter) setInput(in BatchIter) { p.in = in }
func (j *joinIter) setInput(in BatchIter) {
	j.probe, j.in, j.pos, j.m, j.done = in, nil, 0, 0, false
}

// item is a morsel to run from stage level on: its stored rows, or the
// rows it was read ahead to (owned, batch by batch) before a table was
// ready.
type item struct {
	m, level int
	ahead    [][]sqltypes.Row
}

// result is a morsel's output, once ok.
type result struct {
	batches []sqltypes.Batch
	err     error
	ok      bool
}

type exchange struct {
	sp       *spine
	rows     []sqltypes.Row
	n        int  // morsels
	window   int  // morsels the workers may run ahead of the consumer
	coalesce bool // the spine ends in a probe: re-cut into full batches
	scan     *cpuThrottle
	wg       sync.WaitGroup // builds and workers

	mu       sync.Mutex
	cond     *sync.Cond     // on any change below
	tables   []*joinTable   // per stage, once its build is done
	probes   []*cpuThrottle // per join stage, once its build is done
	building int
	buildErr error // of the lowest failed build
	errStage int
	claimed  int      // morsels handed to workers
	stopAt   int      // no morsel from here on is claimed: n, or past one that failed
	running  int      // items being run
	stash    []item   // read ahead, waiting for a table
	results  []result // a ring: morsel m's output at m % len
	head     int      // the morsel the consumer is at
	closing  bool
	free     []sqltypes.Batch

	// The consumer's side.
	cur     *result
	bi, ri  int // next batch of cur, next row of it
	out     sqltypes.Batch
	settled bool
	err     error
}

// openExchange starts a spine's builds and workers and returns once every
// table is built, as openJoin does; a build's error (the lowest join's)
// fails the open. No goroutine outlives the exchange's Close, nor a failed
// open.
func openExchange(sp *spine, workers int, cpu *sync.Mutex) (BatchIter, error) {
	x := &exchange{
		sp:       sp,
		coalesce: sp.probes(),
		tables:   make([]*joinTable, len(sp.stages)),
		probes:   make([]*cpuThrottle, len(sp.stages)),
	}
	x.cond = sync.NewCond(&x.mu)
	for s, st := range sp.stages {
		if st.join != nil {
			x.building++
			x.wg.Add(1)
			go x.build(s, st.join, cpu)
		}
	}
	rows, err := sp.rows()
	if err != nil {
		x.Close()
		return nil, err
	}
	x.rows = rows
	x.n = (len(rows) + morselRows - 1) / morselRows
	x.stopAt = x.n
	workers = max(1, min(workers, x.n/2)) // the rows may be fewer than estimated
	x.window = 4 * workers
	x.results = make([]result, x.window+pullAheadBatches)
	x.scan = (&cpuThrottle{nsPerRow: sp.scanNs, cpu: cpu}).share()
	for range workers {
		x.wg.Add(1)
		go x.work()
	}
	x.mu.Lock()
	for x.building > 0 {
		x.cond.Wait()
	}
	err = x.buildErr
	x.mu.Unlock()
	if err != nil {
		x.Close()
		return nil, err
	}
	return x, nil
}

// build drains stage s's build side into its table.
func (x *exchange) build(s int, spec *joinSpec, cpu *sync.Mutex) {
	defer x.wg.Done()
	r := spec.drainBuild(cpu)
	x.mu.Lock()
	defer x.mu.Unlock()
	x.building--
	x.cond.Broadcast()
	if r.err != nil {
		if x.buildErr == nil || s < x.errStage {
			x.buildErr, x.errStage = r.err, s
		}
		return
	}
	// The build's pending work carries over to the probe, as in openJoin.
	x.tables[s], x.probes[s] = r.table, r.throttle.share()
}

// pipeline is one worker's copy of the spine's operators.
type pipeline struct {
	scan   scanIter
	feed   aheadIter
	carves bool         // the last stage writes its rows into its batch's slab, as a filter does not
	stages []stageIter  // a join's once its table is ready
	tables []*joinTable // the worker's view of x.tables
	free   []sqltypes.Batch
}

// work runs items until none are left or the exchange closes.
func (x *exchange) work() {
	defer x.wg.Done()
	p := &pipeline{stages: make([]stageIter, len(x.sp.stages)), tables: make([]*joinTable, len(x.sp.stages))}
	p.scan.throttle = x.scan
	for s, st := range x.sp.stages {
		if st.join == nil {
			p.stages[s] = st.newIter()
		}
	}
	p.carves = !x.sp.stages[len(x.sp.stages)-1].filters
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		it, ok := x.take(p)
		if !ok {
			return
		}
		x.running++
		x.mu.Unlock()
		level, ahead, batches, err := x.run(p, it)
		x.mu.Lock()
		x.running--
		if len(ahead) > 0 {
			x.stash = append(x.stash, item{m: it.m, level: level, ahead: ahead})
		} else {
			x.results[it.m%len(x.results)] = result{batches: batches, err: err, ok: true}
			if err != nil {
				x.stopAt = min(x.stopAt, it.m+1)
			}
		}
		x.cond.Broadcast()
	}
}

// take picks a worker's next item, under x.mu: a morsel read ahead whose
// table is now ready, else the next morsel if the worker may run that far
// ahead, else it waits. It reports false once nothing is left or the
// exchange closes.
func (x *exchange) take(p *pipeline) (item, bool) {
	for !x.closing {
		copy(p.tables, x.tables)
		for n := len(p.free); n < 8 && len(x.free) > 0; n++ {
			p.free = append(p.free, x.free[len(x.free)-1])
			x.free = x.free[:len(x.free)-1]
		}
		for i, it := range x.stash {
			if x.tables[it.level] != nil {
				x.stash = append(x.stash[:i], x.stash[i+1:]...)
				return it, true
			}
		}
		ahead := x.claimed - x.head
		if x.claimed < x.stopAt && (ahead < x.window ||
			x.building > 0 && ahead < len(x.results) && len(x.stash)+x.running < pullAheadBatches) {
			x.claimed++
			return item{m: x.claimed - 1}, true
		}
		if x.claimed >= x.stopAt && len(x.stash) == 0 {
			return item{}, false
		}
		x.cond.Wait()
	}
	return item{}, false
}

// run takes an item through the stages and returns the output batches,
// owned. An item that meets a join whose table is not ready yet stops
// there: run returns that level and the rows so far, owned (none: the
// morsel has no output).
func (x *exchange) run(p *pipeline, it item) (level int, ahead [][]sqltypes.Row, out []sqltypes.Batch, err error) {
	var in BatchIter
	if it.ahead == nil {
		lo := it.m * morselRows
		p.scan.rows = x.rows[lo:min(lo+morselRows, len(x.rows))]
		in = &p.scan
	} else {
		p.feed = aheadIter{batches: it.ahead, eof: true}
		in = &p.feed
	}
	for level = it.level; level < len(p.stages); level++ {
		if join := x.sp.stages[level].join; join != nil && p.stages[level] == nil {
			t := p.tables[level]
			if t == nil {
				ahead, err = readAhead(in)
				return level, ahead, nil, err
			}
			x.mu.Lock()
			throttle := x.probes[level]
			x.mu.Unlock()
			p.stages[level] = join.newIter(nil, t, throttle)
		}
		p.stages[level].setInput(in)
		in = p.stages[level]
	}
	out, err = p.keep(in)
	return level, nil, out, err
}

// readAhead drains the iterator into owned rows, as openJoin reads a probe
// side ahead.
func readAhead(in BatchIter) ([][]sqltypes.Row, error) {
	var ahead [][]sqltypes.Row
	for {
		b, err := in.Next()
		if err == io.EOF {
			return ahead, nil
		}
		if err != nil {
			return nil, err
		}
		ahead = append(ahead, b.AppendOwned(make([]sqltypes.Row, 0, len(b.Rows))))
	}
}

// keep drains the iterator, taking each batch over from its producer and
// leaving a spare one in its place: one the consumer is done with, or a
// new one as large as the batch it replaces.
func (p *pipeline) keep(in BatchIter) ([]sqltypes.Batch, error) {
	var out []sqltypes.Batch
	for {
		b, err := in.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, *b)
		if n := len(p.free); n > 0 {
			*b, p.free = p.free[n-1], p.free[:n-1]
		} else {
			*b = sqltypes.Batch{Rows: make([]sqltypes.Row, 0, len(out[len(out)-1].Rows))}
			if p.carves {
				values := 0
				for _, r := range out[len(out)-1].Rows {
					values += len(r)
				}
				b.Grow(values)
			}
		}
	}
}

// advance moves the consumer to the next morsel with output, recycling the
// one it leaves. It reports false at the end of the stream.
func (x *exchange) advance() (bool, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		if x.cur != nil {
			for i := range x.cur.batches {
				x.cur.batches[i].Reset()
				x.free = append(x.free, x.cur.batches[i])
			}
			*x.cur, x.cur = result{}, nil
			x.head++
			x.cond.Broadcast()
		}
		if x.head == x.n {
			return false, nil
		}
		r := &x.results[x.head%len(x.results)]
		for !r.ok {
			x.cond.Wait()
		}
		if r.err != nil {
			return false, r.err
		}
		x.cur, x.bi, x.ri = r, 0, 0
		if len(r.batches) > 0 {
			return true, nil
		}
	}
}

func (x *exchange) Next() (*sqltypes.Batch, error) {
	if x.err != nil {
		return nil, x.err
	}
	if x.coalesce {
		x.out.Reset()
	}
	for !x.coalesce || len(x.out.Rows) < sqltypes.BatchRows {
		if x.cur != nil && x.bi < len(x.cur.batches) {
			b := &x.cur.batches[x.bi]
			// A batch is handed on as it is unless it is to be merged:
			// a worker's full join batch that starts a serial one needs
			// no copy.
			if !x.coalesce || len(x.out.Rows) == 0 && x.ri == 0 && len(b.Rows) == sqltypes.BatchRows {
				x.bi++
				return b, nil
			}
			rows := b.Rows[x.ri:]
			rows = rows[:min(len(rows), sqltypes.BatchRows-len(x.out.Rows))]
			for _, r := range rows {
				copy(x.out.NewRow(len(r)), r)
			}
			if x.ri += len(rows); x.ri == len(b.Rows) {
				x.bi, x.ri = x.bi+1, 0
			}
			continue
		}
		more, err := x.advance()
		if err != nil {
			x.err = err
			return nil, err
		}
		if !more {
			break
		}
	}
	if len(x.out.Rows) > 0 {
		return &x.out, nil
	}
	// The end of the stream: sleep off the work still pending, bottom up,
	// as the serial operators do when they reach theirs.
	if !x.settled {
		x.settled = true
		x.scan.settle()
		for _, t := range x.probes {
			if t != nil {
				t.settle()
			}
		}
	}
	return nil, io.EOF
}

// Close stops the workers and waits for them and for any build still
// running.
func (x *exchange) Close() error {
	x.mu.Lock()
	x.closing = true
	x.cond.Broadcast()
	x.mu.Unlock()
	x.wg.Wait()
	return nil
}
