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
// does) and keep the batches until the table is ready; a morsel read ahead
// then runs on as soon as it is inside the window, as any other does.
// Every worker charges the operator's one throttle (cpuThrottle.share)
// under the statement's token, so the statement still models one CPU; only
// the real CPU work spreads.
//
// Batches circulate through the statement's spares: a worker takes over
// each batch its stages hand it (Spares.Take) and leaves a spare in its
// place, and the consumer hands a morsel's batches back once it has read
// them. Re-cutting a probe's output into full batches copies no values:
// the cut views the workers' batches (Batch.View).

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
	j.probe, j.in, j.head, j.pos, j.m, j.done = in, nil, j.head[:0], 0, 0, false
}

// item is a morsel to run from stage level on: its stored rows, or the
// batches it was read ahead to before a table was ready (spares of its
// own). A morsel read ahead at level 0 keeps no batch: its stored rows are
// its read-ahead, and their scan was charged then (scanned).
type item struct {
	m, level int
	ahead    []sqltypes.Batch
	scanned  bool
}

// result is a morsel's output, once ok.
type result struct {
	batches []sqltypes.Batch
	err     error
	ok      bool
}

type exchange struct {
	st       *statement
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

	// The consumer's side.
	cur     *result
	bi, ri  int               // next batch of cur, next row of it
	out     sqltypes.Batch    // a re-cut batch: views of the workers' batches
	read    []*sqltypes.Batch // read up to the last Next: handed back by the next one
	settled bool
	err     error
}

// openExchange starts a spine's builds and workers and returns once every
// table is built, as openJoin does; a build's error (the lowest join's)
// fails the open. No goroutine outlives the exchange's Close, nor a failed
// open.
func openExchange(sp *spine, workers int, st *statement) (BatchIter, error) {
	x := &exchange{
		st:       st,
		sp:       sp,
		coalesce: sp.probes(),
		tables:   make([]*joinTable, len(sp.stages)),
		probes:   make([]*cpuThrottle, len(sp.stages)),
	}
	x.cond = sync.NewCond(&x.mu)
	for s, stage := range sp.stages {
		if stage.join != nil {
			x.building++
			x.wg.Add(1)
			go x.build(s, stage.join)
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
	x.scan = st.throttle(sp.scanNs).share()
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
func (x *exchange) build(s int, spec *joinSpec) {
	defer x.wg.Done()
	r := spec.drainBuild(x.st)
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
	stages []stageIter  // a join's once its table is ready
	tables []*joinTable // the worker's view of x.tables
	spares *sqltypes.Spares
}

// work runs items until none are left or the exchange closes.
func (x *exchange) work() {
	defer x.wg.Done()
	p := &pipeline{stages: make([]stageIter, len(x.sp.stages)), tables: make([]*joinTable, len(x.sp.stages)), spares: &x.st.spares}
	for s, stage := range x.sp.stages {
		if stage.join == nil {
			p.stages[s] = stage.newIter(x.st)
		}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		it, ok := x.take(p)
		if !ok {
			return
		}
		x.running++
		x.mu.Unlock()
		wait, batches, err := x.run(p, it)
		x.mu.Lock()
		x.running--
		if wait != nil {
			x.stash = append(x.stash, *wait)
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
// table is now ready and that is inside the window, else the next morsel
// if the worker may run that far ahead, else it waits. It reports false
// once nothing is left or the exchange closes.
func (x *exchange) take(p *pipeline) (item, bool) {
	for !x.closing {
		copy(p.tables, x.tables)
		for i, it := range x.stash {
			if x.tables[it.level] != nil && it.m < x.head+x.window {
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
// taken over. An item that meets a join whose table is not ready yet stops
// there: run returns it read ahead to that level, to wait (none when no
// row is left: the morsel has no output).
func (x *exchange) run(p *pipeline, it item) (wait *item, out []sqltypes.Batch, err error) {
	var in BatchIter
	if it.ahead == nil {
		lo := it.m * morselRows
		p.scan.rows = x.rows[lo:min(lo+morselRows, len(x.rows))]
		p.scan.throttle = x.scan
		if it.scanned {
			p.scan.throttle = nil
		}
		in = &p.scan
	} else {
		p.feed = aheadIter{batches: it.ahead, eof: true, spares: p.spares}
		in = &p.feed
	}
	for level := it.level; level < len(p.stages); level++ {
		if join := x.sp.stages[level].join; join != nil && p.stages[level] == nil {
			t := p.tables[level]
			if t == nil {
				wait = &item{m: it.m, level: level}
				if level == 0 {
					// The stored rows are the read-ahead: their scan is
					// charged now, as reading them would, and not again.
					x.scan.charge(int64(len(p.scan.rows)))
					wait.scanned = true
					return wait, nil, nil
				}
				if wait.ahead, err = readAhead(in, p.spares); err != nil || len(wait.ahead) == 0 {
					return nil, nil, err
				}
				return wait, nil, nil
			}
			x.mu.Lock()
			throttle := x.probes[level]
			x.mu.Unlock()
			// A worker's output batches hold a morsel's share of the
			// join's rows.
			p.stages[level] = join.newIter(nil, t, throttle, p.spares, join.est*morselRows/max(x.sp.size, 1))
		}
		p.stages[level].setInput(in)
		in = p.stages[level]
	}
	out, err = p.keep(in)
	return nil, out, err
}

// readAhead drains the iterator into spare batches of their own (owned),
// as openJoin reads a probe side ahead.
func readAhead(in BatchIter, spares *sqltypes.Spares) ([]sqltypes.Batch, error) {
	var ahead []sqltypes.Batch
	for {
		b, err := in.Next()
		if err == io.EOF {
			return ahead, nil
		}
		if err != nil {
			return nil, err
		}
		ahead = append(ahead, owned(b, spares))
	}
}

// keep drains the iterator, taking each batch over from its producer,
// which finds a spare in its place (Spares.Take).
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
		out = append(out, p.spares.Take(b))
	}
}

// advance moves the consumer to the next morsel with output. It reports
// false at the end of the stream.
func (x *exchange) advance() (bool, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for {
		if x.cur != nil {
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
	x.handBack()
	if x.coalesce {
		x.st.spares.Refill(&x.out, sqltypes.BatchRows, 0)
	}
	for !x.coalesce || len(x.out.Rows) < sqltypes.BatchRows {
		if x.cur != nil && x.bi < len(x.cur.batches) {
			b := &x.cur.batches[x.bi]
			// A batch is handed on as it is unless it is to be merged:
			// a worker's full join batch that starts a serial one is
			// handed on whole.
			if !x.coalesce || len(x.out.Rows) == 0 && x.ri == 0 && len(b.Rows) == sqltypes.BatchRows {
				x.bi++
				x.read = append(x.read, b)
				return b, nil
			}
			rows := b.Rows[x.ri:]
			rows = rows[:min(len(rows), sqltypes.BatchRows-len(x.out.Rows))]
			x.out.View(b, rows)
			if x.ri += len(rows); x.ri == len(b.Rows) {
				x.bi, x.ri = x.bi+1, 0
				x.read = append(x.read, b)
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

// handBack hands the batches read in full back to the spares: the
// consumer has moved on from them, and no cut views them any more.
func (x *exchange) handBack() {
	for i, b := range x.read {
		x.st.spares.Put(b)
		x.read[i] = nil
	}
	x.read = x.read[:0]
}

// Close stops the workers and waits for them and for any build still
// running.
func (x *exchange) Close() error {
	x.mu.Lock()
	x.closing = true
	x.cond.Broadcast()
	x.mu.Unlock()
	x.wg.Wait()
	x.handBack()
	x.st.spares.Put(&x.out)
	return nil
}
