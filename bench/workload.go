package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/obs"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

// workload is one set of inputs the benchmark runs: a cluster shape, the
// middleware Options, and a data size. The statements (Q3, Q5, Q8, Q10
// under TD1) and the load (closed loop, one client) are the same for all.
type workload struct {
	Name      string
	Why       string
	TimeScale float64 // 0 = full LAN shaping
	Vendor    engine.Vendor
	Vendors   map[string]engine.Vendor
	Options   core.Options
	SF        float64
}

var cached = core.Options{PlanCacheSize: 16, ConsultCacheTTL: time.Minute}

// td places the tables for every workload: db1 lineitem | db2 customer,
// orders | db3 supplier, nation, region | db4 part, partsupp.
var td = tpch.Distributions["TD1"]

var workloads = []workload{
	{
		Name:   "cold-lan",
		Why:    "every query plans, consults, deploys DDL, executes and cleans up over LAN-shaped links; the materialising write path runs on every query",
		Vendor: engine.VendorPostgres,
		SF:     0.02,
	},
	{
		Name:    "warm-hetero",
		Why:     "plan-cache hits on a Postgres/MariaDB/Hive mix under LAN shaping: planning is bypassed, the text row encoding and non-pushdown wrappers are in play",
		Vendor:  engine.VendorPostgres,
		Vendors: map[string]engine.Vendor{"db2": engine.VendorMariaDB, "db3": engine.VendorHive},
		Options: cached,
		SF:      0.02,
	},
	{
		Name:      "warm-raw",
		Why:       "plan-cache hits with no modelled time: wall time is our own CPU in engine operators, row codec and wire frames on pipelined binary pulls",
		TimeScale: 1e6,
		Vendor:    engine.VendorTest,
		Options:   cached,
		SF:        0.02,
	},
	{
		Name:      "plan-raw",
		Why:       "no caches, no modelled time, data so small that parse, join ordering, annotation, consult RPCs, deploy DDL and cleanup are most of each query",
		TimeScale: 1e6,
		Vendor:    engine.VendorTest,
		SF:        0.002,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// clients is the closed loop's client count. One, because a query
	// already fans out over several engine goroutines and this box has two
	// cores: with two clients both raw workloads keep 1.95 cores busy and
	// the per-statement medians of one commit move 8 to 11 % between runs,
	// with one client 1 to 5 %.
	clients      = 1
	warmupCycles = 2 // untimed cycles before the timed interval
	setupRepeats = 3 // set-ups per untraced run; setup_s is their median
	// dataSeed generates the tables. It is the repository's usual TPC-H
	// seed and not the run's: at these scale factors the optimizer's plan
	// choice flips between data seeds (over ten of them cold-lan shipped
	// 304 to 403 KB per query), so a data seed is a workload parameter,
	// not a repetition. The run's seed orders the statements instead.
	dataSeed = 42
)

// cluster is one set-up: the running testbed, the single-engine oracle
// holding the same tables, and the oracle's answers.
type cluster struct {
	w      workload
	tb     *testbed.Testbed
	oracle *engine.Engine
	data   map[string][]sqltypes.Row
	want   map[string][]sqltypes.Row
}

func (c *cluster) close() { c.tb.Close() }

// setUp builds the cluster for the workload: testbed, TPC-H data under
// TD1, the oracle, and the warm-up cycles in the seed's statement order.
// It is what setup_s times.
func setUp(ctx context.Context, w workload, seed uint64) (*cluster, error) {
	tb, err := testbed.New(td.Nodes(), testbed.Config{
		Scenario:      netsim.ScenarioLAN,
		Vendors:       w.Vendors,
		DefaultVendor: w.Vendor,
		Options:       w.Options,
		TimeScale:     w.TimeScale,
	})
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, tb: tb, want: map[string][]sqltypes.Row{}}
	if err := c.load(); err != nil {
		tb.Close()
		return nil, err
	}
	warm := runLoop(ctx, c.tb.System, rand.New(rand.NewSource(int64(seed))), warmupCycles, time.Time{}, nil, 0)
	c.verify(warm)
	if bad, first := failures(warm); bad > 0 {
		tb.Close()
		return nil, fmt.Errorf("%s: %d of %d warm-up queries failed: %s", w.Name, bad, len(warm), first)
	}
	return c, nil
}

// load generates the tables once and loads the same rows into the
// cluster (as testbed.LoadTPCH would) and into the oracle, so the oracle
// costs no second copy of the data in the heap the run measures.
func (c *cluster) load() error {
	c.oracle = engine.New(engine.Config{Name: "oracle", Vendor: engine.VendorTest})
	c.data = tpch.NewGenerator(c.w.SF, dataSeed).GenAll()
	for _, table := range tpch.TableNames {
		schema, err := tpch.Schema(table)
		if err != nil {
			return err
		}
		if err := c.tb.LoadTable(td[table], table, schema, c.data[table]); err != nil {
			return err
		}
		if err := c.oracle.LoadTable(table, schema, c.data[table]); err != nil {
			return err
		}
	}
	for _, q := range stmts {
		res, err := c.oracle.QueryAll(tpch.Queries[q])
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q, err)
		}
		c.want[q] = res.Rows
	}
	return nil
}

// querySample is one query of the closed loop. Only what the metrics
// need is kept from the Result, so thousands of plans are not held live
// while the loop runs.
type querySample struct {
	cycle      int
	stmt       string
	start, end time.Duration // since the loop began
	rows       []sqltypes.Row
	bd         core.Breakdown
	explicit   int
	implicit   int
	err        error
}

func (s *querySample) latency() time.Duration { return s.end - s.start }

// runLoop drives the closed loop: the client issues whole cycles of the
// four statements back to back, every cycle in a fresh order drawn from
// rng, until it has done the given number of cycles (if positive) or the
// deadline has passed (if set). With a tracer every cycle and query is a
// harness span and the program's own tracing is switched on through the
// context.
func runLoop(ctx context.Context, sys *core.System, rng *rand.Rand, cycles int, deadline time.Time, tr *tracer, parent int) []querySample {
	t0 := time.Now()
	var samples []querySample
	for cycle := 0; ; cycle++ {
		if cycles > 0 && cycle >= cycles {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		cspan := tr.start("cycle", parent)
		for _, i := range rng.Perm(len(stmts)) {
			q := stmts[i]
			qctx := ctx
			if tr != nil {
				qctx = obs.ContextWithSpan(ctx, obs.NewSpan("bench"))
			}
			qspan := tr.start("query."+suffix(q), cspan)
			s := querySample{cycle: cycle, stmt: q, start: time.Since(t0)}
			res, err := sys.QueryContext(qctx, tpch.Queries[q])
			s.end = time.Since(t0)
			s.err = err
			var qid int64
			if err == nil {
				s.rows, s.bd, qid = res.Rows, res.Breakdown, res.QID
				s.implicit, s.explicit = res.Plan.Movements()
				if res.CleanupErr != nil {
					s.err = fmt.Errorf("cleanup: %w", res.CleanupErr)
				}
			}
			tr.finish(qspan, qid)
			samples = append(samples, s)
		}
		tr.finish(cspan, 0)
	}
	return samples
}

// verify checks every sample's answer against the oracle, turning a
// mismatch into the sample's error, and lets go of the answers.
func (c *cluster) verify(samples []querySample) {
	for i := range samples {
		s := &samples[i]
		if s.err == nil && !sameRows(s.rows, c.want[s.stmt]) {
			s.err = fmt.Errorf("%s: result differs from the oracle (%d rows, want %d)", s.stmt, len(s.rows), len(c.want[s.stmt]))
		}
		s.rows = nil
	}
}

// failures counts the failed samples and describes the first.
func failures(samples []querySample) (n int, first string) {
	for _, s := range samples {
		if s.err != nil {
			if n++; n == 1 {
				first = s.err.Error()
			}
		}
	}
	return n, first
}

// sameRows compares a result with the oracle's: positionally (every
// statement has an ORDER BY), and, because ORDER BY keys may tie, as
// multisets when that fails. Float columns get 1e-6 relative tolerance,
// since the distributed plan sums in another order.
func sameRows(got, want []sqltypes.Row) bool {
	if len(got) != len(want) {
		return false
	}
	if positionalEqual(got, want) {
		return true
	}
	a, b := sortedCopy(got), sortedCopy(want)
	return positionalEqual(a, b)
}

func positionalEqual(a, b []sqltypes.Row) bool {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.T == sqltypes.TypeFloat || y.T == sqltypes.TypeFloat {
				if math.Abs(x.Float()-y.Float()) > 1e-6*math.Max(1, math.Abs(y.Float())) {
					return false
				}
				continue
			}
			if !sqltypes.Equal(x, y) {
				return false
			}
		}
	}
	return true
}

// sortedCopy orders rows by their non-float columns, then their floats,
// so near-equal floats cannot reorder rows that differ elsewhere.
func sortedCopy(rows []sqltypes.Row) []sqltypes.Row {
	key := func(r sqltypes.Row) string {
		var b strings.Builder
		for _, v := range r {
			if v.T != sqltypes.TypeFloat {
				b.WriteString(v.String())
				b.WriteByte('|')
			}
		}
		return b.String()
	}
	out := append([]sqltypes.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki < kj
		}
		for col := range out[i] {
			if out[i][col].T == sqltypes.TypeFloat && col < len(out[j]) && out[i][col].F != out[j][col].F {
				return out[i][col].F < out[j][col].F
			}
		}
		return false
	})
	return out
}

// counters is a snapshot of everything the harness reads from outside
// around a timed interval.
type counters struct {
	cpu       time.Duration
	bytes     map[netsim.Edge]int64
	frames    map[netsim.Edge]int64
	mem       runtime.MemStats
	stats     core.SystemStats
	ledgerSum int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMiB is the heap still reachable after a collection: what the
// middleware, the engines and their data hold, without the garbage whose
// amount depends on where the collector's cycle happens to be.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func (c *cluster) snapshot() counters {
	var s counters
	runtime.ReadMemStats(&s.mem)
	led := c.tb.Topo.Ledger()
	s.bytes, s.frames, s.ledgerSum = led.Snapshot(), led.FrameSnapshot(), led.Total()
	s.stats = c.tb.System.Stats()
	s.cpu = cpuTime()
	return s
}

// runResult is what one run of one workload measured.
type runResult struct {
	attempted, failed int
	failure           string
	endToEnd          metrics
	perLayer          metrics // nil without tracing
}

// throughput is the correct queries per second of client time: the
// client runs back to back, so its busy time is the sum of the latencies.
func throughput(samples []querySample) float64 {
	var done float64
	var busy time.Duration
	for i := range samples {
		if samples[i].err == nil {
			done++
			busy += samples[i].latency()
		}
	}
	if busy == 0 {
		return 0
	}
	return done / busy.Seconds()
}

// endToEndMetrics reduces the untraced samples to the user-visible
// metrics: throughput, the median latency of each statement, and the p90
// of whole cycles, all over the one timed interval.
func endToEndMetrics(samples []querySample, before, after counters) (metrics, error) {
	lat := map[string][]float64{}
	var cycleMs []float64
	inCycle, cycleStart := 0, time.Duration(0)
	for i := range samples {
		s := &samples[i]
		if i == 0 || s.cycle != samples[i-1].cycle {
			inCycle, cycleStart = 0, s.start
		}
		if s.err != nil {
			continue
		}
		lat[s.stmt] = append(lat[s.stmt], ms(s.latency()))
		if inCycle++; inCycle == len(stmts) {
			cycleMs = append(cycleMs, ms(s.end-cycleStart))
		}
	}
	if len(cycleMs) == 0 {
		return nil, fmt.Errorf("no whole cycle completed correctly in the timed interval")
	}
	ok := 0.0
	m := metrics{"qps": throughput(samples), "cycle_p90_ms": percentile(cycleMs, 0.9)}
	for _, q := range stmts {
		m[suffix(q)+"_p50_ms"] = median(lat[q])
		ok += float64(len(lat[q]))
	}
	m["cpu_ms_per_query"] = ms(after.cpu-before.cpu) / ok
	m["wire_bytes_per_query"] = float64(after.ledgerSum-before.ledgerSum) / ok
	return m, nil
}
