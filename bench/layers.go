package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"xdb/internal/connector"
	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/mediator"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
	"xdb/internal/wire"
)

// reportedMetrics are the per-layer numbers that cost nothing extra: the
// program's own Breakdown and Stats over the untraced interval ("as
// reported by the program"), and the ledger and runtime deltas around
// them. The run's exit checks read them, so they are computed on every
// run, traced or not.
func (c *cluster) reportedMetrics(samples []querySample, before, after counters) metrics {
	m := metrics{}
	n := 0.0
	var consult, cachedProbes, ddl, explicit, implicit, replans, reopts float64
	for i := range samples {
		s := &samples[i]
		if s.err != nil {
			continue
		}
		n++
		consult += float64(s.bd.ConsultRounds)
		cachedProbes += float64(s.bd.CachedProbes)
		ddl += float64(s.bd.DDLCount)
		explicit += float64(s.explicit)
		implicit += float64(s.implicit)
		replans += float64(s.bd.Replans)
		reopts += float64(s.bd.Reopts)
	}
	if n == 0 {
		n = 1
	}
	m["core.consult_rounds_per_query"] = consult / n
	m["core.cached_probes_per_query"] = cachedProbes / n
	m["core.ddl_per_query"] = ddl / n
	m["core.edges_explicit_per_query"] = explicit / n
	m["core.edges_implicit_per_query"] = implicit / n
	m["core.replans"] = replans
	m["core.reopts"] = reopts
	m["core.orphans_at_end"] = float64(len(after.stats.Orphans))

	pb, pa := before.stats.PlanCache, after.stats.PlanCache
	hits, lookups := float64(pa.Hits-pb.Hits), float64(pa.Hits-pb.Hits+pa.Misses-pb.Misses)
	m["core.plan_cache_hit_ratio"] = 0 // no lookups: the cache is off
	if lookups > 0 {
		m["core.plan_cache_hit_ratio"] = hits / lookups
	}

	// Only the middleware's client is visible from outside; the engines'
	// own FDW clients are not.
	tb, ta := before.stats.Transport, after.stats.Transport
	m["wire.dials_per_query"] = float64(ta.Dials-tb.Dials) / n
	m["wire.reuses_per_query"] = float64(ta.Reuses-tb.Reuses) / n
	m["wire.retries"] = float64(ta.Retries - tb.Retries)

	frames := edgeDelta(after.frames, before.frames)
	var totalFrames int64
	for _, f := range frames {
		totalFrames += f
	}
	m["netsim.frames_per_query"] = float64(totalFrames) / n
	net := modelledNet(edgeDelta(after.bytes, before.bytes), frames, c.tb.Topo.Link, c.tb.Topo.TimeScale)
	m["netsim.modelled_net_ms_per_query"] = ms(net) / n

	m["proc.allocs_per_query"] = float64(after.mem.Mallocs-before.mem.Mallocs) / n
	m["proc.alloc_kb_per_query"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / n
	m["proc.gc_pause_ms_per_query"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / n
	m["proc.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	return m
}

// A probe is repeated until it has run minReps times and spent
// repBudget, at most maxReps times: slow shaped calls get three samples,
// microsecond calls enough to steady the median. Variables so that the
// smoke test can run each probe once.
var (
	minReps   = 3
	repBudget = 100 * time.Millisecond
)

const maxReps = 25

// reps runs fn repeatedly under spans named name and returns the median
// duration.
func (t *tracer) reps(name string, parent int, fn func() error) (time.Duration, error) {
	var ds []float64
	var total time.Duration
	for len(ds) < maxReps && (len(ds) < minReps || total < repBudget) {
		var err error
		d := t.do(name, parent, func() { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
		total += d
	}
	return time.Duration(median(ds)), nil
}

// newSystem wires a second middleware onto the cluster's nodes, the way
// testbed.New wires the first, so the ladder can run the same statement
// with and without the plan cache on one cluster.
func (c *cluster) newSystem(opts core.Options) (*core.System, func(), error) {
	sys := core.NewSystem(testbed.MiddlewareNode, testbed.ClientNode, c.tb.Topo, opts)
	cl := wire.NewClientWith(testbed.MiddlewareNode, c.tb.Topo, opts.Wire)
	stop := func() {
		sys.Close()
		cl.Close()
	}
	for _, name := range c.tb.Order {
		n := c.tb.Nodes[name]
		sys.Register(connector.New(name, n.Server.Addr(), n.Engine.Profile().Vendor, cl))
	}
	for table, node := range td {
		if err := sys.RegisterTable(table, node); err != nil {
			stop()
			return nil, nil, err
		}
	}
	return sys, stop, nil
}

// tracedMetrics runs the traced loop, the ladder and the standalone layer
// probes, each under its own harness span, adds their metrics to m and
// writes the spans to traceFile. qpsUntraced is the untraced loop's
// throughput, the base of the tracing overhead. It returns the traced
// loop's samples, verified.
func (c *cluster) tracedMetrics(ctx context.Context, rng *rand.Rand, interval time.Duration, qpsUntraced float64, traceFile string, m metrics) ([]querySample, error) {
	tr := newTracer()

	loop := tr.start("loop.traced", 0)
	samples := runLoop(ctx, c.tb.System, rng, 0, time.Now().Add(interval), tr, loop)
	tr.finish(loop, 0)
	c.verify(samples)
	m["obs.trace_overhead_pct"] = (qpsUntraced - throughput(samples)) / qpsUntraced * 100

	cold, err := c.ladder(ctx, tr, m)
	if err != nil {
		return nil, err
	}
	probes := tr.start("probes", 0)
	for _, probe := range []func(context.Context, *tracer, int, metrics) error{
		c.probeConnector, c.probeWire, c.probeEngine, c.probeCodec,
	} {
		if err := probe(ctx, tr, probes, m); err != nil {
			return nil, err
		}
	}
	if err := c.probeMediator(tr, probes, m, cold); err != nil {
		return nil, err
	}
	tr.finish(probes, 0)
	if err := tr.write(traceFile); err != nil {
		return nil, err
	}
	return samples, nil
}

// phases are the Breakdown fields the ladder reports.
var phases = []struct {
	name string
	get  func(core.Breakdown) time.Duration
}{
	{"prep", func(b core.Breakdown) time.Duration { return b.Prep }},
	{"lopt", func(b core.Breakdown) time.Duration { return b.Lopt }},
	{"ann", func(b core.Breakdown) time.Duration { return b.Ann }},
	{"deleg", func(b core.Breakdown) time.Duration { return b.Deleg }},
	{"exec", func(b core.Breakdown) time.Duration { return b.Exec }},
}

// ladder times, per statement, the nested steps parse ⊂ plan ⊂ cold
// query and the warm (plan-cache hit) query on the same cluster. What a
// cold query spends beyond planning and executing — deploying and
// dropping its short-lived relations — is the difference
// cold − plan − warm. It returns the cold query time per statement.
func (c *cluster) ladder(ctx context.Context, tr *tracer, m metrics) (map[string]time.Duration, error) {
	// The cluster's own middleware is one side; a second one with the
	// complementary Options is the other.
	other := cached
	if c.w.Options.PlanCacheSize > 0 {
		other = core.Options{}
	}
	sys, stop, err := c.newSystem(other)
	if err != nil {
		return nil, err
	}
	defer stop()
	coldSys, warmSys := c.tb.System, sys
	if c.w.Options.PlanCacheSize > 0 {
		coldSys, warmSys = sys, c.tb.System
	}

	root := tr.start("ladder", 0)
	defer tr.finish(root, 0)
	cold := map[string]time.Duration{}
	for _, q := range stmts {
		sql, sfx := tpch.Queries[q], suffix(q)
		var sel *sqlparser.Select
		parse, err := tr.reps("sqlparser.parse."+sfx, root, func() (err error) {
			sel, err = sqlparser.ParseSelect(sql)
			return err
		})
		if err != nil {
			return nil, err
		}
		m["sqlparser.parse_us."+sfx] = us(parse)
		if q == "Q8" {
			render, _ := tr.reps("sqlparser.render."+sfx, root, func() error {
				_ = sel.String()
				return nil
			})
			m["sqlparser.render_us."+sfx] = us(render)
		}

		plan, err := tr.reps("core.plan."+sfx, root, func() error {
			_, _, err := coldSys.PlanContext(ctx, sql)
			return err
		})
		if err != nil {
			return nil, err
		}
		m["core.plan_ms."+sfx] = ms(plan)

		var bds []core.Breakdown
		coldQ, err := tr.reps("core.query_cold."+sfx, root, func() error {
			res, err := coldSys.QueryContext(ctx, sql)
			if err == nil {
				bds = append(bds, res.Breakdown)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		cold[q] = coldQ
		for _, phase := range phases {
			vs := make([]float64, len(bds))
			for i, b := range bds {
				vs[i] = ms(phase.get(b))
			}
			m["core.reported_"+phase.name+"_ms."+sfx] = median(vs)
		}

		// Prime the plan cache, then time hits.
		if _, err := warmSys.QueryContext(ctx, sql); err != nil {
			return nil, fmt.Errorf("core.query_warm.%s: %w", sfx, err)
		}
		warm, err := tr.reps("core.query_warm."+sfx, root, func() error {
			res, err := warmSys.QueryContext(ctx, sql)
			if err == nil && !res.Breakdown.PlanCacheHit {
				err = fmt.Errorf("not a plan-cache hit")
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		m["core.deploy_cleanup_ms."+sfx] = ms(coldQ - plan - warm)

		reported := m["core.reported_prep_ms."+sfx] + m["core.reported_lopt_ms."+sfx] + m["core.reported_ann_ms."+sfx]
		if !(parse <= plan && plan <= coldQ) || ms(plan) > 1.25*reported || ms(plan) < 0.75*reported {
			fmt.Fprintf(os.Stderr, "bench: %s ladder for %s: parse %.3f ms, plan %.3f ms (program reports %.3f ms), cold query %.3f ms\n",
				c.w.Name, q, ms(parse), ms(plan), reported, ms(coldQ))
		}
	}
	return cold, nil
}

// probeConnector times one consult call of each kind, and one view
// deployed and dropped, on every node through its Connector; each metric
// is the median over the nodes.
func (c *cluster) probeConnector(ctx context.Context, tr *tracer, parent int, m metrics) error {
	var cost, explain, stats, view []float64
	for _, node := range c.tb.Order {
		conn, ok := c.tb.System.Connector(node)
		if !ok {
			return fmt.Errorf("no connector for %s", node)
		}
		table := td.TablesOn(node)[0]
		scan := "SELECT * FROM " + table
		sel, err := sqlparser.ParseSelect(scan)
		if err != nil {
			return err
		}
		for _, p := range []struct {
			name string
			into *[]float64
			fn   func() error
		}{
			{"connector.cost_probe", &cost, func() error {
				_, err := conn.CostOperator(ctx, engine.CostJoin, 1000, 1000, 1000)
				return err
			}},
			{"connector.explain", &explain, func() error {
				_, _, err := conn.Explain(ctx, scan)
				return err
			}},
			{"connector.stats", &stats, func() error {
				_, err := conn.Stats(ctx, table)
				return err
			}},
			{"connector.deploy_view", &view, func() error {
				if err := conn.DeployView(ctx, "bench_probe_view", sel); err != nil {
					return err
				}
				return conn.Exec(ctx, conn.Dialect.DropView("bench_probe_view"))
			}},
		} {
			d, err := tr.reps(p.name+"."+node, parent, p.fn)
			if err != nil {
				return err
			}
			*p.into = append(*p.into, us(d))
		}
	}
	m["connector.cost_probe_us"] = median(cost)
	m["connector.explain_us"] = median(explain)
	m["connector.stats_us"] = median(stats)
	m["connector.deploy_view_us"] = median(view)
	return nil
}

// streamRows is how many lineitem rows the wire and codec probes move.
const streamRows = 10000

// probeWire times a pooled RPC round trip and a row stream in each
// encoding from db1 (lineitem's home, a binary-protocol vendor in every
// workload) to the middleware node.
func (c *cluster) probeWire(ctx context.Context, tr *tracer, parent int, m metrics) error {
	conn, ok := c.tb.System.Connector("db1")
	if !ok {
		return fmt.Errorf("no connector for db1")
	}
	cl := conn.Client()
	rpc, err := tr.reps("wire.rpc", parent, func() error {
		_, err := cl.Cost(ctx, conn.Addr, conn.Node, engine.CostScan, 1000, 0, 1000)
		return err
	})
	if err != nil {
		return err
	}
	m["wire.rpc_us"] = us(rpc)

	sql := fmt.Sprintf("SELECT * FROM lineitem LIMIT %d", streamRows)
	led := c.tb.Topo.Ledger()
	for _, enc := range []struct {
		name string
		text bool
	}{{"binary", false}, {"text", true}} {
		rows, runs := 0, 0
		bytes := led.Total()
		d, err := tr.reps("wire.stream."+enc.name, parent, func() error {
			_, it, err := cl.QueryEnc(ctx, conn.Addr, conn.Node, sql, enc.text)
			if err != nil {
				return err
			}
			got, err := engine.Drain(it)
			rows, runs = len(got), runs+1
			return err
		})
		if err != nil {
			return err
		}
		if rows == 0 {
			return fmt.Errorf("wire.stream.%s: no rows", enc.name)
		}
		m["wire.stream_ns_per_row."+enc.name] = float64(d) / float64(rows)
		m["wire.stream_bytes_per_row."+enc.name] = float64(led.Total()-bytes) / float64(runs) / float64(rows)
	}
	return nil
}

// mallocs is the process's allocation count so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeEngine times each operator class on the oracle engine, a
// standalone VendorTest engine holding the workload's tables, per input
// row.
func (c *cluster) probeEngine(_ context.Context, tr *tracer, parent int, m metrics) error {
	eng := c.oracle
	lineitem, orders := float64(len(c.data[tpch.Lineitem])), float64(len(c.data[tpch.Orders]))
	for _, op := range []struct {
		name, sql string
		input     float64
	}{
		{"scan", "SELECT * FROM lineitem", lineitem},
		{"filter", "SELECT * FROM lineitem WHERE l_quantity < 10", lineitem},
		{"hashjoin", "SELECT o_orderdate, l_extendedprice FROM orders, lineitem WHERE o_orderkey = l_orderkey", lineitem + orders},
		{"agg", "SELECT l_returnflag, l_linestatus, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag, l_linestatus", lineitem},
		{"sortlimit", "SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 100", lineitem},
	} {
		var allocs uint64
		d, err := tr.reps("engine."+op.name, parent, func() error {
			before := mallocs()
			_, it, err := eng.Query(op.sql)
			if err != nil {
				return err
			}
			_, err = engine.Drain(it)
			allocs = mallocs() - before
			return err
		})
		if err != nil {
			return err
		}
		m["engine."+op.name+"_ns_per_row"] = float64(d) / op.input
		m["engine."+op.name+"_allocs_per_row"] = float64(allocs) / op.input
	}

	// The DROP is a catalog removal, so the pair is the materialising write.
	ctas, err := tr.reps("engine.ctas", parent, func() error {
		if err := eng.Exec("CREATE TABLE bench_probe_ctas AS SELECT * FROM lineitem"); err != nil {
			return err
		}
		return eng.Exec("DROP TABLE bench_probe_ctas")
	})
	if err != nil {
		return err
	}
	m["engine.ctas_ns_per_row"] = float64(ctas) / lineitem

	explain, err := tr.reps("engine.explain", parent, func() error {
		_, err := eng.Explain(tpch.Queries["Q3"])
		return err
	})
	if err != nil {
		return err
	}
	m["engine.explain_us"] = us(explain)
	return nil
}

// probeCodec times the row codec on real lineitem rows in both
// encodings.
func (c *cluster) probeCodec(_ context.Context, tr *tracer, parent int, m metrics) error {
	rows := c.data[tpch.Lineitem]
	if len(rows) > streamRows {
		rows = rows[:streamRows]
	}
	n := float64(len(rows))
	for _, enc := range []struct {
		name   string
		encode func([]byte, sqltypes.Row) []byte
		decode func([]byte) (sqltypes.Row, int, error)
	}{
		{"binary", sqltypes.AppendRow, sqltypes.DecodeRow},
		{"text", sqltypes.AppendRowText, sqltypes.DecodeRowText},
	} {
		var buf []byte
		encode, _ := tr.reps("sqltypes.encode."+enc.name, parent, func() error {
			buf = buf[:0]
			for _, r := range rows {
				buf = enc.encode(buf, r)
			}
			return nil
		})
		var allocs uint64
		decode, err := tr.reps("sqltypes.decode."+enc.name, parent, func() error {
			before := mallocs()
			for rest := buf; len(rest) > 0; {
				_, used, err := enc.decode(rest)
				if err != nil {
					return err
				}
				rest = rest[used:]
			}
			allocs = mallocs() - before
			return nil
		})
		if err != nil {
			return err
		}
		m["sqltypes.encode_ns_per_row."+enc.name] = float64(encode) / n
		m["sqltypes.decode_ns_per_row."+enc.name] = float64(decode) / n
		m["sqltypes.decode_allocs_per_row."+enc.name] = float64(allocs) / n
		m["sqltypes.bytes_per_row."+enc.name] = float64(len(buf)) / n
	}
	return nil
}

// probeMediator runs Q3 and Q5 through the Garlic baseline on this
// cluster and relates it to XDB's cold query (Fig. 9's ratio; base: XDB).
func (c *cluster) probeMediator(tr *tracer, parent int, m metrics, cold map[string]time.Duration) error {
	g := mediator.NewGarlic(testbed.MiddlewareNode, c.tb.Topo, c.tb.Connectors())
	defer g.Close()
	for table, node := range td {
		if err := g.RegisterTable(table, node); err != nil {
			return err
		}
	}
	for _, q := range []string{"Q3", "Q5"} {
		d, err := tr.reps("mediator.garlic."+suffix(q), parent, func() error {
			res, _, err := g.Query(tpch.Queries[q])
			if err == nil && !sameRows(res.Rows, c.want[q]) {
				err = fmt.Errorf("result differs from the oracle")
			}
			return err
		})
		if err != nil {
			return err
		}
		m["mediator.garlic_ms."+suffix(q)] = ms(d)
		m["mediator.speedup_x."+suffix(q)] = float64(d) / float64(cold[q])
	}
	return nil
}
