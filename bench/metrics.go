package main

import (
	"math"
	"sort"
	"time"

	"xdb/internal/netsim"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same definitions; bench_test.go holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// stmts are the workload statements in cycle order, with the suffix
// their per-statement metrics carry.
var stmts = []string{"Q3", "Q5", "Q8", "Q10"}

func suffix(q string) string {
	return "q" + q[1:]
}

// endToEnd are the metrics a user of the system sees, measured in the
// untraced interval. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "queries/s", "higher", 0.25},
	{"q3_p50_ms", "ms", "lower", 0.25},
	{"q5_p50_ms", "ms", "lower", 0.25},
	{"q8_p50_ms", "ms", "lower", 0.25},
	{"q10_p50_ms", "ms", "lower", 0.25},
	{"cycle_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"wire_bytes_per_query", "B", "lower", 0.01},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// perLayer are the metrics of single layers (layer = module name),
// measured from outside in the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	perStmt := func(prefix, unit string) {
		for _, q := range stmts {
			add(prefix+"."+suffix(q), unit, "lower")
		}
	}
	perStmt("sqlparser.parse_us", "us")
	add("sqlparser.render_us.q8", "us", "lower")
	perStmt("core.plan_ms", "ms")
	perStmt("core.deploy_cleanup_ms", "ms")
	for _, phase := range []string{"prep", "lopt", "ann", "deleg", "exec"} {
		perStmt("core.reported_"+phase+"_ms", "ms")
	}
	add("core.consult_rounds_per_query", "count", "lower")
	add("core.cached_probes_per_query", "count", "higher")
	add("core.ddl_per_query", "count", "lower")
	add("core.edges_explicit_per_query", "count", "lower")
	add("core.edges_implicit_per_query", "count", "lower")
	add("core.plan_cache_hit_ratio", "ratio", "higher")
	add("core.replans", "count", "lower")
	add("core.reopts", "count", "lower")
	add("core.orphans_at_end", "count", "lower")
	add("connector.cost_probe_us", "us", "lower")
	add("connector.explain_us", "us", "lower")
	add("connector.stats_us", "us", "lower")
	add("connector.deploy_view_us", "us", "lower")
	add("wire.rpc_us", "us", "lower")
	for _, enc := range []string{"binary", "text"} {
		add("wire.stream_ns_per_row."+enc, "ns", "lower")
		add("wire.stream_bytes_per_row."+enc, "B", "lower")
	}
	add("wire.dials_per_query", "count", "lower")
	add("wire.reuses_per_query", "count", "higher")
	add("wire.retries", "count", "lower")
	add("netsim.frames_per_query", "count", "lower")
	add("netsim.modelled_net_ms_per_query", "ms", "lower")
	for _, op := range []string{"scan", "filter", "hashjoin", "agg", "sortlimit"} {
		add("engine."+op+"_ns_per_row", "ns", "lower")
		add("engine."+op+"_allocs_per_row", "count", "lower")
	}
	add("engine.ctas_ns_per_row", "ns", "lower")
	add("engine.explain_us", "us", "lower")
	for _, enc := range []string{"binary", "text"} {
		add("sqltypes.encode_ns_per_row."+enc, "ns", "lower")
		add("sqltypes.decode_ns_per_row."+enc, "ns", "lower")
		add("sqltypes.decode_allocs_per_row."+enc, "count", "lower")
		add("sqltypes.bytes_per_row."+enc, "B", "lower")
	}
	for _, q := range []string{"q3", "q5"} {
		add("mediator.garlic_ms."+q, "ms", "lower")
		add("mediator.speedup_x."+q, "ratio", "higher")
	}
	add("proc.allocs_per_query", "count", "lower")
	add("proc.alloc_kb_per_query", "KiB", "lower")
	add("proc.gc_pause_ms_per_query", "ms", "lower")
	add("proc.gc_cycles", "count", "lower")
	add("proc.peak_rss_mb", "MiB", "lower")
	add("obs.trace_overhead_pct", "%", "lower")
	return out
}

// metrics maps metric name to measured value.
type metrics map[string]float64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile returns the p-quantile (0 ≤ p ≤ 1) of the values by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), so a record's spread matches what the driver computes. With
// fewer than two values all three are the single value.
func quartiles(values []float64) (q1, med, q3 float64) {
	n := len(values)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return values[0], values[0], values[0]
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// modelledNet is the wall time netsim's shaping charged for the given
// per-edge traffic: one link latency per frame plus bytes over bandwidth,
// divided by the topology's time scale — the modelled network share of a
// run, computed from outside.
func modelledNet(bytes, frames map[netsim.Edge]int64, link func(from, to string) netsim.LinkSpec, timeScale float64) time.Duration {
	var total float64
	for e, f := range frames {
		spec := link(e.From, e.To)
		total += float64(f) * float64(spec.Latency)
		if spec.Bandwidth > 0 {
			total += float64(bytes[e]) / spec.Bandwidth * float64(time.Second)
		}
	}
	if timeScale > 1 {
		total /= timeScale
	}
	return time.Duration(total)
}

// edgeDelta subtracts an earlier ledger snapshot from a later one.
func edgeDelta(after, before map[netsim.Edge]int64) map[netsim.Edge]int64 {
	out := make(map[netsim.Edge]int64, len(after))
	for e, n := range after {
		if d := n - before[e]; d != 0 {
			out[e] = d
		}
	}
	return out
}
