// Command bench is the repository's benchmark: four TPC-H cross-database
// workloads driven closed-loop against clusters assembled through the
// public surface, every answer checked against a single-engine oracle,
// end-to-end metrics from an untraced interval and per-layer metrics from
// a traced run. See README.md in this directory.
//
// One workload, as BENCHMARK.json's command runs it:
//
//	go run ./bench -workload warm-raw -seed 7 -seconds 12 -trace 0
//
// prints every metric by name and, as the last line of standard output,
// one JSON object. Several workloads (the default is all four) or -out
// make it the driver: it re-executes itself once per workload, run and
// trace mode, and merges the children's results into one record.
//
//	go run ./bench -out bench/out/BENCH.json
//	go run ./bench -diff old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// outDir receives the trace files and, by default, the record.
const outDir = "bench/out"

type workloadFlag []string

func (f *workloadFlag) String() string { return strings.Join(*f, ",") }
func (f *workloadFlag) Set(v string) error {
	if _, ok := findWorkload(v); !ok {
		return fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames(), ", "))
	}
	*f = append(*f, v)
	return nil
}

// traceFlag takes 0/1 or false/true as a separate argument, which a
// boolean flag would not.
type traceFlag bool

func (f *traceFlag) String() string { return strconv.FormatBool(bool(*f)) }
func (f *traceFlag) Set(v string) error {
	b, err := strconv.ParseBool(v)
	*f = traceFlag(b)
	return err
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func main() {
	var names workloadFlag
	trace := traceFlag(true)
	flag.Var(&names, "workload", "workload to run (repeatable; default all four)")
	flag.Var(&trace, "trace", "1: traced run, prints the per-layer metrics; 0: untraced, prints the end-to-end metrics")
	seed := flag.Uint64("seed", 42, "seed of the order in which each cycle issues its four statements")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed interval of one run")
	runs := flag.Int("runs", 5, "driver: runs per workload and trace mode, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "driver: write the merged record here (default "+outDir+"/BENCH.json)")
	diff := flag.Bool("diff", false, "compare two records: -diff old.json new.json")
	flag.Parse()

	var err error
	switch {
	case *diff:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-diff takes two records: old.json new.json")
		} else {
			err = diffRecords(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case len(names) == 1 && *out == "":
		w, _ := findWorkload(names[0])
		err = runAndPrint(w, *seed, *seconds, bool(trace))
	default:
		if len(names) == 0 {
			names = workloadNames()
		}
		if *out == "" {
			*out = filepath.Join(outDir, "BENCH.json")
		}
		err = drive(names, *seed, *seconds, *runs, bool(trace), *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runConfig is one run of one workload.
type runConfig struct {
	w         workload
	seed      uint64
	seconds   float64
	trace     bool
	setups    int
	traceFile string
}

// run sets the workload up (several times, for setup_s), measures the
// untraced interval and, when tracing, the traced one, ladder and probes.
func run(ctx context.Context, cfg runConfig) (*runResult, error) {
	var c *cluster
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if c != nil {
			// Collect the previous cluster before building the next, so that
			// the heap, and with it peak_rss_mb, never holds two.
			c.close()
			c = nil
			runtime.GC()
		}
		begin := time.Now()
		var err error
		if c, err = setUp(ctx, cfg.w, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	defer c.close()

	// A traced run spends a quarter of its time in the loop untraced and a
	// quarter traced, so the two throughputs behind the tracing overhead
	// weigh the same; the ladder and the probes take about the other half
	// on the slowest workload.
	interval := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		interval /= 4
	}
	// Start every interval from a collected heap: the set-up's garbage is
	// not collected in the first seconds of it, and the collector's pacing
	// starts from the same state in every run.
	runtime.GC()
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	before := c.snapshot()
	samples := runLoop(ctx, c.tb.System, rng, 0, time.Now().Add(interval), nil, 0)
	after := c.snapshot()
	rss := peakRSSMiB()

	// verify lets go of the answers, so the live heap is the program's.
	c.verify(samples)
	res := &runResult{attempted: len(samples)}
	res.failed, res.failure = failures(samples)
	live := liveHeapMiB()
	e2e, err := endToEndMetrics(samples, before, after)
	if err != nil {
		if res.failure != "" {
			err = fmt.Errorf("%w; first failure: %s", err, res.failure)
		}
		return nil, err
	}
	e2e["setup_s"] = median(setups)
	e2e["live_heap_mb"] = live
	res.endToEnd = e2e

	layer := c.reportedMetrics(samples, before, after)
	layer["proc.peak_rss_mb"] = rss
	if res.failure == "" {
		res.failure = checkReported(cfg.w, layer)
	}
	if cfg.trace {
		tsamples, err := c.tracedMetrics(ctx, rng, interval, e2e["qps"], cfg.traceFile, layer)
		if err != nil {
			return nil, err
		}
		bad, first := failures(tsamples)
		res.attempted += len(tsamples)
		res.failed += bad
		if res.failure == "" {
			res.failure = first
		}
		res.perLayer = layer
	}
	return res, nil
}

// checkReported holds the program's own counters to what the workload
// promises: warm workloads hit the plan cache every time, and nothing is
// replanned, re-optimised or left behind on a healthy cluster.
func checkReported(w workload, m metrics) string {
	if w.Options.PlanCacheSize > 0 && m["core.plan_cache_hit_ratio"] < 1 {
		return fmt.Sprintf("plan-cache hit ratio %.4f on a warm workload, want 1", m["core.plan_cache_hit_ratio"])
	}
	for _, name := range []string{"core.orphans_at_end", "core.replans", "core.reopts"} {
		if m[name] != 0 {
			return fmt.Sprintf("%s = %g, want 0", name, m[name])
		}
	}
	return ""
}

// runOutput is the last line of a run's standard output.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runAndPrint runs one workload in this process and prints its metrics:
// the end-to-end set untraced, the per-layer set traced.
func runAndPrint(w workload, seed uint64, seconds float64, trace bool) error {
	cfg := runConfig{w: w, seed: seed, seconds: seconds, trace: trace, setups: setupRepeats,
		traceFile: filepath.Join(outDir, "trace-"+w.Name+".json")}
	if trace {
		cfg.setups = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	defs, values := endToEnd, res.endToEnd
	if trace {
		defs, values = perLayer, res.perLayer
	}
	o := runOutput{Correct: res.failure == "", Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d seconds %g trace %v: %d queries, %d failed\n", w.Name, seed, seconds, trace, res.attempted, res.failed)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Printf("%-40s %16.4f %s\n", d.Name, v, d.Unit)
		o.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(o)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !o.Correct {
		return fmt.Errorf("%s: %s", w.Name, res.failure)
	}
	return nil
}
