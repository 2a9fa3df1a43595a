package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xdb/internal/netsim"
	"xdb/internal/sqltypes"
)

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and the tables in metrics.go and workload.go say the
// same thing.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %v, code default %v", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, code has %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, code has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, code has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 {
			t.Errorf("metric name %q is repeated or too long", d.Name)
		}
		seen[d.Name] = true
	}
}

// Every workload, at a size that finishes in seconds: every metric
// BENCHMARK.json names comes out finite, nothing fails, and a record
// diffed against itself has nothing worse.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	minReps, repBudget = 1, 0
	dir := t.TempDir()
	results := make([]*runResult, len(workloads))
	t.Run("workloads", func(t *testing.T) {
		for i, w := range workloads {
			i, w := i, w
			t.Run(w.Name, func(t *testing.T) {
				// The shaped workloads mostly sleep, so the four overlap;
				// the allocation counters mix, which this test does not read.
				t.Parallel()
				w.SF = 0.002
				traceFile := filepath.Join(dir, "trace-"+w.Name+".json")
				res, err := run(context.Background(), runConfig{w: w, seed: 3, seconds: 0.6, trace: true, setups: 1, traceFile: traceFile})
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.failure != "" || res.attempted == 0 {
					t.Fatalf("attempted %d, failed %d: %s", res.attempted, res.failed, res.failure)
				}
				for _, defs := range []struct {
					defs   []metricDef
					values metrics
				}{{b.EndToEnd, res.endToEnd}, {b.PerLayer, res.perLayer}} {
					for _, d := range defs.defs {
						v, ok := defs.values[d.Name]
						if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
							t.Errorf("metric %s: value %v, present %v", d.Name, v, ok)
						}
					}
				}
				for _, d := range b.EndToEnd {
					if res.endToEnd[d.Name] <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.endToEnd[d.Name])
					}
				}
				var spans []span
				data, err := os.ReadFile(traceFile)
				if err == nil {
					err = json.Unmarshal(data, &spans)
				}
				if err != nil || len(spans) == 0 {
					t.Fatalf("trace file: %d spans, %v", len(spans), err)
				}
				results[i] = res
			})
		}
	})
	if t.Failed() {
		return
	}

	rec := record{Commit: "test", Runs: 1}
	for i, w := range workloads {
		wr := workloadRecord{Name: w.Name}
		for _, d := range endToEnd {
			v := results[i].endToEnd[d.Name]
			wr.EndToEnd = append(wr.EndToEnd, metricRecord{d.Name, d.Unit, d.Better, v, v, v, 1})
		}
		rec.Workloads = append(rec.Workloads, wr)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := diffRecords(&out, path, path); err != nil {
		t.Fatal(err)
	}
	rows := strings.Count(out.String(), "within-bound")
	if want := len(workloads) * len(endToEnd); rows != want || !strings.Contains(out.String(), "\n0 worse") {
		t.Errorf("self-diff: %d within-bound rows, want %d:\n%s", rows, want, out.String())
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		values      []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 30, 20, 50, 40}, 15, 30, 45},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.values)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestModelledNet(t *testing.T) {
	ab, ba := netsim.Edge{From: "a", To: "b"}, netsim.Edge{From: "b", To: "a"}
	bytes := map[netsim.Edge]int64{ab: 1 << 20, ba: 100}
	frames := map[netsim.Edge]int64{ab: 10, ba: 2}
	link := func(from, to string) netsim.LinkSpec {
		if from == "a" {
			return netsim.LinkSpec{Bandwidth: 1 << 20, Latency: time.Millisecond}
		}
		return netsim.LinkSpec{Latency: 5 * time.Millisecond} // unshaped bandwidth
	}
	// a→b: 10 × 1 ms + 1 s; b→a: 2 × 5 ms.
	want := time.Second + 20*time.Millisecond
	if got := modelledNet(bytes, frames, link, 0); got != want {
		t.Errorf("modelledNet = %v, want %v", got, want)
	}
	if got := modelledNet(bytes, frames, link, 10); got != want/10 {
		t.Errorf("modelledNet at time scale 10 = %v, want %v", got, want/10)
	}
	delta := edgeDelta(map[netsim.Edge]int64{ab: 7, ba: 3}, map[netsim.Edge]int64{ab: 2, ba: 3})
	if len(delta) != 1 || delta[ab] != 5 {
		t.Errorf("edgeDelta = %v", delta)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 60}, // two clients' cycles overlap
		{ID: 3, Parent: 1, Start: 40, End: 90},
		{ID: 4, Parent: 2, Start: 10, End: 30},
	}
	selfTimes(spans)
	for i, want := range []int64{20, 30, 50, 20} {
		if spans[i].Self != want {
			t.Errorf("span %d self = %d, want %d", spans[i].ID, spans[i].Self, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	tight := func(v float64) metricRecord { return metricRecord{Median: v, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) metricRecord { return metricRecord{Median: v, Q1: v * 0.8, Q3: v * 1.2} }
	for _, c := range []struct {
		d        metricDef
		old, new metricRecord
		want     string
	}{
		{lower, tight(100), tight(105), "within-bound"},
		{lower, tight(100), tight(120), "worse"},
		{lower, tight(100), tight(80), "better"},
		{higher, tight(100), tight(80), "worse"},
		{higher, tight(100), tight(120), "better"},
		{lower, wide(100), tight(120), "unresolved"},
		{lower, wide(100), wide(200), "worse"},
	} {
		if _, got := verdict(c.d, c.old, c.new); got != c.want {
			t.Errorf("verdict(%s, %v → %v) = %s, want %s", c.d.Better, c.old.Median, c.new.Median, got, c.want)
		}
	}
}

func TestSameRows(t *testing.T) {
	row := func(k int64, s string, f float64) sqltypes.Row {
		return sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewString(s), sqltypes.NewFloat(f)}
	}
	want := []sqltypes.Row{row(1, "a", 1000), row(2, "b", 1000), row(3, "c", 5)}
	if !sameRows([]sqltypes.Row{row(1, "a", 1000.0005), row(2, "b", 1000), row(3, "c", 5)}, want) {
		t.Error("floats within 1e-6 relative should match")
	}
	if !sameRows([]sqltypes.Row{row(2, "b", 1000), row(1, "a", 1000), row(3, "c", 5)}, want) {
		t.Error("tied ORDER BY keys may come in another order")
	}
	if sameRows([]sqltypes.Row{row(1, "a", 1001), row(2, "b", 1000), row(3, "c", 5)}, want) {
		t.Error("a float off by 1e-3 relative should not match")
	}
	if sameRows(want[:2], want) || sameRows([]sqltypes.Row{row(1, "a", 1000), row(2, "b", 1000), row(4, "c", 5)}, want) {
		t.Error("a missing or different row should not match")
	}
}
