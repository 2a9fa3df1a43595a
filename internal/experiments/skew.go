package experiments

import (
	"fmt"
	"math"
	"strings"

	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
)

// The estimate-correction sweep (EXPERIMENTS.md "Estimate correction
// under skewed statistics"): one table a query reads reports statistics
// skewed by a factor while its scans return the true rows, and each arm —
// a set of optimizer options — runs the query twice on a fresh testbed.
// The first run shows what the arm does before anything is learned, the
// repeat what the first run taught it. Bytes are the whole inter-node
// ledger: control plane, data plane and result delivery.

// skewCase is one skewed statistic: a query under a distribution, with
// one table's reported statistics scaled by factor.
type skewCase struct {
	td, query, table string
	factor           float64
}

func (c skewCase) String() string {
	return fmt.Sprintf("%s %s %s x%g", c.td, c.query, c.table, c.factor)
}

// skewRun is what one arm shipped on one case: bytes on the first run and
// on the repeat, and whether both answers matched the unskewed one.
type skewRun struct {
	first, repeat int64
	correct       bool
}

// The sweep's scale: small, with the link delays divided away, since
// bytes, not time, are measured.
const (
	skewSF        = 0.01
	skewTimeScale = 1e6
)

// skewCases lists every (distribution, query, table the query reads,
// factor) combination.
func skewCases(tds, queries []string, factors []float64) ([]skewCase, error) {
	var out []skewCase
	for _, td := range tds {
		for _, q := range queries {
			sel, err := sqlparser.ParseSelect(tpch.Queries[q])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q, err)
			}
			seen := map[string]bool{}
			for _, from := range sel.From {
				table := strings.ToLower(from.Name)
				if seen[table] {
					continue
				}
				seen[table] = true
				for _, f := range factors {
					out = append(out, skewCase{td: td, query: q, table: table, factor: f})
				}
			}
		}
	}
	return out, nil
}

func skewTestbed(td string, opts core.Options) (*testbed.Testbed, error) {
	return testbed.NewTPCH(td, skewSF, testbed.Config{
		DefaultVendor: engine.VendorTest,
		Options:       opts,
		TimeScale:     skewTimeScale,
	})
}

// skewAnswer runs a query on an unskewed testbed: the answer every arm
// must reproduce.
func skewAnswer(td, q string) (*engine.Result, error) {
	tb, err := skewTestbed(td, core.Options{})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	res, err := tb.System.Query(tpch.Queries[q])
	if err != nil {
		return nil, fmt.Errorf("%s %s unskewed: %w", td, q, err)
	}
	return res.Result, nil
}

// runSkewed runs one case under one arm on a fresh testbed: the skew is
// applied, then the query runs twice.
func runSkewed(c skewCase, opts core.Options, want *engine.Result) (skewRun, error) {
	tb, err := skewTestbed(c.td, opts)
	if err != nil {
		return skewRun{}, err
	}
	defer tb.Close()
	if err := tb.SkewStats(c.table, c.factor); err != nil {
		return skewRun{}, err
	}
	run := skewRun{correct: true}
	for _, bytes := range []*int64{&run.first, &run.repeat} {
		tb.ResetTransfers()
		res, err := tb.System.Query(tpch.Queries[c.query])
		if err != nil {
			return skewRun{}, fmt.Errorf("%s: %w", c, err)
		}
		*bytes = tb.Topo.Ledger().Total()
		run.correct = run.correct && sameAnswer(res.Result, want)
	}
	return run, nil
}

// sameAnswer reports whether two results hold the same rows in the same
// order, floats equal up to summation order (a relative 1e-9): a plan
// that sums in another order may change the last digits of a SUM.
func sameAnswer(a, b *engine.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j, x := range a.Rows[i] {
			y := b.Rows[i][j]
			if x.T == sqltypes.TypeFloat && y.T == sqltypes.TypeFloat {
				if math.Abs(x.Float()-y.Float()) > 1e-9*math.Max(math.Abs(x.Float()), 1) {
					return false
				}
			} else if x.String() != y.String() {
				return false
			}
		}
	}
	return true
}

// SkewSweep runs every TD1–TD3 case of the configured queries under both
// skew factors (×0.1, ×10) with sampling off and at SampleLimit 1000,
// under cost-based movement and with every edge forced explicit (so
// every edge is a drained materialization). It reports each arm's total
// bytes over the first runs and over the repeats, and how many cases
// answered differently from the unskewed run (there must be none).
func SkewSweep(cfg Config) (*Report, error) {
	cases, err := skewCases(tpch.TDNames, cfg.Queries, []float64{0.1, 10})
	if err != nil {
		return nil, err
	}
	want := map[string]*engine.Result{}
	for _, c := range cases {
		key := c.td + " " + c.query
		if want[key] == nil {
			if want[key], err = skewAnswer(c.td, c.query); err != nil {
				return nil, err
			}
		}
	}
	r := &Report{
		Title:  fmt.Sprintf("Estimate correction — %d skewed cases (sf %g)", len(cases), skewSF),
		Header: []string{"movement", "SampleLimit", "first runs", "repeats", "wrong answers"},
	}
	for _, mode := range []struct {
		name string
		move planner.Movement
	}{{"cost-based", 0}, {"forced explicit", planner.MoveExplicit}} {
		for _, limit := range []int{0, 1000} {
			var first, repeat int64
			wrong := 0
			for _, c := range cases {
				run, err := runSkewed(c, core.Options{ForceMovement: mode.move, SampleLimit: limit}, want[c.td+" "+c.query])
				if err != nil {
					return nil, err
				}
				first += run.first
				repeat += run.repeat
				if !run.correct {
					wrong++
				}
			}
			r.Add(mode.name, limit, fmt.Sprintf("%d B", first), fmt.Sprintf("%d B", repeat), wrong)
		}
	}
	r.Note("bytes: the whole inter-node ledger; every arm and case on a fresh testbed, the query run twice")
	return r, nil
}
