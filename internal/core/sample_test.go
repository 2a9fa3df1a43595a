package core

import (
	"errors"
	"testing"
	"time"
)

// Proactive sampling scenarios (`make chaos`). The cluster's
// statistics are skewed with Engine.SkewStats — the stale-ANALYZE
// condition — and the tests assert the sampling pre-pass's invariants:
// a sampling-enabled query plans correctly on its FIRST run (zero
// mid-query re-optimizations, strictly fewer bytes shipped than a
// sampling-off run under the same skew), probes respect the configured
// row bound, never fire at a node whose breaker is open, degrade to the
// plain estimate on fault, and one exhausted probe's exact statistics
// benefit every subsequent query.

// sampleOptions enable the sampling pre-pass on top of the reopt chaos
// configuration: movement forced explicit and MaxReopts=2 in BOTH the
// on and off arms, so any reopt difference is attributable to sampling
// alone.
func sampleOptions(limit int) Options {
	opts := reoptOptions()
	opts.SampleLimit = limit
	return opts
}

// sampleOutcomes snapshots the per-outcome probe counters.
func sampleOutcomes() map[string]int64 {
	out := map[string]int64{}
	for _, o := range []string{"sampled", "agreed", "degraded_error", "skipped_breaker"} {
		out[o] = met.sampleProbes.With(o).Value()
	}
	return out
}

// TestSampleTransferSavings is the acceptance scenario: tickets'
// statistics under-report 10x (reported 5 rows, true 50), which sits
// under the sample limit, so the pre-pass probes tickets, exhausts it,
// and plans the first run against exact statistics — zero mid-query
// re-optimizations, strictly fewer bytes shipped than the sampling-off
// arm, which only discovers the skew at a materialization barrier after
// the wrong prefix already shipped. Both arms run with MaxReopts=2.
func TestSampleTransferSavings(t *testing.T) {
	run := func(t *testing.T, sampleLimit int) (*Result, int64) {
		t.Helper()
		cl := newChaosCluster(t, sampleOptions(sampleLimit))
		loadSavingsTables(t, cl)
		if err := cl.engines["db2"].SkewStats("tickets", 0.1); err != nil {
			t.Fatal(err)
		}
		cl.topo.Ledger().Reset()
		res, err := cl.sys.Query(reoptSavingsQuery)
		if err != nil {
			t.Fatal(err)
		}
		return res, cl.topo.Ledger().Total()
	}

	off, bytesOff := run(t, 0)
	if off.Breakdown.Reopts < 1 {
		t.Fatalf("sampling-off run never re-optimized (reopts=%d) — the skew scenario is broken",
			off.Breakdown.Reopts)
	}
	if off.Breakdown.SampleProbes != 0 {
		t.Errorf("sampling-off run counted %d probes, want 0", off.Breakdown.SampleProbes)
	}

	before := sampleOutcomes()
	on, bytesOn := run(t, 64)
	after := sampleOutcomes()

	if got, want := rowsText(on), rowsText(off); got != want {
		t.Fatalf("sampled result differs from unsampled:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The probe exhausted tickets before placement, so the first run is
	// the corrected run: no barrier divergence, no mid-query reopt.
	if on.Breakdown.Reopts != 0 {
		t.Errorf("sampling-on run re-optimized %d times, want 0 (the probe should pre-empt the barrier)",
			on.Breakdown.Reopts)
	}
	if on.Breakdown.EstimateErrors != 0 {
		t.Errorf("sampling-on run counted %d estimate errors, want 0", on.Breakdown.EstimateErrors)
	}
	if on.Breakdown.SampleProbes != 1 {
		t.Errorf("Breakdown.SampleProbes = %d, want 1 (only tickets sits under the limit)",
			on.Breakdown.SampleProbes)
	}
	if got := after["sampled"] - before["sampled"]; got < 1 {
		t.Errorf("xdb_sample_probes_total{outcome=sampled} delta = %d, want >= 1", got)
	}
	if bytesOn >= bytesOff {
		t.Errorf("sampled run moved %d bytes, unsampled %d — expected a transfer saving", bytesOn, bytesOff)
	}
	t.Logf("bytes moved: sampling-off=%d sampling-on=%d (%.0f%% saved), probes=%d, reopts on/off=%d/%d",
		bytesOff, bytesOn, 100*(1-float64(bytesOn)/float64(bytesOff)),
		on.Breakdown.SampleProbes, on.Breakdown.Reopts, off.Breakdown.Reopts)
}

// TestSampleDisabledNoOp pins the paper configuration: with SampleLimit
// 0 the pre-pass does not exist — no probes in the breakdown, no sample
// spans in the trace, no outcome counters moving — even under skew.
func TestSampleDisabledNoOp(t *testing.T) {
	opts := reoptOptions()
	opts.Trace = true
	cl := newChaosCluster(t, opts)
	if err := cl.engines["db2"].SkewStats("orders", 0.1); err != nil {
		t.Fatal(err)
	}
	before := sampleOutcomes()
	res, err := cl.sys.Query(failoverQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.SampleProbes != 0 {
		t.Errorf("Breakdown.SampleProbes = %d with sampling disabled, want 0", res.Breakdown.SampleProbes)
	}
	if sp := res.Trace.Find("sample"); sp != nil {
		t.Error("SampleLimit=0 trace contains a sample span")
	}
	for o, v := range sampleOutcomes() {
		if v != before[o] {
			t.Errorf("xdb_sample_probes_total{outcome=%s} moved (%d -> %d) with sampling disabled",
				o, before[o], v)
		}
	}
}

// TestSampleAccurateStatsAgree pins the no-harm side: with accurate
// statistics a triggered probe confirms the estimate (outcome "agreed"
// after the first corrective pass is never needed), changes nothing
// about the plan, and never trips a reopt.
func TestSampleAccurateStatsAgree(t *testing.T) {
	baseline := newChaosCluster(t, reoptOptions())
	loadSavingsTables(t, baseline)
	want, err := baseline.sys.Query(reoptSavingsQuery)
	if err != nil {
		t.Fatal(err)
	}

	cl := newChaosCluster(t, sampleOptions(64))
	loadSavingsTables(t, cl)
	before := sampleOutcomes()
	res, err := cl.sys.Query(reoptSavingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	after := sampleOutcomes()
	// tickets (50 rows) sits under the limit, so the probe fires — and
	// agrees with the already-accurate statistics.
	if res.Breakdown.SampleProbes != 1 {
		t.Errorf("Breakdown.SampleProbes = %d, want 1", res.Breakdown.SampleProbes)
	}
	if got := after["agreed"] - before["agreed"]; got != 1 {
		t.Errorf("xdb_sample_probes_total{outcome=agreed} delta = %d, want 1", got)
	}
	if got := after["sampled"] - before["sampled"]; got != 0 {
		t.Errorf("accurate statistics still produced a corrective probe (sampled delta %d)", got)
	}
	if res.Breakdown.Reopts != 0 || res.Breakdown.EstimateErrors != 0 {
		t.Errorf("accurate run reopted: reopts=%d estimate_errors=%d",
			res.Breakdown.Reopts, res.Breakdown.EstimateErrors)
	}
	if got, want := planShape(res.Plan), planShape(want.Plan); got != want {
		t.Errorf("sampled plan shape = %s, want %s (an agreeing probe must not change the plan)", got, want)
	}
	if got := rowsText(res); got != rowsText(want) {
		t.Errorf("rows differ from unsampled baseline:\n%s", got)
	}
	// An agreeing probe must be quiescent: no override installed, so
	// nothing was invalidated.
	if info, _ := cl.sys.catalog.Lookup("tickets"); info.Learned {
		t.Error("an agreeing probe installed a stats override")
	}
}

// TestSampleCrossQueryFeedback closes the cross-query loop: the first
// query's exhausted probe installs the exact statistics as an override,
// so the second query plans against the truth from its catalog — and
// its own re-verification probe (the override marks the node's reports
// stale) merely agrees, without re-installing or re-invalidating.
func TestSampleCrossQueryFeedback(t *testing.T) {
	cl := newChaosCluster(t, sampleOptions(64))
	loadSavingsTables(t, cl)
	if err := cl.engines["db2"].SkewStats("tickets", 0.1); err != nil {
		t.Fatal(err)
	}
	first, err := cl.sys.Query(reoptSavingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Breakdown.SampleProbes < 1 || first.Breakdown.Reopts != 0 {
		t.Fatalf("first query: probes=%d reopts=%d — scenario broken",
			first.Breakdown.SampleProbes, first.Breakdown.Reopts)
	}
	if info, _ := cl.sys.catalog.Lookup("tickets"); !info.Learned {
		t.Fatal("exhausted probe installed no stats override")
	}

	before := sampleOutcomes()
	second, err := cl.sys.Query(reoptSavingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	after := sampleOutcomes()
	if second.Breakdown.Reopts != 0 || second.Breakdown.EstimateErrors != 0 {
		t.Errorf("second query diverged: reopts=%d estimate_errors=%d — correction not carried over",
			second.Breakdown.Reopts, second.Breakdown.EstimateErrors)
	}
	// The node still reports the stale snapshot, so the override (and
	// the row count under the limit) keep the probe firing — but it now
	// agrees with the corrected catalog.
	if second.Breakdown.SampleProbes < 1 {
		t.Errorf("second query issued no re-verification probe (probes=%d)", second.Breakdown.SampleProbes)
	}
	if got := after["agreed"] - before["agreed"]; got < 1 {
		t.Errorf("xdb_sample_probes_total{outcome=agreed} delta = %d, want >= 1", got)
	}
	if got := after["sampled"] - before["sampled"]; got != 0 {
		t.Errorf("re-verification re-corrected (sampled delta %d), want quiescent agreement", got)
	}
	if second.Plan.Root.Node != first.Plan.Root.Node {
		t.Errorf("second query rooted on %s, first on %s", second.Plan.Root.Node, first.Plan.Root.Node)
	}
	if got, want := rowsText(second), rowsText(first); got != want {
		t.Errorf("second query's rows differ:\n%s\nvs\n%s", got, want)
	}
}

// TestSampleBreakerSkip opens a node's breaker and verifies a triggered
// probe is skipped without a round trip — sampling must never fire at a
// node that cannot answer, and must never fail the query by itself.
func TestSampleBreakerSkip(t *testing.T) {
	opts := chaosOptions()
	opts.SampleLimit = 8
	opts.BreakerBackoff = time.Minute // keep the breaker open for the whole test
	cl := newChaosCluster(t, opts)
	cl.sys.CacheStats = true // metadata survives the outage; only sampling decides
	if err := cl.engines["db2"].SkewStats("orders", 0.01); err != nil {
		t.Fatal(err) // reported 4 rows <= limit: the probe trigger
	}
	first, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Breakdown.SampleProbes < 1 {
		t.Fatalf("healthy run issued no probe (probes=%d) — trigger broken", first.Breakdown.SampleProbes)
	}

	// Trip db2's breaker: three consecutive failures reach the threshold.
	for i := 0; i < 3; i++ {
		cl.sys.health.record("db2", errors.New("induced: db2 unreachable"))
	}
	if st := cl.sys.NodeHealth()["db2"].State; st != BreakerOpen {
		t.Fatalf("db2 breaker = %v, want open", st)
	}

	before := sampleOutcomes()
	res, err := cl.sys.Query(chaosQuery)
	after := sampleOutcomes()
	if got := after["skipped_breaker"] - before["skipped_breaker"]; got != 1 {
		t.Errorf("xdb_sample_probes_total{outcome=skipped_breaker} delta = %d, want 1", got)
	}
	if got := after["degraded_error"] - before["degraded_error"]; got != 0 {
		t.Errorf("skipped probe still recorded a degraded error (delta %d)", got)
	}
	// The skip is still a counted decision; the query's fate is decided
	// by execution (orders lives on the dead node), not by sampling.
	if err == nil && res.Breakdown.SampleProbes != 1 {
		t.Errorf("Breakdown.SampleProbes = %d, want 1", res.Breakdown.SampleProbes)
	}
}

// TestSampleDegradedError crashes a node after its metadata is cached
// and verifies a failed probe degrades to the plain estimate — counted
// as degraded_error, never panicking, never masking the real fault.
func TestSampleDegradedError(t *testing.T) {
	opts := chaosOptions()
	opts.SampleLimit = 8
	cl := newChaosCluster(t, opts)
	cl.sys.CacheStats = true
	if err := cl.engines["db2"].SkewStats("orders", 0.01); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err) // warm: metadata cache, calibration
	}

	cl.topo.CrashNode("db2") // breaker still closed: the probe is attempted
	before := sampleOutcomes()
	_, err := cl.sys.Query(chaosQuery)
	after := sampleOutcomes()
	if got := after["degraded_error"] - before["degraded_error"]; got != 1 {
		t.Errorf("xdb_sample_probes_total{outcome=degraded_error} delta = %d, want 1", got)
	}
	if err == nil {
		t.Error("query against the crashed node succeeded without failover enabled")
	}
}

// TestSampleSerialParallelIdentical verifies the concurrent probe
// fan-out is a pure latency optimization: plan shape, probe count, and
// rows all match the serial pre-pass.
func TestSampleSerialParallelIdentical(t *testing.T) {
	run := func(t *testing.T, serial bool) *Result {
		t.Helper()
		opts := sampleOptions(64)
		opts.serial = serial
		cl := newChaosCluster(t, opts)
		loadSavingsTables(t, cl)
		// Two relations under the limit: the parallel path (>= 2
		// candidates) actually fans out.
		if err := cl.engines["db2"].SkewStats("tickets", 0.1); err != nil {
			t.Fatal(err)
		}
		if err := cl.engines["db3"].SkewStats("scans", 0.1); err != nil {
			t.Fatal(err)
		}
		res, err := cl.sys.Query(reoptSavingsQuery)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par := run(t, false)
	ser := run(t, true)
	// At least two probes per planning pass (tickets and scans both sit
	// under the limit); the truncated scans probe only raises its
	// estimate to the observed lower bound, so a barrier reopt may still
	// fire and its suffix re-plan runs the pre-pass again — identically
	// in both arms.
	if par.Breakdown.SampleProbes < 2 || par.Breakdown.SampleProbes != ser.Breakdown.SampleProbes {
		t.Errorf("probes parallel/serial = %d/%d, want equal and >= 2",
			par.Breakdown.SampleProbes, ser.Breakdown.SampleProbes)
	}
	if got, want := planShape(par.Plan), planShape(ser.Plan); got != want {
		t.Errorf("parallel plan shape = %s, serial = %s", got, want)
	}
	if got, want := rowsText(par), rowsText(ser); got != want {
		t.Errorf("parallel rows differ from serial:\n%s\nvs\n%s", got, want)
	}
}

// TestSampleSingleNodeNeverProbed pins the scoping rule: a query whose
// relations all live on one DBMS has no Rule-4 placement to get wrong,
// so sampling stays out of its way entirely.
func TestSampleSingleNodeNeverProbed(t *testing.T) {
	opts := chaosOptions()
	opts.SampleLimit = 8
	cl := newChaosCluster(t, opts)
	if err := cl.engines["db2"].SkewStats("orders", 0.01); err != nil {
		t.Fatal(err) // under the limit — would trigger in a cross-DB query
	}
	before := sampleOutcomes()
	res, err := cl.sys.Query("SELECT o.o_id FROM orders o WHERE o.o_uid = 7 ORDER BY o.o_id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown.SampleProbes != 0 {
		t.Errorf("single-DBMS query probed %d times, want 0", res.Breakdown.SampleProbes)
	}
	for o, v := range sampleOutcomes() {
		if v != before[o] {
			t.Errorf("outcome %s moved (%d -> %d) on a single-DBMS query", o, before[o], v)
		}
	}
}

// BenchmarkSample prices the pre-pass: the savings join with sampling
// off and on, under accurate and skewed statistics. With accurate
// statistics the on variant pays one bounded probe per query and must
// stay within noise of off; under skew it buys back the mid-query
// re-optimization the off variant pays at a barrier.
func BenchmarkSample(b *testing.B) {
	run := func(b *testing.B, sampleLimit int, skew float64) {
		opts := sampleOptions(sampleLimit)
		cl := newChaosCluster(b, opts)
		loadSavingsTables(b, cl)
		if skew != 1 {
			if err := cl.engines["db2"].SkewStats("tickets", skew); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := cl.sys.Query(reoptSavingsQuery); err != nil {
			b.Fatal(err) // warm: calibration, pools
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.sys.Query(reoptSavingsQuery); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("accurate/off", func(b *testing.B) { run(b, 0, 1) })
	b.Run("accurate/on", func(b *testing.B) { run(b, 64, 1) })
	b.Run("skewed/off", func(b *testing.B) { run(b, 0, 0.1) })
	b.Run("skewed/on", func(b *testing.B) { run(b, 64, 0.1) })
}
