package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"xdb/internal/planner"
	"xdb/internal/sqltypes"
)

// Proactive sampling scenarios (`make chaos`). The cluster's
// statistics are skewed with Engine.SkewStats — the stale-ANALYZE
// condition — and the tests assert the sampling pre-pass's invariants:
// a sampling-enabled query plans correctly on its FIRST run (strictly
// fewer bytes shipped than a sampling-off run under the same skew),
// probes respect the configured
// row bound, never fire at a node whose breaker is open, degrade to the
// plain estimate on fault, and one exhausted probe's exact statistics
// benefit every subsequent query.

// sampleOptions enable the sampling pre-pass (limit 0: off) on the chaos
// cluster with movement forced explicit, so every edge materializes and
// a mis-placed join ships its whole input.
func sampleOptions(limit int) Options {
	opts := chaosOptions()
	opts.ForceMovement = planner.MoveExplicit
	opts.SampleLimit = limit
	return opts
}

// loadSavingsTables builds the transfer-savings scenario on a chaos
// cluster: members (db1, 10 rows per key), tickets (db2, the table whose
// statistics will be skewed), and scans (db3, several rows per ticket,
// each with a note the query selects). The fan-out sits in the joins, so
// a misestimate on tickets deflates the tickets-scans join output
// estimate and mis-places the final join. The notes make the shipped rows
// outweigh the control-plane bytes under the compact binary row codec,
// where keys take a byte or two.
func loadSavingsTables(t testing.TB, cl *chaosCluster) {
	t.Helper()
	load := func(node, table string, schema *sqltypes.Schema, rows []sqltypes.Row) {
		if err := cl.engines[node].LoadTable(table, schema, rows); err != nil {
			t.Fatal(err)
		}
		if err := cl.sys.RegisterTable(table, node); err != nil {
			t.Fatal(err)
		}
	}
	members := sqltypes.NewSchema(
		sqltypes.Column{Name: "m_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "m_name", Type: sqltypes.TypeString},
	)
	var mrows []sqltypes.Row
	for i := 0; i < 100; i++ { // 10 members per key
		mrows = append(mrows, sqltypes.Row{
			sqltypes.NewInt(int64(i % 10)), sqltypes.NewString(fmt.Sprintf("m-%03d", i)),
		})
	}
	load("db1", "members", members, mrows)
	tickets := sqltypes.NewSchema(
		sqltypes.Column{Name: "t_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "t_mid", Type: sqltypes.TypeInt},
	)
	var trows []sqltypes.Row
	for i := 0; i < 50; i++ {
		trows = append(trows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 10)),
		})
	}
	load("db2", "tickets", tickets, trows)
	scans := sqltypes.NewSchema(
		sqltypes.Column{Name: "s_id", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "s_tid", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "s_note", Type: sqltypes.TypeString},
	)
	var srows []sqltypes.Row
	for i := 0; i < 300; i++ { // 6 scans per ticket
		srows = append(srows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 50)),
			sqltypes.NewString(fmt.Sprintf("scan %03d of ticket %02d, read at the gate", i, i%50)),
		})
	}
	load("db3", "scans", scans, srows)
}

const savingsQuery = "SELECT m.m_name, t.t_id, s.s_id, s.s_note FROM members m, tickets t, scans s " +
	"WHERE m.m_id = t.t_mid AND t.t_id = s.s_tid ORDER BY s.s_id, m.m_name"

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
// and plans the first run against exact statistics — strictly fewer bytes
// shipped than the sampling-off arm, which plans against the skew and
// ships the inflated intermediate.
func TestSampleTransferSavings(t *testing.T) {
	run := func(t *testing.T, sampleLimit int) (*Result, int64) {
		t.Helper()
		cl := newChaosCluster(t, sampleOptions(sampleLimit))
		loadSavingsTables(t, cl)
		if err := cl.engines["db2"].SkewStats("tickets", 0.1); err != nil {
			t.Fatal(err)
		}
		cl.topo.Ledger().Reset()
		res, err := cl.sys.Query(savingsQuery)
		if err != nil {
			t.Fatal(err)
		}
		return res, cl.topo.Ledger().Total()
	}

	off, bytesOff := run(t, 0)
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
	// the corrected run.
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
	t.Logf("bytes moved: sampling-off=%d sampling-on=%d (%.0f%% saved), probes=%d",
		bytesOff, bytesOn, 100*(1-float64(bytesOn)/float64(bytesOff)), on.Breakdown.SampleProbes)
}

// TestSampleDisabledNoOp pins the paper configuration: with SampleLimit
// 0 the pre-pass does not exist — no probes in the breakdown, no sample
// spans in the trace, no outcome counters moving — even under skew.
func TestSampleDisabledNoOp(t *testing.T) {
	opts := sampleOptions(0)
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
// after the first corrective pass is never needed) and changes nothing
// about the plan.
func TestSampleAccurateStatsAgree(t *testing.T) {
	baseline := newChaosCluster(t, sampleOptions(0))
	loadSavingsTables(t, baseline)
	want, err := baseline.sys.Query(savingsQuery)
	if err != nil {
		t.Fatal(err)
	}

	cl := newChaosCluster(t, sampleOptions(64))
	loadSavingsTables(t, cl)
	before := sampleOutcomes()
	res, err := cl.sys.Query(savingsQuery)
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
	first, err := cl.sys.Query(savingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if first.Breakdown.SampleProbes < 1 {
		t.Fatalf("first query: probes=%d — scenario broken", first.Breakdown.SampleProbes)
	}
	if info, _ := cl.sys.catalog.Lookup("tickets"); !info.Learned {
		t.Fatal("exhausted probe installed no stats override")
	}

	before := sampleOutcomes()
	second, err := cl.sys.Query(savingsQuery)
	if err != nil {
		t.Fatal(err)
	}
	after := sampleOutcomes()
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
		res, err := cl.sys.Query(savingsQuery)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par := run(t, false)
	ser := run(t, true)
	// At least two probes (tickets and scans both sit under the limit),
	// the same number in both arms.
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
// stay within noise of off; under skew it buys back the inflated
// intermediate the off variant ships.
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
		if _, err := cl.sys.Query(savingsQuery); err != nil {
			b.Fatal(err) // warm: calibration, pools
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.sys.Query(savingsQuery); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("accurate/off", func(b *testing.B) { run(b, 0, 1) })
	b.Run("accurate/on", func(b *testing.B) { run(b, 64, 1) })
	b.Run("skewed/off", func(b *testing.B) { run(b, 0, 0.1) })
	b.Run("skewed/on", func(b *testing.B) { run(b, 64, 0.1) })
}
