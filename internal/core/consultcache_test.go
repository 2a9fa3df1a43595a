package core

import (
	"context"
	"math"
	"regexp"
	"testing"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// sqlThreeTables joins across all three test DBMSes, producing two Rule-4
// decisions — the shape the probe-count regressions below pin down.
const sqlThreeTables = `SELECT s.s_id FROM small s, medium m, large l
	WHERE s.s_id = m.m_sid AND m.m_id = l.l_mid`

func TestBucketCard(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{-5, 0},
		{math.Inf(1), 0},
		{math.NaN(), 0},
		{1, 1},
		{123, 123},
		{123456, 123000},
		{123499, 123000},
		{123500, 124000},
		{999999, 1_000_000},
		{0.001234, 0.00123},
	}
	for _, tc := range cases {
		got := bucketCard(tc.in)
		if math.Abs(got-tc.want) > 1e-9*math.Max(1, tc.want) {
			t.Errorf("bucketCard(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Near-identical estimates fold onto one entry; materially different
	// ones stay apart.
	if bucketCard(100000) != bucketCard(100400) {
		t.Error("estimates within a third significant digit did not fold")
	}
	if bucketCard(100000) == bucketCard(101000) {
		t.Error("estimates a percent apart collided")
	}
}

// priced is a join's prices, all but the first zero.
func priced(join float64) engine.JoinPrices { return engine.JoinPrices{Join: join} }

func TestConsultCacheTTLEviction(t *testing.T) {
	c := newConsultCache(30 * time.Millisecond)
	c.store("db1", 100, 0, 0, priced(42))
	if v, ok := c.lookup("db1", 100, 0, 0); !ok || v != priced(42) {
		t.Fatalf("fresh lookup = (%v, %v), want (42, true)", v, ok)
	}
	// Bucketing: a near-identical cardinality hits the same entry.
	if _, ok := c.lookup("db1", 100.2, 0, 0); !ok {
		t.Error("bucketed lookup missed")
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := c.lookup("db1", 100, 0, 0); ok {
		t.Error("lookup hit past the TTL")
	}
	st := c.stats()
	if st.Entries != 0 || st.Hits != 2 || st.Misses != 1 || st.Evictions != 1 {
		t.Errorf("stats after expiry = %+v, want 0 entries / 2 hits / 1 miss / 1 eviction", st)
	}
}

func TestConsultCacheInvalidateNode(t *testing.T) {
	c := newConsultCache(time.Minute)
	c.store("db1", 100, 0, 0, priced(1))
	c.store("db1", 100, 200, 50, priced(2))
	c.store("db2", 100, 0, 0, priced(3))
	if n := c.invalidateNode("db1"); n != 2 {
		t.Errorf("invalidateNode(db1) evicted %d, want 2", n)
	}
	if c.occupancy() != 1 {
		t.Errorf("occupancy = %d after invalidation, want 1", c.occupancy())
	}
	if _, ok := c.lookup("db2", 100, 0, 0); !ok {
		t.Error("db2's entry did not survive db1's invalidation")
	}
	if st := c.stats(); st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", st.Evictions)
	}
}

func TestConsultCacheDisabledIsNil(t *testing.T) {
	var c *consultCache // ConsultCacheTTL == 0: every method is a no-op
	if c := newConsultCache(0); c != nil {
		t.Fatal("newConsultCache(0) returned a live cache")
	}
	c.store("db1", 1, 0, 0, priced(1))
	if _, ok := c.lookup("db1", 1, 0, 0); ok {
		t.Error("nil cache reported a hit")
	}
	if c.invalidateNode("db1") != 0 || c.occupancy() != 0 {
		t.Error("nil cache reported occupancy")
	}
	if st := c.stats(); st != (ConsultCacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zero", st)
	}
}

// TestConsultCacheNonFiniteBypass is the regression for the poisoned-key
// collision: bucketCard folds NaN and Inf onto the 0 bucket, where a
// non-finite probe would share an entry with a legitimate
// zero-cardinality probe and serve it the wrong cost. Such probes must
// bypass the cache entirely — never stored, never looked up, never
// counted.
func TestConsultCacheNonFiniteBypass(t *testing.T) {
	c := newConsultCache(time.Minute)
	// A legitimate zero-cardinality probe occupies the 0 bucket.
	c.store("db1", 0, 0, 0, priced(7))

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c.store("db1", bad, 0, 0, priced(999))
		c.store("db1", 100, bad, 50, priced(999))
		c.store("db1", 100, 200, bad, priced(999))
		if _, ok := c.lookup("db1", bad, 0, 0); ok {
			t.Errorf("lookup with cardinality %v hit the cache", bad)
		}
	}
	// The poisoned stores neither grew the cache nor clobbered the
	// legitimate zero entry.
	if c.occupancy() != 1 {
		t.Errorf("occupancy = %d after non-finite stores, want 1", c.occupancy())
	}
	if v, ok := c.lookup("db1", 0, 0, 0); !ok || v != priced(7) {
		t.Errorf("zero-cardinality entry = (%v, %v), want (7, true)", v, ok)
	}
	// Bypassed probes are invisible to the hit/miss accounting: one hit
	// from the legitimate lookup, nothing else.
	if st := c.stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want exactly 1 hit / 0 misses (bypasses uncounted)", st)
	}
}

// annotateFake runs the full logical pipeline and annotation against the
// fake cluster (no live engines, no cross-query cache) and returns the
// annotation, the fake, and the finalized plan's rendering.
func annotateFake(t *testing.T, sql string, opts Options) (*planner.Annotation, *fakeCluster, string) {
	t.Helper()
	a, root := ordered(t, newTestCatalog(), sql, opts)
	cluster := &fakeCluster{nodes: []string{"db1", "db2", "db3"}}
	ann, err := cluster.annotate(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	desc, err := planner.Finalize(a, root, ann).Describe()
	if err != nil {
		t.Fatal(err)
	}
	return ann, cluster, desc
}

// TestAnnotateProbeCounts pins the exact consultation of a three-table
// cross-database plan, two Rule-4 decisions deep: a probe per (join, node)
// pair some decision could price, and one call per node asked. With the
// paper's two-candidate pruning the lower join asks its two inputs' nodes
// and the upper join all three nodes its inputs can sit on (5 probes); the
// full candidate set asks every node for both joins (6).
func TestAnnotateProbeCounts(t *testing.T) {
	cases := []struct {
		name                   string
		opts                   Options
		wantRounds, wantCached int
	}{
		{"pruned candidates", Options{}, 5, 0},
		{"pruned candidates serial", Options{serial: true}, 5, 0},
		{"full candidate set", Options{FullCandidateSet: true}, 6, 0},
		{"full candidate set serial", Options{FullCandidateSet: true, serial: true}, 6, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ann, coster, _ := annotateFake(t, sqlThreeTables, tc.opts)
			if ann.ConsultRounds != tc.wantRounds {
				t.Errorf("ConsultRounds = %d, want %d", ann.ConsultRounds, tc.wantRounds)
			}
			if got := coster.probeCount(); got != tc.wantRounds {
				t.Errorf("coster saw %d probes, want %d (ConsultRounds must count probes sent)", got, tc.wantRounds)
			}
			for _, n := range coster.nodes {
				if got := coster.callsTo(n); got != 1 {
					t.Errorf("%s was consulted %d times, want once", n, got)
				}
			}
			if ann.CachedProbes != tc.wantCached {
				t.Errorf("CachedProbes = %d, want %d", ann.CachedProbes, tc.wantCached)
			}
			if ann.DegradedProbes != 0 {
				t.Errorf("DegradedProbes = %d on a healthy cluster", ann.DegradedProbes)
			}
		})
	}
}

// TestAnnotateSerialParallelIdentical verifies the per-node consultation
// fan-out is a pure latency optimization: the chosen plan and every
// counter match the serial annotator byte for byte.
func TestAnnotateSerialParallelIdentical(t *testing.T) {
	for _, opts := range []Options{{}, {FullCandidateSet: true}} {
		serial := opts
		serial.serial = true
		annP, _, planP := annotateFake(t, sqlThreeTables, opts)
		annS, _, planS := annotateFake(t, sqlThreeTables, serial)
		if planP != planS {
			t.Errorf("FullCandidateSet=%v: parallel plan differs from serial:\n--- parallel ---\n%s\n--- serial ---\n%s",
				opts.FullCandidateSet, planP, planS)
		}
		if annP.ConsultRounds != annS.ConsultRounds || annP.CachedProbes != annS.CachedProbes ||
			annP.DegradedProbes != annS.DegradedProbes {
			t.Errorf("FullCandidateSet=%v: counters differ: parallel=%d/%d/%d serial=%d/%d/%d",
				opts.FullCandidateSet,
				annP.ConsultRounds, annP.CachedProbes, annP.DegradedProbes,
				annS.ConsultRounds, annS.CachedProbes, annS.DegradedProbes)
		}
	}
}

// TestConsultCacheWarmRepeat is the end-to-end acceptance check: with
// Options.ConsultCacheTTL set, repeating a query issues zero consultation
// RPCs — every probe is served from the cache — and produces the same XDB
// query. CacheStats stays off so every repeat re-fetches statistics,
// exercising the TableStats.Same guard: an unchanged refresh must not
// invalidate the cache.
func TestConsultCacheWarmRepeat(t *testing.T) {
	opts := chaosOptions()
	opts.ConsultCacheTTL = time.Minute
	cl := newChaosCluster(t, opts)

	cold, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Breakdown.ConsultRounds == 0 {
		t.Fatal("cold query consulted nothing; the scenario is broken")
	}
	if cold.Breakdown.CachedProbes != 0 {
		t.Errorf("cold query CachedProbes = %d, want 0", cold.Breakdown.CachedProbes)
	}

	warm, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Breakdown.ConsultRounds != 0 {
		t.Errorf("warm repeat issued %d consult RPCs, want 0", warm.Breakdown.ConsultRounds)
	}
	if warm.Breakdown.CachedProbes != cold.Breakdown.ConsultRounds {
		t.Errorf("warm CachedProbes = %d, want %d (every cold consult answered from cache)",
			warm.Breakdown.CachedProbes, cold.Breakdown.ConsultRounds)
	}
	// Short-lived relation names carry a per-query sequence number;
	// normalize it away before comparing the plans structurally.
	seqRE := regexp.MustCompile(`xdb\d+_`)
	coldQ := seqRE.ReplaceAllString(cold.XDBQuery, "xdbN_")
	warmQ := seqRE.ReplaceAllString(warm.XDBQuery, "xdbN_")
	if warmQ != coldQ {
		t.Errorf("warm plan diverged:\ncold: %s\nwarm: %s", cold.XDBQuery, warm.XDBQuery)
	}
	if got, want := planShape(warm.Plan), planShape(cold.Plan); got != want {
		t.Errorf("warm plan shape = %s, want %s", got, want)
	}

	cs := cl.sys.consults.stats()
	if cs.Entries == 0 {
		t.Error("cache empty after two queries")
	}
	if cs.Hits < int64(warm.Breakdown.CachedProbes) {
		t.Errorf("cache hits = %d, want >= %d", cs.Hits, warm.Breakdown.CachedProbes)
	}
	if st := cl.sys.Stats(); st.ConsultCache != cs {
		t.Errorf("Stats().ConsultCache = %+v, want %+v", st.ConsultCache, cs)
	}
}

// TestChaosConsultCacheBreakerInvalidation crashes a node under a warm
// cache: the breaker transition must drop exactly that node's entries
// (costs consulted before an outage say nothing about the node after it),
// leave the survivors' entries serving, and refill after recovery.
func TestChaosConsultCacheBreakerInvalidation(t *testing.T) {
	opts := chaosOptions()
	opts.ConsultCacheTTL = time.Minute
	cl := newChaosCluster(t, opts)
	cl.sys.CacheStats = true

	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}
	warm, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Breakdown.ConsultRounds != 0 {
		t.Fatalf("warm repeat consulted %d times, want 0", warm.Breakdown.ConsultRounds)
	}
	before := cl.sys.Stats().ConsultCache
	if before.Entries != 2 {
		t.Fatalf("warm cache holds %d entries, want 2 (the join's prices at each candidate node)", before.Entries)
	}

	cl.topo.CrashNode("db2")
	// Trip db2's breaker: three failed probes reach the threshold.
	for i := 0; i < 3; i++ {
		if err := probeNode(cl.sys, "db2"); err == nil {
			t.Fatal("cost probe to crashed node succeeded")
		}
	}
	if st := cl.sys.NodeHealth()["db2"].State; st != BreakerOpen {
		t.Fatalf("db2 breaker = %v, want open", st)
	}
	after := cl.sys.Stats().ConsultCache
	if after.Entries != 1 {
		t.Errorf("entries after breaker opened = %d, want 1 (db2's dropped, db1's kept)", after.Entries)
	}
	if got := after.Evictions - before.Evictions; got != 1 {
		t.Errorf("breaker transition evicted %d entries, want 1", got)
	}

	// Recovery: past the backoff the node is re-consulted and the cache
	// refills — the next repeat is fully warm again.
	cl.topo.ReviveNode("db2")
	deadline := time.Now().Add(5 * time.Second)
	var res *Result
	for {
		if res, err = cl.sys.Query(chaosQuery); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query still failing after revival: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if res.Breakdown.ConsultRounds == 0 {
		t.Error("recovery query consulted nothing; db2's entries were not invalidated")
	}
	if res.Breakdown.CachedProbes == 0 {
		t.Error("recovery query hit nothing; db1's entries should have survived")
	}
	rewarm, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rewarm.Breakdown.ConsultRounds != 0 {
		t.Errorf("post-recovery repeat consulted %d times, want 0 (cache refilled)", rewarm.Breakdown.ConsultRounds)
	}
}

// TestConsultCacheCalibrationChange consults a Postgres and a Hive node
// before either has calibrated, then calibrates them: the prices cached in
// the nodes' raw units must not be served in the calibrated currency.
func TestConsultCacheCalibrationChange(t *testing.T) {
	sys := NewSystem("m", "c", nil, Options{ConsultCacheTTL: time.Minute})
	client := wire.NewClient("m", nil)
	t.Cleanup(func() { sys.Close(); client.Close() })
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
	for _, n := range []struct {
		node, table string
		vendor      engine.Vendor
		rows        int
	}{{"db1", "t", engine.VendorPostgres, 300}, {"db2", "v", engine.VendorHive, 200}} {
		eng := engine.New(engine.Config{Name: n.node, Vendor: n.vendor})
		rows := make([]sqltypes.Row, n.rows)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
		}
		if err := eng.LoadTable(n.table, schema, rows); err != nil {
			t.Fatal(err)
		}
		srv, err := wire.NewServer(eng)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		sys.Register(connector.New(n.node, srv.Addr(), n.vendor, client))
		if err := sys.RegisterTable(n.table, n.node); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	sel, err := sqlparser.ParseSelect("SELECT t.a FROM t, v WHERE t.a = v.a")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.gatherMetadata(ctx, sel); err != nil {
		t.Fatal(err)
	}
	annotateJoin := func() *planner.Join {
		_, root := ordered(t, sys.catalog, sel.String(), sys.opts)
		sites := planner.NewSites(sys.health.healthy, sys.linkFactor, nil)
		if _, err := annotate(ctx, root, sites, sys.priceJoins, sys.consults, sys.opts); err != nil {
			t.Fatal(err)
		}
		return root.In.(*planner.Join)
	}

	annotateJoin()
	sys.calibrate(ctx)
	j := annotateJoin()
	l, r, out := planner.Ask{Join: j}.Est()
	for _, node := range []string{"db1", "db2"} {
		cached, ok := sys.consults.lookup(node, l, r, out)
		if !ok {
			t.Fatalf("%s: the join's prices are not cached", node)
		}
		fresh, errs := sys.priceJoins(ctx, node, []connector.JoinProbe{{Left: l, Right: r, Out: out}})
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		if cached != fresh[0] {
			t.Errorf("%s: cached prices %+v, the calibrated node answers %+v", node, cached, fresh[0])
		}
	}
}
