package core

import (
	"context"
	"math"
	"strconv"
	"strings"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/obs"
)

// Proactive sampling-based estimate refinement: the optimistic half of the
// cardinality feedback loop. Re-optimization (reopt.go) corrects a
// misestimate after a materialization barrier disproved it — after the
// wrong stage already shipped. Sampling corrects it before anything
// ships: when a query spans DBMSes (so a Rule-4 placement is coming) and
// a relation's estimate is low-confidence, the optimizer issues a
// bounded-sample probe — scan at most Options.SampleLimit rows, count the
// predicate matches, sketch per-column statistics — against the
// relation's home DBMS, and substitutes the observed truth into the same
// machinery the barriers feed: the scan's estimate and statistics for
// this query, and a statsOverride for every subsequent one.
//
// A probe is low-confidence-triggered, never unconditional:
//
//	(a) the relation has no column statistics at all;
//	(b) a prior statsOverride marks the home DBMS's reported statistics
//	    as known-stale — re-verify them for the price of one bounded
//	    scan instead of trusting either side blindly;
//	(c) the two cheapest relations' estimated shipping volumes are
//	    within Options.SampleTrigger of each other — the movement
//	    decision is ambiguous, and a wrong pick ships the wrong side;
//	(d) the relation's reported row count is at most the sample limit —
//	    the probe will scan the whole relation (as reported), so exact
//	    truth costs no more than the estimate it verifies, and a
//	    deflated report is discovered rather than believed.
//
// Probes are control-plane calls like consultations (call.go), fanned out
// concurrently; an open breaker skips the probe — it never fires against a
// node that cannot answer — and any fault degrades to the plain estimate.
// Sampling never fails a query.

// DefaultSampleTrigger is the shipping-volume ratio under which a
// movement decision counts as ambiguous (trigger c) when
// Options.SampleTrigger is unset.
const DefaultSampleTrigger = 2.0

// sampleTrigger resolves the configured ambiguity threshold.
func (s *System) sampleTrigger() float64 {
	if s.opts.SampleTrigger > 0 {
		return s.opts.SampleTrigger
	}
	return DefaultSampleTrigger
}

// SampleRelation issues one bounded-sample probe against a relation's
// home DBMS: a call taking one unit of the node's budget, like any
// consultation.
func (s *System) SampleRelation(ctx context.Context, node, table, alias, filter string, limit int64) (res *engine.SampleResult, err error) {
	err = s.call(ctx, node, 1, func(rctx context.Context, c *connector.Connector) (err error) {
		res, err = c.Sample(rctx, table, alias, filter, limit)
		return err
	})
	return res, err
}

// sampleRefine runs the sampling pre-pass over the query's scans and
// returns the number of probes considered (including skipped and failed
// ones — the Breakdown counts decisions, the metrics split outcomes).
// It mutates the triggered scans' estimates and statistics in place, so
// join ordering and annotation both see the refined cardinalities.
func (s *System) sampleRefine(ctx context.Context, scans []*Scan) int {
	limit := int64(s.opts.SampleLimit)
	cands := s.sampleCandidates(scans, limit)
	fanOutFirstErr(ctx, len(cands), s.opts.serial, func(fctx context.Context, i int) error {
		s.sampleScan(fctx, cands[i], limit)
		return nil
	})
	return len(cands)
}

// sampleCandidates applies the low-confidence triggers. Sampling only
// pays off ahead of a cross-database decision: a single-relation or
// single-DBMS query has no Rule-4 placement to get wrong, so it is never
// probed.
func (s *System) sampleCandidates(scans []*Scan, limit int64) []*Scan {
	if len(scans) < 2 {
		return nil
	}
	nodes := map[string]bool{}
	for _, sc := range scans {
		nodes[sc.Node] = true
	}
	if len(nodes) < 2 {
		return nil
	}

	// Trigger (c): rank the relations by estimated shipping volume; when
	// the two cheapest are within the trigger ratio, the movement
	// decision between them is ambiguous and both get verified.
	i1, i2 := -1, -1
	for i, sc := range scans {
		v := moveCost(sc, 1)
		switch {
		case i1 < 0 || v < moveCost(scans[i1], 1):
			i1, i2 = i, i1
		case i2 < 0 || v < moveCost(scans[i2], 1):
			i2 = i
		}
	}
	ambiguous := false
	if i1 >= 0 && i2 >= 0 {
		lo, hi := moveCost(scans[i1], 1), moveCost(scans[i2], 1)
		ambiguous = lo > 0 && hi/lo < s.sampleTrigger()
	}

	var out []*Scan
	for i, sc := range scans {
		switch {
		case sc.Stats == nil:
			continue // nothing reported at all; metadata gathering failed upstream
		case len(sc.Stats.Columns) == 0: // trigger (a)
		case s.hasStatsOverride(sc.Table): // trigger (b)
		case sc.Stats.RowCount <= limit: // trigger (d)
		case ambiguous && (i == i1 || i == i2): // trigger (c)
		default:
			continue
		}
		out = append(out, sc)
	}
	return out
}

// hasStatsOverride reports whether a cardinality-feedback override is
// registered for the table — the signal that its home DBMS's reported
// statistics were observed to be stale.
func (s *System) hasStatsOverride(table string) bool {
	_, ok := s.statsFeedback.Load(strings.ToLower(table))
	return ok
}

// sampleScan issues one probe and applies its result. An exhausted probe
// saw the whole relation, so its counts and sketch are exact: the scan
// adopts them outright and the correction is fed to the cross-query
// statistics loop. A truncated probe only ever *raises* the estimate to
// the observed match count — the unscanned remainder is unknown, and a
// lower bound must never argue an estimate down.
func (s *System) sampleScan(ctx context.Context, sc *Scan, limit int64) {
	sp := obs.SpanFrom(ctx).Child("sample")
	sp.Set("node", sc.Node)
	sp.Set("table", sc.Table)
	if !s.health.healthy(sc.Node) {
		met.sampleProbes.With("skipped_breaker").Inc()
		sp.Set("outcome", "skipped_breaker")
		sp.Finish()
		return
	}
	filter := ""
	if sc.Filter != nil {
		filter = sc.Filter.String()
	}
	start := time.Now()
	res, err := s.SampleRelation(ctx, sc.Node, sc.Table, sc.Alias, filter, limit)
	observeSeconds(met.sampleDur, time.Since(start))
	if err != nil {
		met.sampleProbes.With("degraded_error").Inc()
		sp.Set("outcome", "degraded_error")
		sp.SetErr(err)
		sp.Finish()
		return
	}
	sp.Set("scanned", strconv.FormatInt(res.Scanned, 10))
	sp.Set("matched", strconv.FormatInt(res.Matched, 10))
	outcome := "agreed"
	if res.Exhausted {
		exact := math.Max(float64(res.Matched), 1)
		if sc.est != exact || !statsEqual(sc.Stats, res.Stats) {
			outcome = "sampled"
		}
		sc.Stats = res.Stats
		sc.est = exact
		sc.width = estimateWidth(sc)
		s.learnStats(sc.Table, res.Stats)
	} else if lb := float64(res.Matched); lb > sc.est {
		// At least lb rows match among the first Scanned alone.
		sc.est = lb
		outcome = "sampled"
	}
	met.sampleProbes.With(outcome).Inc()
	sp.Set("outcome", outcome)
	sp.Finish()
}
