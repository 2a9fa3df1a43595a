package core

import (
	"cmp"
	"context"
	"math"
	"strconv"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/obs"
	"xdb/internal/wire"
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
// this query, and a learned correction in the catalog for every
// subsequent one.
//
// A probe is low-confidence-triggered, never unconditional:
//
//	(a) the relation has no column statistics at all;
//	(b) a learned correction (TableInfo.Learned) marks the home DBMS's
//	    reported statistics as known-stale — re-verify them for the
//	    price of one bounded scan instead of trusting either side
//	    blindly;
//	(c) the two cheapest relations' estimated shipping volumes are
//	    within DefaultSampleTrigger of each other — the movement
//	    decision is ambiguous, and a wrong pick ships the wrong side;
//	(d) the relation's reported row count is at most the sample limit —
//	    the probe will scan the whole relation (as reported), so exact
//	    truth costs no more than the estimate it verifies, and a
//	    deflated report is discovered rather than believed.
//
// Probes are control-plane calls like consultations (call.go): one batch
// per node, the nodes at once; an open breaker skips the node's probes —
// they never fire against a node that cannot answer — and any fault
// degrades the probe it hit to the plain estimate. Sampling never fails a
// query.

// DefaultSampleTrigger is the shipping-volume ratio under which a
// movement decision counts as ambiguous (trigger c).
const DefaultSampleTrigger = 2.0

// sampleRefine runs the sampling pre-pass over the query's scans and
// returns the number of probes considered (including skipped and failed
// ones — the Breakdown counts decisions, the metrics split outcomes).
// It mutates the triggered scans' estimates and statistics in place, so
// join ordering and annotation both see the refined cardinalities. Each
// node gets one batch of probes, the nodes at once.
func (s *System) sampleRefine(ctx context.Context, scans []*Scan) int {
	limit := int64(s.opts.SampleLimit)
	cands := s.sampleCandidates(scans, limit)
	groups := groupByNode(cands, func(sc *Scan) string { return sc.Node })
	fanOutFirstErr(ctx, len(groups), s.opts.serial, func(fctx context.Context, n int) error {
		s.sampleNode(fctx, groups[n][0].Node, groups[n], limit)
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
		ambiguous = lo > 0 && hi/lo < DefaultSampleTrigger
	}

	var out []*Scan
	for i, sc := range scans {
		info, _ := s.catalog.Lookup(sc.Table)
		switch {
		case sc.Stats == nil:
			continue // nothing reported at all; metadata gathering failed upstream
		case len(sc.Stats.Columns) == 0: // trigger (a)
		case info != nil && info.Learned: // trigger (b)
		case sc.Stats.RowCount <= limit: // trigger (d)
		case ambiguous && (i == i1 || i == i2): // trigger (c)
		default:
			continue
		}
		out = append(out, sc)
	}
	return out
}

// sampleNode probes one node's scans with one batch — a call taking one
// unit of the node's budget, like any consultation — and applies each
// result to its own scan; a failed probe degrades only its own scan to the
// plain estimate. An exhausted probe saw the whole relation, so its counts
// and sketch are exact: the scan adopts them outright and the correction
// is fed to the cross-query statistics loop. A truncated probe only ever
// *raises* the estimate to the observed match count — the unscanned
// remainder is unknown, and a lower bound must never argue an estimate
// down. The error is the call's.
func (s *System) sampleNode(ctx context.Context, node string, scans []*Scan, limit int64) error {
	var b wire.Batch
	spans := make([]*obs.Span, len(scans))
	for i, sc := range scans {
		filter := ""
		if sc.Filter != nil {
			filter = sc.Filter.String()
		}
		b.Sample(sc.Table, sc.Alias, filter, limit)
		spans[i] = obs.SpanFrom(ctx).Child("sample")
		spans[i].Set("node", node)
		spans[i].Set("table", sc.Table)
	}
	finish := func(i int, outcome string) {
		met.sampleProbes.With(outcome).Inc()
		spans[i].Set("outcome", outcome)
		spans[i].Finish()
	}
	if !s.health.healthy(node) {
		for i := range scans {
			finish(i, "skipped_breaker")
		}
		return nil
	}
	results, errs := make([]*engine.SampleResult, len(scans)), make([]error, len(scans))
	start := time.Now()
	err := s.call(ctx, node, 1, func(rctx context.Context, c *connector.Connector) error {
		replies, err := c.Do(rctx, &b)
		if err != nil {
			return err
		}
		for i, r := range replies {
			results[i], errs[i] = r.Sample()
		}
		return firstErr(nil, errs)
	})
	observeSeconds(met.sampleDur, time.Since(start))
	for i, sc := range scans {
		res := results[i]
		if res == nil { // the probe failed, or the round trip did
			spans[i].SetErr(cmp.Or(errs[i], err))
			finish(i, "degraded_error")
			continue
		}
		spans[i].Set("scanned", strconv.FormatInt(res.Scanned, 10))
		spans[i].Set("matched", strconv.FormatInt(res.Matched, 10))
		outcome := "agreed"
		if res.Exhausted {
			exact := math.Max(float64(res.Matched), 1)
			if sc.est != exact || !statsEqual(sc.Stats, res.Stats) {
				outcome = "sampled"
			}
			sc.Stats = res.Stats
			sc.est = exact
			sc.width = estimateWidth(sc)
			if info, ok := s.catalog.Lookup(sc.Table); ok {
				s.catalog.Learn(info, res.Stats)
			}
		} else if lb := float64(res.Matched); lb > sc.est {
			// At least lb rows match among the first Scanned alone.
			sc.est = lb
			outcome = "sampled"
		}
		finish(i, outcome)
	}
	return err
}
