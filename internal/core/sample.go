package core

import (
	"cmp"
	"context"
	"strconv"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/obs"
	"xdb/internal/planner"
	"xdb/internal/wire"
)

// Proactive sampling-based estimate refinement, one of the two writers of
// learned statistics (internal/planner's learn.go). A drained edge
// corrects the next query, after the wrong stage already shipped; sampling
// corrects this one before anything ships: when a query spans DBMSes (so a
// Rule-4 placement is coming) and a relation's estimate is low-confidence
// (planner.Catalog.SampleCandidates), the optimizer issues a bounded-sample probe —
// scan at most Options.SampleLimit rows, count the predicate matches,
// sketch per-column statistics — against the relation's home DBMS, and
// substitutes the observed truth for the scan's estimate and statistics
// in this query, and as a learned correction in the catalog for every
// subsequent one (planner.Catalog.Refine).
//
// Probes are control-plane calls like consultations (call.go): one batch
// per node, the nodes at once; an open breaker skips the node's probes —
// they never fire against a node that cannot answer — and any fault
// degrades the probe it hit to the plain estimate. Sampling never fails a
// query.

// sampleRefine runs the sampling pre-pass over the query's scans and
// returns the number of probes considered (including skipped and failed
// ones — the Breakdown counts decisions, the metrics split outcomes).
// It mutates the triggered scans' estimates and statistics in place, so
// join ordering and annotation both see the refined cardinalities. Each
// node gets one batch of probes, the nodes at once.
func (s *System) sampleRefine(ctx context.Context, scans []*planner.Scan) int {
	limit := int64(s.opts.SampleLimit)
	cands := s.catalog.SampleCandidates(scans, limit)
	groups := groupByNode(cands, func(sc *planner.Scan) string { return sc.Node })
	fanOutFirstErr(ctx, len(groups), s.opts.serial, func(fctx context.Context, n int) error {
		s.sampleNode(fctx, groups[n][0].Node, groups[n], limit)
		return nil
	})
	return len(cands)
}

// sampleNode probes one node's scans with one batch — a call taking one
// unit of the node's budget, like any consultation — and refines each
// scan from its own result (planner.Catalog.Refine); a failed probe degrades only
// its own scan to the plain estimate. The error is the call's.
func (s *System) sampleNode(ctx context.Context, node string, scans []*planner.Scan, limit int64) error {
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
		if s.catalog.Refine(sc, res) {
			outcome = "sampled"
		}
		finish(i, outcome)
	}
	return err
}
