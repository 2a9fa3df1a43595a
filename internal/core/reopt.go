package core

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"xdb/internal/engine"
	"xdb/internal/obs"
)

// Adaptive mid-query re-optimization, the cardinality half of the
// recovery loop (the fault half lives in failover.go). The paper fixes
// the delegation plan at annotation time, so Rule 4's
// implicit-vs-explicit and placement verdicts are functions of the
// statistics gathered during preparation — and stale or skewed
// statistics silently pick the wrong site or the wrong movement for the
// whole query. Explicit-movement edges give the loop a natural
// checkpoint: their foreign tables materialize the producing task's
// full output on the consumer, so the actual cardinality is observable
// there before the suffix above them has run.
//
//	deploy ──► for each explicit edge, in dependency order:
//	           force the materialization (SELECT COUNT(*) barrier)
//	           and read back the actual row count
//	       ──► actual vs EstRows diverged beyond DefaultReoptThreshold?
//	           record the actual under the edge's logical signature,
//	           correct the source table's statistics (Catalog.Learn),
//	           and re-run the optimizer pipeline for the whole statement
//	           — annotation now costs the unexecuted suffix with actuals
//	       ──► re-deploy, adopting every surviving object by structural
//	           signature; materialized stages are never re-shipped
//	       ──► resume, up to Options.MaxReopts re-optimizations
//
// Re-optimization shares the lifecycle's retire/reuse machinery
// (lifecycle.go) but not the fault budget: reopts never consume
// MaxReplans, never trip breakers, and never exclude nodes — the cluster is
// healthy, only the estimates were wrong.

// DefaultReoptThreshold is the estimate-vs-actual cardinality ratio a
// materialized edge must exceed (strictly, in either direction) to
// trigger a suffix re-optimization.
const DefaultReoptThreshold = 4.0

// reoptDiverges reports whether an estimate and an observation disagree
// by strictly more than the threshold ratio, in either direction. Both
// sides clamp to one row so empty relations compare stably.
func reoptDiverges(est, actual, threshold float64) bool {
	est = math.Max(est, 1)
	actual = math.Max(actual, 1)
	r := est / actual
	if r < 1 {
		r = 1 / r
	}
	return r > threshold
}

// observeMaterialized walks the plan's explicit-movement edges in
// dependency order, forces each foreign table's materialization with a
// COUNT(*) barrier on the consumer (the engine's explicit movement is
// fill-on-first-scan, so the stored rows are reused by the later
// execution), and compares the actual row count against the
// annotation-time estimate. Every observation is recorded in fb under
// the edge's logical signature and fed to the cross-query statistics
// loop (feedObservedRows). The walk stops at the first diverging edge —
// the suffix above it is about to be re-planned, and forcing the
// remaining materializations would ship data a corrected plan may not
// want shipped — and returns it (fb holds the observed count). Edges already
// present in fb (observed by a prior attempt) are skipped, so a
// re-optimized plan that kept an edge does not re-pay its barrier.
// A barrier failure is returned node-attributed for the fault loop.
func (s *System) observeMaterialized(ctx context.Context, qspan *obs.Span, plan *Plan, fb map[string]float64) (*Edge, error) {
	for _, e := range plan.Edges {
		if e.Move != MoveExplicit || e.Placeholder == nil || e.Placeholder.Rel == "" || e.Sig == "" {
			continue
		}
		if _, seen := fb[e.Sig]; seen {
			continue
		}
		conn, ok := s.connectors[e.To.Node]
		if !ok {
			continue
		}
		sp := qspan.Child("observe")
		sp.Set("node", e.To.Node)
		sp.Set("rel", e.Placeholder.Rel)
		sp.Set("est", strconv.FormatFloat(e.EstRows, 'f', 0, 64))
		// Data-plane, like execution: the barrier makes the consumer pull
		// and store the producer's whole output, so it is bounded by the
		// query context, not the control-plane RequestTimeout.
		res, err := conn.Query(ctx, "SELECT COUNT(*) FROM "+e.Placeholder.Rel)
		if err != nil {
			sp.SetErr(err)
			sp.Finish()
			return nil, &nodeFaultError{node: e.To.Node,
				err: fmt.Errorf("core: observe %s on %s: %w", e.Placeholder.Rel, e.To.Node, err)}
		}
		if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
			sp.Finish()
			continue
		}
		actual := float64(res.Rows[0][0].Int())
		sp.Set("actual", strconv.FormatFloat(actual, 'f', 0, 64))
		sp.Finish()
		fb[e.Sig] = actual
		s.feedObservedRows(e, actual)
		if reoptDiverges(e.EstRows, actual, DefaultReoptThreshold) {
			return e, nil
		}
	}
	return nil, nil
}

// feedObservedRows closes the cross-query half of the feedback loop for
// one edge whose producer's output was observed — by a barrier on an
// explicit edge, or by the flow accounting of a finished implicit pull.
// When the producer is a bare (filtered, pruned) scan, the observed
// output count implies the source table's true row count (actual / filter
// selectivity). If that implied count contradicts the catalog's snapshot
// beyond the reopt threshold, the correction is learned (Catalog.Learn)
// and the next query plans with actuals from the start; a plan cached
// from the disproved statistics is no longer served (planCache.acquire).
// Join-output edges carry no single-table attribution and feed only the
// in-query feedback map.
func (s *System) feedObservedRows(e *Edge, actual float64) {
	sc, ok := e.From.Root.(*Scan)
	if e.Sig == "" || len(e.From.Inputs) != 0 || !ok {
		return
	}
	info, ok := s.catalog.Lookup(sc.Table)
	if !ok || info.Stats == nil {
		return
	}
	implied := math.Max(actual, 1)
	if sc.Filter != nil {
		if sel := selectivity(sc.Filter, sc); sel > 0 {
			implied = math.Max(implied/sel, implied)
		}
	}
	if !reoptDiverges(float64(info.Stats.RowCount), implied, DefaultReoptThreshold) {
		return
	}
	s.catalog.Learn(info, scaleStats(info.Stats, int64(math.Round(implied))))
}

// scaleStats returns a copy of st with RowCount set to rows and the
// per-column distinct counts scaled proportionally (clamped to [1,
// rows] for columns that had any distinct values). Min/Max/NullFrac are
// value-domain properties and survive unchanged.
func scaleStats(st *engine.TableStats, rows int64) *engine.TableStats {
	if rows < 1 {
		rows = 1
	}
	out := &engine.TableStats{
		RowCount:    rows,
		AvgRowBytes: st.AvgRowBytes,
		Columns:     make([]engine.ColumnStats, len(st.Columns)),
	}
	copy(out.Columns, st.Columns)
	f := 1.0
	if st.RowCount > 0 {
		f = float64(rows) / float64(st.RowCount)
	}
	for i := range out.Columns {
		d := int64(math.Round(float64(out.Columns[i].Distinct) * f))
		if d < 1 && out.Columns[i].Distinct > 0 {
			d = 1
		}
		if d > rows {
			d = rows
		}
		out.Columns[i].Distinct = d
	}
	return out
}
