package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

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
//	       ──► actual vs EstRows diverged beyond Options.ReoptThreshold?
//	           record the actual under the edge's logical signature,
//	           refresh the source table's statistics (statsOverride),
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
// trigger a suffix re-optimization when Options.ReoptThreshold is unset.
const DefaultReoptThreshold = 4.0

// reoptThreshold resolves the configured divergence threshold.
func (s *System) reoptThreshold() float64 {
	if s.opts.ReoptThreshold > 0 {
		return s.opts.ReoptThreshold
	}
	return DefaultReoptThreshold
}

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
	threshold := s.reoptThreshold()
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
		if reoptDiverges(e.EstRows, actual, threshold) {
			return e, nil
		}
	}
	return nil, nil
}

// statsOverride corrects one table's statistics with an observed row
// count. base is the stale snapshot the correction was derived against;
// as long as the node keeps reporting exactly base, metadata refreshes
// substitute corrected (see freshStats). The moment the node
// reports anything else, the table genuinely changed and the override
// is dropped in favour of the fresh truth.
type statsOverride struct {
	base      *engine.TableStats
	corrected *engine.TableStats
}

// feedObservedRows closes the cross-query half of the feedback loop:
// when a materialized edge's producer is a bare (filtered, pruned) scan,
// the observed output count implies the source table's true row count
// (actual / filter selectivity). If that implied count contradicts the
// catalog's snapshot beyond the reopt threshold, the correction is
// learned (learnStats) and the next query plans with actuals from the
// start. Join-output edges carry no single-table attribution and feed
// only the in-query feedback map.
func (s *System) feedObservedRows(e *Edge, actual float64) {
	sc := bareScanRoot(e.From)
	if sc == nil {
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
	if !reoptDiverges(float64(info.Stats.RowCount), implied, s.reoptThreshold()) {
		return
	}
	s.learnStats(sc.Table, scaleStats(info.Stats, int64(math.Round(implied))))
}

// learnStats is the one writer of cardinality corrections, whatever their
// source (a barrier, a finished implicit pull, an exhausted sample probe):
// it registers the statsOverride, republishes the catalog entry with the
// corrected statistics, and drops the node's consulted costs and cached
// plans, which were built on the disproved ones. One observation thereby
// benefits every subsequent query. The drift sentinel stays the original
// stale snapshot across corrections — the catalog may already hold a
// corrected version while the node still reports the original — and the
// swap is atomic, so concurrent queries cannot clobber it. Statistics the
// catalog already holds teach nothing.
func (s *System) learnStats(table string, corrected *engine.TableStats) {
	info, ok := s.catalog.Lookup(table)
	if !ok || info.Stats == nil || statsEqual(info.Stats, corrected) {
		return
	}
	key := strings.ToLower(table)
	for {
		prev, loaded := s.statsFeedback.LoadOrStore(key, &statsOverride{base: info.Stats, corrected: corrected})
		if !loaded || s.statsFeedback.CompareAndSwap(key, prev,
			&statsOverride{base: prev.(*statsOverride).base, corrected: corrected}) {
			break
		}
	}
	s.catalog.Put(&TableInfo{Name: info.Name, Node: info.Node, Schema: info.Schema, Stats: corrected})
	s.invalidateNode(info.Node)
}

// feedImplicitFlows closes the feedback loop for the edges the barriers
// cannot see: implicit movements never materialize, but the wire flow
// accounting observed their pull streams' actual row counts while the
// query executed. After a clean execution each finished implicit pull
// feeds the same statsOverride path the explicit barriers use — strictly
// post-hoc and cross-query: the finished query is untouched, no
// mid-query re-optimization triggers from an implicit edge, but the next
// misestimated pull-heavy query plans against corrected statistics.
// qid scopes the lookup to the attempt that actually executed.
func (s *System) feedImplicitFlows(inf *inflightEntry, plan *Plan, qid int64) {
	if inf == nil || plan == nil {
		return
	}
	for _, e := range plan.Edges {
		if e.Move != MoveImplicit || e.Sig == "" {
			continue
		}
		actual, done := inf.flowObserved(qid, e.From.ID)
		if !done {
			continue
		}
		s.feedObservedRows(e, float64(actual))
	}
}

// bareScanRoot returns the task's fragment as a single (filtered,
// pruned) scan, or nil when the fragment computes more than one
// relation's worth of data.
func bareScanRoot(t *Task) *Scan {
	if t == nil || len(t.Inputs) != 0 {
		return nil
	}
	sc, ok := t.Root.(*Scan)
	if !ok {
		return nil
	}
	return sc
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
