package core

import (
	"math"

	"xdb/internal/engine"
)

// Estimate correction. The paper fixes the delegation plan at annotation
// time, so Rule 4's placement and movement verdicts are functions of the
// statistics gathered during preparation — and stale or skewed statistics
// pick the wrong site or the wrong movement for the whole query. Two
// writers correct what the catalog believes (Catalog.Learn), and both
// act before a plan is made, never on a running one:
//
//	sampling (sample.go)  a low-confidence scan is probed with a bounded
//	                      sample during preparation; an exhausted probe's
//	                      exact count and sketch are learned, and this
//	                      query already plans with them
//	drained edges (here)  when a query finishes, every edge whose stream
//	                      reached its end — a pipelined pull or a
//	                      materialization fetch — reports its row count;
//	                      a bare scan's count that contradicts the catalog
//	                      beyond learnThreshold is learned for the next
//	                      query, and a plan cached from the disproved
//	                      statistics is no longer served (planCache.acquire)

// learnThreshold is the ratio by which an observed cardinality must
// contradict the catalog (strictly, in either direction) before a drained
// edge corrects it.
const learnThreshold = 4.0

// diverges reports whether an estimate and an observation disagree by
// strictly more than learnThreshold, in either direction. Both sides clamp
// to one row so empty relations compare stably.
func diverges(est, actual float64) bool {
	est = math.Max(est, 1)
	actual = math.Max(actual, 1)
	r := est / actual
	if r < 1 {
		r = 1 / r
	}
	return r > learnThreshold
}

// feedObservedRows corrects the catalog from one drained edge. When the
// producer is a bare (filtered, pruned) scan, the observed output count
// implies the source table's true row count (actual / filter
// selectivity); if that contradicts the catalog's snapshot, the scaled
// correction is learned. Join-output edges carry no single-table
// attribution and correct nothing.
func (s *System) feedObservedRows(e *Edge, actual float64) {
	sc, ok := e.From.Root.(*Scan)
	if len(e.From.Inputs) != 0 || !ok {
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
	if !diverges(float64(info.Stats.RowCount), implied) {
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
