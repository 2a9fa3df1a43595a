package planner

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
//	sampling (Refine)     a low-confidence scan (SampleCandidates) is
//	                      probed with a bounded sample during preparation;
//	                      an exhausted probe's exact count and sketch are
//	                      learned, and this query already plans with them
//	drained edges         when a query finishes, every edge whose stream
//	(Observe)             reached its end — a pipelined pull or a
//	                      materialization fetch — reports its row count;
//	                      a bare scan's count that contradicts the catalog
//	                      beyond learnThreshold is learned for the next
//	                      query, and a plan cached from the disproved
//	                      statistics is no longer served (Catalog.Holds)
//
// The caller runs the probes and reads the edges; this file decides what
// they teach.

// learnThreshold is the ratio by which an observed cardinality must
// contradict the catalog (strictly, in either direction) before a drained
// edge corrects it.
const learnThreshold = 4.0

// Diverges reports whether an estimate and an observation disagree by
// strictly more than the learn threshold (4x), in either direction. Both
// sides clamp to one row so empty relations compare stably.
func Diverges(est, actual float64) bool {
	est = math.Max(est, 1)
	actual = math.Max(actual, 1)
	r := est / actual
	if r < 1 {
		r = 1 / r
	}
	return r > learnThreshold
}

// Observe corrects the catalog from one drained edge that moved rows rows.
// When the producer is a bare (filtered, pruned) scan, the observed output
// count implies the source table's true row count (rows / filter
// selectivity); if that contradicts the catalog's snapshot, the scaled
// correction is learned. Join-output edges carry no single-table
// attribution and correct nothing.
func (c *Catalog) Observe(e *Edge, rows float64) {
	sc, ok := e.From.Root.(*Scan)
	if len(e.From.Inputs) != 0 || !ok {
		return
	}
	info, ok := c.Lookup(sc.Table)
	if !ok || info.Stats == nil {
		return
	}
	implied := math.Max(rows, 1)
	if sc.Filter != nil {
		if sel := selectivity(sc.Filter, sc); sel > 0 {
			implied = math.Max(implied/sel, implied)
		}
	}
	if !Diverges(float64(info.Stats.RowCount), implied) {
		return
	}
	c.Learn(info, scaleStats(info.Stats, int64(math.Round(implied))))
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

// DefaultSampleTrigger is the shipping-volume ratio under which a
// movement decision counts as ambiguous (SampleCandidates' trigger c).
const DefaultSampleTrigger = 2.0

// SampleCandidates returns the scans whose estimates are low-confidence
// enough to verify with a bounded sample of at most limit rows. Sampling
// only pays off ahead of a cross-database decision: a single-relation or
// single-DBMS query has no Rule-4 placement to get wrong, so it is never
// probed. Otherwise a scan is probed when
//
//	(a) its relation has no column statistics at all;
//	(b) a learned correction (TableInfo.Learned) marks the home DBMS's
//	    reported statistics as known-stale — re-verify them for the
//	    price of one bounded scan instead of trusting either side
//	    blindly;
//	(c) it is one of the two cheapest relations to ship and their
//	    shipping volumes are within DefaultSampleTrigger of each other —
//	    the movement decision is ambiguous, and a wrong pick ships the
//	    wrong side;
//	(d) its reported row count is at most limit — the probe will scan
//	    the whole relation (as reported), so exact truth costs no more
//	    than the estimate it verifies, and a deflated report is
//	    discovered rather than believed.
func (c *Catalog) SampleCandidates(scans []*Scan, limit int64) []*Scan {
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
		info, _ := c.Lookup(sc.Table)
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

// Refine applies one sample probe's result to its scan and reports
// whether the scan's estimate or statistics changed. An exhausted probe saw
// the whole relation, so its counts and sketch are exact: the scan adopts
// them outright and the catalog learns them, for every later query. A
// truncated probe only ever *raises* the estimate to the observed match
// count — the unscanned remainder is unknown, and a lower bound must never
// argue an estimate down.
func (c *Catalog) Refine(sc *Scan, res *engine.SampleResult) (changed bool) {
	if lb := float64(res.Matched); !res.Exhausted {
		// At least lb rows match among the first Scanned alone.
		changed = lb > sc.est
		sc.est = math.Max(sc.est, lb)
		return changed
	}
	exact := math.Max(float64(res.Matched), 1)
	changed = sc.est != exact || !sc.Stats.Same(res.Stats)
	sc.Stats = res.Stats
	sc.est = exact
	sc.width = estimateWidth(sc)
	if info, ok := c.Lookup(sc.Table); ok {
		c.Learn(info, res.Stats)
	}
	return changed
}
