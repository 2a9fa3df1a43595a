package planner

import (
	"math"
	"strings"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// Cardinality estimation for the cross-database optimizer. Unlike the
// per-engine planners (which only see local data), XDB estimates over the
// global catalog's statistics gathered during the preparation phase, so it
// can order joins across DBMSes. The formulas are the textbook ones the
// paper cites ([42], [43]): attribute-level selectivities with min/max
// interpolation for ranges, and |L||R|/max(d_L, d_R) for equi joins.

// estimateScan returns the post-filter cardinality of a scan.
func estimateScan(s *Scan) float64 {
	rows := float64(s.Stats.RowCount)
	if s.Filter != nil {
		rows *= selectivity(s.Filter, s)
	}
	return math.Max(rows, 1)
}

// estimateWidth returns the estimated encoded bytes per pruned output row.
func estimateWidth(s *Scan) float64 {
	if len(s.Cols) == 0 || s.Stats.RowCount == 0 {
		return 16
	}
	// Scale the full-row width by the kept-column fraction, with a typed
	// floor per column.
	w := 4.0
	for _, name := range s.Cols {
		idx, err := s.Schema.Resolve("", name)
		if err != nil {
			w += 12
			continue
		}
		switch s.Schema.Columns[idx].Type {
		case sqltypes.TypeString:
			w += 24
		case sqltypes.TypeBool:
			w += 2
		default:
			w += 9
		}
	}
	return w
}

// selectivity estimates the filter's selectivity on a scan using its
// column statistics.
func selectivity(pred sqlparser.Expr, s *Scan) float64 {
	switch x := pred.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case sqlparser.OpAnd:
			return clamp01(selectivity(x.L, s) * selectivity(x.R, s))
		case sqlparser.OpOr:
			return engine.OrSelectivity(selectivity(x.L, s), selectivity(x.R, s))
		case sqlparser.OpEq:
			if cs := columnStats(x.L, s); cs != nil && cs.Distinct > 0 {
				return 1 / float64(cs.Distinct)
			}
			if cs := columnStats(x.R, s); cs != nil && cs.Distinct > 0 {
				return 1 / float64(cs.Distinct)
			}
			return 0.05
		case sqlparser.OpNe:
			return 0.95
		default:
			return rangeSelectivity(x, s)
		}
	case *sqlparser.BetweenExpr:
		lo := constValue(x.Lo)
		hi := constValue(x.Hi)
		if cs := columnStats(x.E, s); cs != nil && lo != nil && hi != nil {
			f := fraction(cs, *lo, *hi)
			if x.Not {
				return clamp01(1 - f)
			}
			return f
		}
		return 0.25
	case *sqlparser.InExpr:
		if cs := columnStats(x.E, s); cs != nil && cs.Distinct > 0 {
			f := clamp01(float64(len(x.List)) / float64(cs.Distinct))
			if x.Not {
				return clamp01(1 - f)
			}
			return f
		}
		return clamp01(0.05 * float64(len(x.List)))
	case *sqlparser.LikeExpr:
		if x.Not {
			return 0.9
		}
		return 0.1
	case *sqlparser.IsNullExpr:
		if cs := columnStats(x.E, s); cs != nil {
			if x.Not {
				return clamp01(1 - cs.NullFrac)
			}
			return clamp01(cs.NullFrac)
		}
		return 0.05
	case *sqlparser.NotExpr:
		return clamp01(1 - selectivity(x.E, s))
	default:
		return 0.5
	}
}

// rangeSelectivity handles col <op> literal comparisons with min/max
// interpolation.
func rangeSelectivity(x *sqlparser.BinaryExpr, s *Scan) float64 {
	cs := columnStats(x.L, s)
	lit := constValue(x.R)
	op := x.Op
	if cs == nil || lit == nil {
		// Try the mirrored form literal <op> col.
		cs = columnStats(x.R, s)
		lit = constValue(x.L)
		if cs == nil || lit == nil {
			return 1.0 / 3
		}
		switch op {
		case sqlparser.OpLt:
			op = sqlparser.OpGt
		case sqlparser.OpLe:
			op = sqlparser.OpGe
		case sqlparser.OpGt:
			op = sqlparser.OpLt
		case sqlparser.OpGe:
			op = sqlparser.OpLe
		}
	}
	lo, hi, ok := span(cs, *lit)
	if !ok {
		return 1.0 / 3
	}
	v := lit.Float()
	if hi <= lo {
		return 0.5
	}
	frac := (v - lo) / (hi - lo)
	frac = clamp01(frac)
	switch op {
	case sqlparser.OpLt, sqlparser.OpLe:
		return math.Max(frac, 0.001)
	case sqlparser.OpGt, sqlparser.OpGe:
		return math.Max(1-frac, 0.001)
	}
	return 1.0 / 3
}

// fraction estimates the fraction of values in [lo, hi], or the default
// fraction where span does not interpolate.
func fraction(cs *engine.ColumnStats, lo, hi sqltypes.Value) float64 {
	mn, mx, ok := span(cs, lo, hi)
	if !ok {
		return 0.25
	}
	if mx <= mn {
		return 0.5
	}
	a := clamp01((lo.Float() - mn) / (mx - mn))
	b := clamp01((hi.Float() - mn) / (mx - mn))
	return math.Max(b-a, 0.001)
}

// span returns the column's extremes as numbers to interpolate the bounds
// between, and false where interpolation does not apply: an extreme or a
// bound is NULL (the column has no extremes), a string (Float of a string
// is its length, no position in the column's range) or not a finite
// number (a NaN or an infinity makes the fraction NaN).
func span(cs *engine.ColumnStats, bounds ...sqltypes.Value) (lo, hi float64, ok bool) {
	if !interpolable(cs.Min) || !interpolable(cs.Max) {
		return 0, 0, false
	}
	for _, b := range bounds {
		if !interpolable(b) {
			return 0, 0, false
		}
	}
	return cs.Min.Float(), cs.Max.Float(), true
}

// interpolable reports whether v is neither NULL nor a string, and a
// finite number.
func interpolable(v sqltypes.Value) bool {
	f := v.Float()
	return !v.IsNull() && v.T != sqltypes.TypeString && !math.IsNaN(f) && !math.IsInf(f, 0)
}

// columnStats resolves an expression to the scan's column stats if it is a
// plain reference to one of the scan's columns.
func columnStats(e sqlparser.Expr, s *Scan) *engine.ColumnStats {
	cr, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return nil
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, s.Alias) {
		return nil
	}
	return s.Stats.Column(cr.Name)
}

// constValue returns the literal value of a constant expression (literals
// and date arithmetic on literals).
func constValue(e sqlparser.Expr) *sqltypes.Value {
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Val
		return &v
	case *sqlparser.BinaryExpr:
		l := constValue(x.L)
		if l == nil {
			return nil
		}
		if iv, ok := x.R.(*sqlparser.IntervalExpr); ok && l.T == sqltypes.TypeDate {
			t := l.Time()
			n := int(iv.N)
			if x.Op == sqlparser.OpSub {
				n = -n
			}
			switch iv.Unit {
			case "YEAR":
				t = t.AddDate(n, 0, 0)
			case "MONTH":
				t = t.AddDate(0, n, 0)
			default:
				t = t.AddDate(0, 0, n)
			}
			v := sqltypes.NewDate(t.Unix() / 86400)
			return &v
		}
		return nil
	default:
		return nil
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// joinRows is the equi-join estimate with per-key distinct counts,
// |L||R| / prod over keys of max(d_L, d_R), capped at the cross product,
// over plain numbers — the two inputs' rows and, per key, the distinct
// count of its column on either side — so that join enumeration
// (joinGraph's estimator) prices a step without building the operators,
// by the same arithmetic in the same order as Join.estimate.
func joinRows(lRows, rRows float64, dl, dr []float64) float64 {
	out := lRows * rRows
	if len(dl) == 0 {
		return out
	}
	for i := range dl {
		d := math.Max(dl[i], dr[i])
		if d < 1 {
			d = 1
		}
		out /= d
	}
	return math.Max(out, 1)
}

// estimate derives the join's cardinality from its inputs, keys (their
// columns' distinct counts at either input) and residual conjuncts.
func (j *Join) estimate() float64 {
	dl, dr := make([]float64, len(j.Keys)), make([]float64, len(j.Keys))
	for i, k := range j.Keys {
		dl[i], dr[i] = distinctOf(j.L, k.L), distinctOf(j.R, k.R)
	}
	est := joinRows(j.L.Est(), j.R.Est(), dl, dr)
	for _, res := range j.Residual {
		est *= engine.Selectivity(res)
	}
	return math.Max(est, 1)
}

// distinctOf estimates the distinct count of a key column at an operator's
// output.
func distinctOf(op Op, cr *sqlparser.ColumnRef) float64 {
	return capDistinct(baseDistinct(op, cr), op.Est())
}

// capDistinct caps a column's base distinct count by the cardinality of
// the input that carries it.
func capDistinct(base, rows float64) float64 {
	return math.Min(base, math.Max(rows, 1))
}

func baseDistinct(op Op, cr *sqlparser.ColumnRef) float64 {
	switch o := op.(type) {
	case *Scan:
		if cr.Table != "" && !strings.EqualFold(cr.Table, o.Alias) {
			return math.Inf(1)
		}
		if cs := o.Stats.Column(cr.Name); cs != nil && cs.Distinct > 0 {
			return float64(cs.Distinct)
		}
		return math.Max(float64(o.Stats.RowCount), 1)
	case *Join:
		l := baseDistinct(o.L, cr)
		r := baseDistinct(o.R, cr)
		return math.Min(l, r)
	case *Final:
		return baseDistinct(o.In, cr)
	case *Placeholder:
		return o.Est()
	default:
		return math.Inf(1)
	}
}
