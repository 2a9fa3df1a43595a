package engine

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"xdb/internal/sqltypes"
)

// TableStats holds the statistics an engine maintains per base table and
// exposes through its declarative interface (the reproduction's stand-in
// for pg_stats / information_schema). XDB's optimizer gathers these during
// its preparation phase via the connectors.
type TableStats struct {
	// RowCount is the exact number of rows.
	RowCount int64
	// AvgRowBytes is the average frame-less encoded row width
	// (Row.EncodedSize, an upper bound on a row's wire bytes), used for
	// transfer cost estimation.
	AvgRowBytes float64
	// Columns holds per-column statistics, positionally aligned with the
	// table schema.
	Columns []ColumnStats
}

// ColumnStats summarizes one column.
type ColumnStats struct {
	Name string
	// Distinct is the estimated number of distinct values.
	Distinct int64
	// Min and Max are the observed extremes (Null for empty tables or
	// incomparable data).
	Min, Max sqltypes.Value
	// NullFrac is the fraction of NULL values.
	NullFrac float64
}

// distinctTrackLimit caps the exact-distinct tracking; beyond the limit the
// estimate is scaled linearly (a deliberate, simple HLL stand-in).
const distinctTrackLimit = 1 << 16

// ComputeStats builds table statistics. Each column is one pass over the
// rows, in row order, by its own tracker; the trackers and the row widths
// are shared out over one worker per processor.
func ComputeStats(schema *sqltypes.Schema, rows []sqltypes.Row) *TableStats {
	st := &TableStats{
		RowCount: int64(len(rows)),
		Columns:  make([]ColumnStats, schema.Len()),
	}
	for i, c := range schema.Columns {
		st.Columns[i].Name = c.Name
	}
	if len(rows) == 0 {
		return st
	}

	// Job j < n tracks column j; job n sums the encoded row widths.
	n := schema.Len()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n+1) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int(next.Add(1)) - 1; j <= n; j = int(next.Add(1)) - 1 {
				if j < n {
					st.Columns[j] = columnStats(st.Columns[j].Name, rows, j)
					continue
				}
				var total int64
				for _, row := range rows {
					total += int64(row.EncodedSize())
				}
				st.AvgRowBytes = float64(total) / float64(len(rows))
			}
		}()
	}
	wg.Wait()
	return st
}

// columnStats tracks column i over the rows.
func columnStats(name string, rows []sqltypes.Row, i int) ColumnStats {
	seen := newRowSet(1)
	capped := false
	var observed, nulls int64 // non-NULL and NULL values
	lo, hi := sqltypes.Null, sqltypes.Null
	for _, row := range rows {
		v := row[i]
		if v.IsNull() {
			nulls++
			continue
		}
		observed++
		if !capped {
			seen.find(row[i : i+1])
			capped = len(seen.store.Rows) >= distinctTrackLimit
		}
		if lo.IsNull() {
			lo, hi = v, v
			continue
		}
		if c, err := sqltypes.Compare(v, lo); err == nil && c < 0 {
			lo = v
		}
		if c, err := sqltypes.Compare(v, hi); err == nil && c > 0 {
			hi = v
		}
	}
	n := int64(len(rows))
	d := int64(len(seen.store.Rows))
	if capped && observed > 0 {
		// Scale the capped count by the fraction of rows seen while
		// tracking, clamped to the row count.
		d = min(int64(float64(d)*float64(n)/float64(observed)), n)
	}
	return ColumnStats{Name: name, Distinct: d, Min: lo, Max: hi, NullFrac: float64(nulls) / float64(n)}
}

// Same reports whether s and o are the same snapshot (both nil, or the same
// counts and column stats): floats by their bits and extremes by
// sqltypes.Same, so a report decoded twice from the same bytes is the same
// even where a value's bits are a NaN's.
func (s *TableStats) Same(o *TableStats) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || s.RowCount != o.RowCount || !sameFloat(s.AvgRowBytes, o.AvgRowBytes) || len(s.Columns) != len(o.Columns) {
		return false
	}
	for i, a := range s.Columns {
		b := o.Columns[i]
		if a.Name != b.Name || a.Distinct != b.Distinct || !sameFloat(a.NullFrac, b.NullFrac) ||
			!sqltypes.Same(a.Min, b.Min) || !sqltypes.Same(a.Max, b.Max) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// Column returns the stats for the named column, or nil.
func (s *TableStats) Column(name string) *ColumnStats {
	for i := range s.Columns {
		if equalFold(s.Columns[i].Name, name) {
			return &s.Columns[i]
		}
	}
	return nil
}

// equalFold is an ASCII-only case-insensitive comparison (column names in
// the reproduction are ASCII).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
