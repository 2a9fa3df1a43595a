package engine

import (
	"fmt"

	"xdb/internal/sqlparser"
)

// Bounded-sample probes. XDB's annotation phase can ask an engine to scan
// at most `limit` rows of a base table and report (a) how many of the
// scanned rows satisfy a pushed-down predicate and (b) exact column
// statistics — min/max/distinct, the per-key distinct sketch — computed
// over the scanned prefix. Unlike Stats, which serves whatever the last
// ANALYZE left behind (and whatever SkewStats distorts), a sample probe
// touches the actual rows, so it reflects the truth at probe time.
//
// The probe is honest about its bound: when the scan exhausted the table
// (Scanned == the table's true row count) the counts and statistics are
// exact; otherwise Scanned is only a lower bound on the true cardinality
// and Matched/Scanned an estimate of the predicate's selectivity — the
// result never reveals the unscanned remainder.

// SampleResult is one bounded-sample probe's report.
type SampleResult struct {
	// Scanned is how many rows the probe read (<= the requested limit).
	Scanned int64
	// Matched is how many scanned rows satisfied the filter (== Scanned
	// when the probe carried no filter).
	Matched int64
	// Exhausted marks a probe whose scan covered the whole table: Scanned
	// is then the exact row count and Stats exact table statistics.
	Exhausted bool
	// Stats are the statistics computed over the scanned rows — the
	// distinct sketch per column. Exact when Exhausted.
	Stats *TableStats
}

// Sample scans at most limit rows of a base table, evaluating the filter
// (a SQL boolean expression over alias-qualified columns; "" counts every
// scanned row) against each scanned row. Views and foreign tables are not
// sampleable — the probe prices a physical scan, not a subquery.
//
// Sample does not count toward QueriesServed: it is a statistics probe,
// like Stats or CostOperator, not query execution.
func (e *Engine) Sample(table, alias, filter string, limit int64) (*SampleResult, error) {
	if limit <= 0 {
		return nil, fmt.Errorf("engine %s: sample of %q: non-positive limit %d", e.name, table, limit)
	}
	t, ok := e.catalog.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine %s: sample of unknown base table %q", e.name, table)
	}
	rows := t.Rows
	scanned := int64(len(rows))
	if scanned > limit {
		scanned = limit
	}
	sample := rows[:scanned]

	matched := scanned
	if filter != "" {
		expr, err := sqlparser.ParseExpr(filter)
		if err != nil {
			return nil, fmt.Errorf("engine %s: sample of %q: bad filter: %w", e.name, table, err)
		}
		// Base-table schemas store bare column names; the probe's filter
		// arrives qualified by the query's alias, so resolve against a
		// schema clone that carries the alias (or the table name when the
		// query used none).
		qual := alias
		if qual == "" {
			qual = table
		}
		schema := t.Schema.Clone()
		for i := range schema.Columns {
			schema.Columns[i].Table = qual
		}
		pred, err := compilePred(expr, schema)
		if err != nil {
			return nil, fmt.Errorf("engine %s: sample of %q: %w", e.name, table, err)
		}
		matched = 0
		for _, row := range sample {
			ok, err := pred(row)
			if err != nil {
				return nil, fmt.Errorf("engine %s: sample of %q: %w", e.name, table, err)
			}
			if ok {
				matched++
			}
		}
	}
	return &SampleResult{
		Scanned:   scanned,
		Matched:   matched,
		Exhausted: scanned == int64(len(rows)),
		Stats:     ComputeStats(t.Schema, sample),
	}, nil
}
