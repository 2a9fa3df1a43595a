package core

import (
	"cmp"
	"context"
	"fmt"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/wire"
)

// Analyze exposes XDB's query analysis to the baseline systems (Garlic,
// Presto, Sclera): the resolved scans with pushed-down filters and pruned
// columns, the multi-table conjuncts, and the canonicalized statement
// (every column reference qualified). The baselines share this frontend —
// the paper's comparison is about *where cross-database operations run*,
// not about frontend quality.
type Analysis struct {
	// Scans are the resolved relations in FROM order.
	Scans []*Scan
	// JoinConjs are the conjuncts touching more than one relation.
	JoinConjs []sqlparser.Expr
	// Canon is the canonicalized SELECT.
	Canon *sqlparser.Select
}

// Analyze resolves and analyzes a cross-database query against a global
// catalog whose tables carry schema and statistics.
func Analyze(catalog *Catalog, sel *sqlparser.Select) (*Analysis, error) {
	b, joinConjs, canon, err := buildLogical(catalog, sel)
	if err != nil {
		return nil, err
	}
	a := &Analysis{JoinConjs: joinConjs, Canon: canon}
	for _, alias := range b.order {
		a.Scans = append(a.Scans, b.aliases[alias])
	}
	return a, nil
}

// GatherMetadata populates schema and statistics for every table the query
// references, through the given connectors — the shared preparation step
// of XDB and the baselines: one metadata batch per node (fetchMetadata),
// the nodes at once. Entries already carrying schema and stats are reused.
func GatherMetadata(ctx context.Context, catalog *Catalog, connectors map[string]*connector.Connector, sel *sqlparser.Select) error {
	work, err := metadataWork(catalog, sel, true)
	if err != nil {
		return err
	}
	return fanOutFirstErr(ctx, len(work), false, func(fctx context.Context, n int) error {
		conn := connectors[work[n][0].Node]
		if conn == nil {
			return &NoConnectorError{Node: work[n][0].Node}
		}
		return fetchMetadata(fctx, conn, catalog, work[n], func(_ *TableInfo, st *engine.TableStats) *engine.TableStats { return st })
	})
}

// metadataWork is the metadata a query needs: the catalog entries of the
// tables it references, each once, grouped by home node (groupByNode).
// With cached set, an entry already carrying schema and statistics is
// left out.
func metadataWork(catalog *Catalog, sel *sqlparser.Select, cached bool) ([][]*TableInfo, error) {
	seen := map[string]bool{}
	var work []*TableInfo
	for _, ref := range sel.From {
		info, ok := catalog.Lookup(ref.Name)
		if !ok {
			return nil, fmt.Errorf("core: unknown table %q in global catalog", ref.Name)
		}
		if seen[info.Name] || cached && info.Schema != nil && info.Stats != nil {
			continue
		}
		seen[info.Name] = true
		work = append(work, info)
	}
	return groupByNode(work, func(info *TableInfo) string { return info.Node }), nil
}

// fetchMetadata is one node's metadata round trip — one batch holding a
// TableSchema item for every entry still missing its schema and a Stats
// item for every entry — and republishes each table's entry immutably, on
// the table's own outcome: in full when its items succeeded (its
// statistics vetted by fresh); with just the schema when
// that was fetched and the stats item failed, so the next attempt resumes
// from the partial entry instead of asking for the schema again. The error
// is the round trip's, else the first failing table's.
func fetchMetadata(ctx context.Context, c *connector.Connector, catalog *Catalog, infos []*TableInfo, fresh func(*TableInfo, *engine.TableStats) *engine.TableStats) error {
	var b wire.Batch
	for _, info := range infos {
		if info.Schema == nil {
			b.TableSchema(info.Name)
		}
		b.Stats(info.Name)
	}
	replies, err := c.Do(ctx, &b)
	if err != nil {
		return err
	}
	for _, info := range infos {
		updated := &TableInfo{Name: info.Name, Node: info.Node, Schema: info.Schema, Stats: info.Stats}
		var terr error
		if info.Schema == nil {
			updated.Schema, terr = replies[0].TableSchema()
			replies = replies[1:]
		}
		st, serr := replies[0].Stats()
		replies = replies[1:]
		if terr = cmp.Or(terr, serr); terr == nil {
			updated.Stats = fresh(info, st)
		} else if err == nil {
			err = fmt.Errorf("core: metadata of %s: %w", info.Name, terr)
		}
		if updated.Schema != nil {
			catalog.Put(updated)
		}
	}
	return err
}
