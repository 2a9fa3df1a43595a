package core

import (
	"cmp"
	"context"
	"fmt"

	"xdb/internal/connector"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// GatherMetadata populates schema and statistics for every table the query
// references, through the given connectors — the shared preparation step
// of XDB and the baselines: one metadata batch per node (fetchMetadata),
// the nodes at once. Entries already carrying schema and stats are reused.
func GatherMetadata(ctx context.Context, catalog *planner.Catalog, connectors map[string]*connector.Connector, sel *sqlparser.Select) error {
	work, err := metadataWork(catalog, sel, true)
	if err != nil {
		return err
	}
	return fanOutFirstErr(ctx, len(work), false, func(fctx context.Context, n int) error {
		conn := connectors[work[n][0].Node]
		if conn == nil {
			return &NoConnectorError{Node: work[n][0].Node}
		}
		return fetchMetadata(fctx, conn, catalog, work[n])
	})
}

// metadataWork is the metadata a query needs: the catalog entries of the
// tables it references, each once, grouped by home node (groupByNode).
// With cached set, an entry already carrying schema and statistics is
// left out.
func metadataWork(catalog *planner.Catalog, sel *sqlparser.Select, cached bool) ([][]*planner.TableInfo, error) {
	seen := map[string]bool{}
	var work []*planner.TableInfo
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
	return groupByNode(work, func(info *planner.TableInfo) string { return info.Node }), nil
}

// fetchMetadata is one node's metadata round trip — one batch holding a
// TableSchema item for every entry still missing its schema and a Stats
// item for every entry — and folds each table's report into the catalog
// (Catalog.Refresh) on the table's own outcome: in full when its items
// succeeded; with just the schema when that was fetched and the stats
// item failed, so the next attempt resumes from the partial entry instead
// of asking for the schema again. The error is the round trip's, else the
// first failing table's.
func fetchMetadata(ctx context.Context, c *connector.Connector, catalog *planner.Catalog, infos []*planner.TableInfo) error {
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
		var schema *sqltypes.Schema
		var terr error
		if info.Schema == nil {
			schema, terr = replies[0].TableSchema()
			replies = replies[1:]
		}
		st, serr := replies[0].Stats()
		replies = replies[1:]
		if terr = cmp.Or(terr, serr); terr != nil {
			st = nil
			if err == nil {
				err = fmt.Errorf("core: metadata of %s: %w", info.Name, terr)
			}
		}
		catalog.Refresh(info.Name, schema, st)
	}
	return err
}
