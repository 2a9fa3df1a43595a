// Package mediator implements the classic Mediator-Wrapper baseline of
// Fig. 4a — the architecture of Garlic and (scaled out) Presto. The
// mediator decomposes a cross-database query into per-DBMS local
// fragments (selections, projections, and co-located joins are pushed
// down), executes each fragment on its DBMS, fetches every intermediate
// result to the mediator's own execution engine, and performs all
// cross-database operations there. The cost the paper attributes to this
// architecture — shipping all intermediates to one site — is inherent in
// the structure below, not simulated.
package mediator

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"xdb/internal/connector"
	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// Config configures a mediator.
type Config struct {
	// Name labels the system in reports ("Garlic", "Presto-4", ...).
	Name string
	// Node is the mediator's node in the topology.
	Node string
	// Topo provides shaping and accounting (nil for unit tests).
	Topo *netsim.Topology
	// Connectors are the access paths to the underlying DBMSes.
	Connectors map[string]*connector.Connector
	// Workers scales the mediator's execution engine (Presto's scale-out;
	// 1 = the single-node Garlic mediator).
	Workers int
	// TextProtocol fetches intermediates with the JDBC-style text
	// encoding (Presto); false uses the binary protocol (the paper's
	// Garlic implementation leverages PostgreSQL's binary transfer).
	TextProtocol bool
	// CoordinatorLatency is charged once per query for fragment
	// scheduling (grows mildly with workers for Presto).
	CoordinatorLatency time.Duration
}

// Mediator is an MW-architecture query processor.
type Mediator struct {
	cfg     Config
	catalog *planner.Catalog
	client  *wire.Client
	profile engine.Profile
}

// New creates a mediator.
func New(cfg Config) *Mediator {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	profile := engine.Profiles(engine.VendorPostgres)
	// The mediator engine parallelizes across workers: per-row costs
	// shrink, with sublinear scaling (coordination overhead).
	scale := int64(cfg.Workers)
	profile.ScanNsPerRow /= scale
	profile.JoinNsPerRow /= scale
	profile.AggNsPerRow /= scale
	profile.StartupLatency = 0 // charged via CoordinatorLatency instead
	return &Mediator{
		cfg:     cfg,
		catalog: planner.NewCatalog(),
		client:  wire.NewClient(cfg.Node, cfg.Topo),
		profile: profile,
	}
}

// Name returns the configured system label.
func (m *Mediator) Name() string { return m.cfg.Name }

// Close drains the mediator's wire connection pool.
func (m *Mediator) Close() error { return m.client.Close() }

// RegisterTable maps a global table to its home DBMS.
func (m *Mediator) RegisterTable(table, node string) error {
	if _, ok := m.cfg.Connectors[node]; !ok {
		return fmt.Errorf("mediator: RegisterTable(%s): unknown node %q", table, node)
	}
	m.catalog.Put(&planner.TableInfo{Name: table, Node: node})
	return nil
}

// Stats reports one query execution's cost structure: the split the
// paper's Fig. 1 shows (fetch share vs. "actual" execution share).
type Stats struct {
	// FetchTime is the wall-clock time moving intermediates to the
	// mediator.
	FetchTime time.Duration
	// LocalTime is the mediator engine's execution time over the fetched
	// fragments.
	LocalTime time.Duration
	// RowsFetched and BytesFetched total the shipped intermediates; the
	// bytes are the wire frames the fetches received (schema, row batches
	// in the encoding they arrived in, end of stream, headers included),
	// what the transfer ledger records for them.
	RowsFetched  int64
	BytesFetched int64
	// Fragments is the number of pushed-down subqueries.
	Fragments int
}

// Total returns fetch + local time.
func (s Stats) Total() time.Duration { return s.FetchTime + s.LocalTime }

// fragment is one pushed-down subquery: a connected component of the
// query's relations on a single DBMS.
type fragment struct {
	node  string
	scans []*planner.Scan
	conjs []sqlparser.Expr
	sql   string
	cols  []string // exported global column identities
	// fetched result
	schema *sqltypes.Schema
	rows   []sqltypes.Row
	bytes  int64
}

// Query executes a cross-database query through the mediator.
func (m *Mediator) Query(sql string) (*engine.Result, *Stats, error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, nil, err
	}
	if err := core.GatherMetadata(context.Background(), m.catalog, m.cfg.Connectors, sel); err != nil {
		return nil, nil, err
	}
	analysis, err := planner.Analyze(m.catalog, sel)
	if err != nil {
		return nil, nil, err
	}
	frags, crossConjs := decompose(analysis)
	st := &Stats{Fragments: len(frags)}

	if m.cfg.CoordinatorLatency > 0 {
		time.Sleep(m.cfg.CoordinatorLatency)
	}

	// Fetch every fragment's result to the mediator (concurrently — the
	// wrappers are independent connections).
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(frags))
	for i, f := range frags {
		wg.Add(1)
		go func(i int, f *fragment) {
			defer wg.Done()
			conn := m.cfg.Connectors[f.node]
			schema, it, err := m.client.QueryEnc(context.Background(), conn.Addr, f.node, f.sql, m.cfg.TextProtocol)
			if err != nil {
				errs[i] = err
				return
			}
			rows, err := engine.Drain(it)
			if err != nil {
				errs[i] = err
				return
			}
			f.schema, f.rows, f.bytes = schema, rows, wire.ReceivedBytes(it)
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	st.FetchTime = time.Since(start)
	for _, f := range frags {
		st.RowsFetched += int64(len(f.rows))
		st.BytesFetched += f.bytes
	}

	// Execute the remaining (cross-database) operations on the mediator's
	// own engine.
	start = time.Now()
	res, err := m.executeLocal(analysis, frags, crossConjs)
	if err != nil {
		return nil, nil, err
	}
	st.LocalTime = time.Since(start)
	return res, st, nil
}

// decompose groups the query's relations into per-DBMS connected
// components (the pushed-down fragments) and returns the conjuncts that
// must run at the mediator.
func decompose(a *planner.Analysis) ([]*fragment, []sqlparser.Expr) {
	// Union-find over scans, connected when a join conjunct touches two
	// scans on the same node.
	parent := map[*planner.Scan]*planner.Scan{}
	var find func(s *planner.Scan) *planner.Scan
	find = func(s *planner.Scan) *planner.Scan {
		if parent[s] == nil || parent[s] == s {
			return s
		}
		r := find(parent[s])
		parent[s] = r
		return r
	}
	union := func(a, b *planner.Scan) { parent[find(a)] = find(b) }

	byAlias := map[string]*planner.Scan{}
	for _, s := range a.Scans {
		byAlias[strings.ToLower(s.Alias)] = s
	}
	scansOf := func(e sqlparser.Expr) []*planner.Scan {
		seen := map[*planner.Scan]bool{}
		var out []*planner.Scan
		for _, cr := range sqlparser.ColumnsIn(e) {
			if cr.Table == "" {
				continue
			}
			if s := byAlias[strings.ToLower(cr.Table)]; s != nil && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out
	}

	for _, c := range a.JoinConjs {
		ss := scansOf(c)
		if len(ss) == 2 && ss[0].Node == ss[1].Node {
			union(ss[0], ss[1])
		}
	}

	groups := map[*planner.Scan]*fragment{}
	var frags []*fragment
	fragOf := map[*planner.Scan]*fragment{}
	for _, s := range a.Scans {
		root := find(s)
		f := groups[root]
		if f == nil {
			f = &fragment{node: s.Node}
			groups[root] = f
			frags = append(frags, f)
		}
		f.scans = append(f.scans, s)
		fragOf[s] = f
	}

	// Assign join conjuncts: inside a fragment when all its scans are in
	// the same fragment; otherwise cross (mediator-side).
	var cross []sqlparser.Expr
	for _, c := range a.JoinConjs {
		ss := scansOf(c)
		sameFrag := len(ss) > 0
		for _, s := range ss {
			if fragOf[s] != fragOf[ss[0]] {
				sameFrag = false
			}
		}
		if sameFrag {
			fragOf[ss[0]].conjs = append(fragOf[ss[0]].conjs, c)
			continue
		}
		cross = append(cross, c)
	}

	for _, f := range frags {
		sel, cols := planner.RenderFragment(f.scans, f.conjs)
		f.sql, f.cols = sel.String(), cols
	}
	return frags, cross
}

// executeLocal loads the fetched fragments into a fresh mediator engine
// and runs the residual query (cross-database joins + the final block).
// The fragment-loading and rewrite machinery is shared with the
// middleware's mediator fallback (core.ExecuteLocal); what stays here is
// the mediator's own cost profile.
func (m *Mediator) executeLocal(a *planner.Analysis, frags []*fragment, cross []sqlparser.Expr) (*engine.Result, error) {
	eng := engine.New(engine.Config{Name: m.cfg.Node, Vendor: engine.VendorPostgres, Profile: &m.profile})
	locals := make([]core.LocalFragment, len(frags))
	for i, f := range frags {
		locals[i] = core.LocalFragment{Cols: f.cols, Schema: f.schema, Rows: f.rows}
	}
	return core.ExecuteLocal(eng, a.Canon, locals, cross)
}
