// Package connector implements XDB's DBMS connectors (DCs): the thin,
// per-DBMS components through which the middleware deploys DDL, gathers
// metadata and statistics, and "consults" the engines for cost estimates
// during plan annotation (Sec. IV-B2). Connectors also calibrate the
// engines' mutually incompatible cost units into a common currency
// (footnote 6 of the paper).
package connector

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"xdb/internal/dialect"
	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
	"xdb/internal/wire"
)

// Connectors are context-first: every RPC takes the caller's context,
// which bounds the round trip (tightened by the wire client's configured
// RequestTimeout) and aborts it on cancellation. A nil context is
// normalized to context.Background so legacy call sites cannot panic the
// transport.
func reqCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Connector is XDB's handle on one underlying DBMS.
type Connector struct {
	// Node is the DBMS's node name — also the annotation the optimizer
	// assigns to operators placed on it.
	Node string
	// Addr is the engine's wire address.
	Addr string
	// Vendor identifies the dialect and profile of the DBMS.
	Vendor engine.Vendor
	// Dialect renders DDL for the DBMS.
	Dialect dialect.Dialect

	client *wire.Client
	// calibration holds the bits of the float64 factor that converts the
	// remote's cost units into XDB's common currency (multiplicative; 1.0
	// before Calibrate is called). Atomic: a query's preparation may
	// recalibrate a recovered node while another query's annotation
	// consults it.
	calibration atomic.Uint64
	// probes counts consulting round trips (EXPLAIN/cost/stats RPCs), for
	// the Fig. 15 breakdown analysis.
	probes atomic.Int64
}

// New creates a connector that issues requests from the given client
// (typically owned by the middleware node).
func New(node, addr string, vendor engine.Vendor, client *wire.Client) *Connector {
	c := &Connector{
		Node:    node,
		Addr:    addr,
		Vendor:  vendor,
		Dialect: dialect.ForVendor(vendor),
		client:  client,
	}
	c.calibration.Store(math.Float64bits(1))
	return c
}

// Probes returns the number of consulting round trips made so far.
func (c *Connector) Probes() int64 { return c.probes.Load() }

// Transport returns the wire transport counters (dials, reuses, retries,
// timeouts) of the client this connector issues requests through — the
// connection-level complement of Probes(). Connectors created from the
// same client share one transport, so the counters aggregate across them.
func (c *Connector) Transport() wire.TransportStats { return c.client.Transport() }

// Client exposes the underlying wire client. System.Stats uses its
// identity to aggregate transport counters without double-counting
// connectors that share one client.
func (c *Connector) Client() *wire.Client { return c.client }

// ResetProbes clears the probe counter (called per query by the breakdown
// instrumentation).
func (c *Connector) ResetProbes() { c.probes.Store(0) }

// Calibrate aligns the DBMS's cost units with XDB's common currency by
// probing the cost of a canonical operator whose true cost XDB defines to
// be its input cardinality. This is the "simple calibration approach" of
// the paper's footnote 6.
func (c *Connector) Calibrate(ctx context.Context) error {
	const canonicalRows = 100000
	c.probes.Add(1)
	raw, err := c.client.Cost(ctx, c.Addr, c.Node, engine.CostScan, canonicalRows, 0, 0)
	if err != nil {
		return fmt.Errorf("connector %s: calibrate: %w", c.Node, err)
	}
	if raw <= 0 {
		return fmt.Errorf("connector %s: calibrate: non-positive probe cost %v", c.Node, raw)
	}
	c.calibration.Store(math.Float64bits(canonicalRows / raw))
	return nil
}

// Calibration returns the current unit-conversion factor.
func (c *Connector) Calibration() float64 { return math.Float64frombits(c.calibration.Load()) }

// Exec deploys a DDL statement. DDL is never retried by the transport;
// the context (or the client's configured RequestTimeout) bounds it.
func (c *Connector) Exec(ctx context.Context, ddl string) error {
	return c.client.Exec(reqCtx(ctx), c.Addr, c.Node, ddl)
}

// Query runs a SELECT and streams results (used by the mediator baselines
// and the XDB client).
func (c *Connector) Query(ctx context.Context, sql string) (*engine.Result, error) {
	return c.client.QueryAll(reqCtx(ctx), c.Addr, c.Node, sql)
}

// QueryStream runs a SELECT and returns the result schema and streaming
// batch iterator.
func (c *Connector) QueryStream(ctx context.Context, sql string) (*sqltypes.Schema, engine.BatchIter, error) {
	return c.client.Query(reqCtx(ctx), c.Addr, c.Node, sql)
}

// Explain fetches calibrated cost and row estimates for a query on the
// DBMS.
func (c *Connector) Explain(ctx context.Context, sql string) (cost, rows float64, err error) {
	c.probes.Add(1)
	info, err := c.client.Explain(ctx, c.Addr, c.Node, sql)
	if err != nil {
		return 0, 0, fmt.Errorf("connector %s: explain: %w", c.Node, err)
	}
	return info.Cost * c.Calibration(), info.Rows, nil
}

// Stats fetches table statistics.
func (c *Connector) Stats(ctx context.Context, table string) (*engine.TableStats, error) {
	c.probes.Add(1)
	st, err := c.client.Stats(ctx, c.Addr, c.Node, table)
	if err != nil {
		return nil, fmt.Errorf("connector %s: stats(%s): %w", c.Node, table, err)
	}
	return st, nil
}

// TableSchema fetches the column schema of a relation on the DBMS.
func (c *Connector) TableSchema(ctx context.Context, table string) (*sqltypes.Schema, error) {
	c.probes.Add(1)
	schema, err := c.client.TableSchema(ctx, c.Addr, c.Node, table)
	if err != nil {
		return nil, fmt.Errorf("connector %s: schema(%s): %w", c.Node, table, err)
	}
	return schema, nil
}

// CostOperator consults the DBMS for the calibrated cost of an operator
// over hypothetical cardinalities — one "consultation roundtrip" of
// Sec. IV-B2.
func (c *Connector) CostOperator(ctx context.Context, kind engine.CostKind, left, right, out float64) (float64, error) {
	c.probes.Add(1)
	raw, err := c.client.Cost(ctx, c.Addr, c.Node, kind, left, right, out)
	if err != nil {
		return 0, fmt.Errorf("connector %s: cost probe: %w", c.Node, err)
	}
	return raw * c.Calibration(), nil
}

// CostProbe is one question of a consultation: an operator priced over
// hypothetical cardinalities.
type CostProbe struct {
	Kind             engine.CostKind
	Left, Right, Out float64
}

// CostOperators is CostOperator for several probes in one consultation
// round trip. costs[i] and errs[i] answer probes[i]; err is the round
// trip's own failure, and then nothing was answered.
func (c *Connector) CostOperators(ctx context.Context, probes []CostProbe) (costs []float64, errs []error, err error) {
	var b wire.Batch
	for _, p := range probes {
		b.Cost(p.Kind, p.Left, p.Right, p.Out)
	}
	c.probes.Add(1)
	replies, err := c.client.Do(reqCtx(ctx), c.Addr, c.Node, &b)
	if err != nil {
		return nil, nil, fmt.Errorf("connector %s: cost probes: %w", c.Node, err)
	}
	costs, errs = make([]float64, len(probes)), make([]error, len(probes))
	for i, r := range replies {
		raw, err := r.Cost()
		if err != nil {
			errs[i] = fmt.Errorf("connector %s: cost probe: %w", c.Node, err)
		}
		costs[i] = raw * c.Calibration()
	}
	return costs, errs, nil
}

// ExecScript runs DDL statements in order in one round trip. The DBMS runs
// every one of them, whatever the ones before it returned; errs[i] is
// statement i's own outcome. err is the round trip's own failure: then no
// statement's outcome is known — the script is never retried, and any of
// it may have run.
func (c *Connector) ExecScript(ctx context.Context, stmts []string) (errs []error, err error) {
	var b wire.Batch
	for _, sql := range stmts {
		b.Exec(sql)
	}
	replies, err := c.client.Do(reqCtx(ctx), c.Addr, c.Node, &b)
	if err != nil {
		return nil, err
	}
	errs = make([]error, len(stmts))
	for i, r := range replies {
		errs[i] = r.Err()
	}
	return errs, nil
}

// Sample asks the DBMS to scan at most limit rows of a base table and
// report the predicate match count plus a statistics sketch over the
// scanned rows — the bounded-sample refinement probe (a consulting round
// trip, like CostOperator, so it counts on Probes).
func (c *Connector) Sample(ctx context.Context, table, alias, filter string, limit int64) (*engine.SampleResult, error) {
	c.probes.Add(1)
	res, err := c.client.Sample(reqCtx(ctx), c.Addr, c.Node, table, alias, filter, limit)
	if err != nil {
		return nil, fmt.Errorf("connector %s: sample(%s): %w", c.Node, table, err)
	}
	return res, nil
}

// DeployView creates a view through the vendor dialect.
func (c *Connector) DeployView(ctx context.Context, name string, query *sqlparser.Select) error {
	return c.Exec(ctx, c.Dialect.CreateView(name, query))
}

// DeployTableAs materializes a query into a local table (explicit data
// movement).
func (c *Connector) DeployTableAs(ctx context.Context, name string, query *sqlparser.Select) error {
	return c.Exec(ctx, c.Dialect.CreateTableAs(name, query))
}
