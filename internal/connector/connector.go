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
	"xdb/internal/wire"
)

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

// Transport returns the wire transport counters (dials, reuses, retries,
// timeouts) of the client this connector issues requests through.
// Connectors created from the same client share one transport, so the
// counters aggregate across them.
func (c *Connector) Transport() wire.TransportStats { return c.client.Transport() }

// Client exposes the underlying wire client. System.Stats uses its
// identity to aggregate transport counters without double-counting
// connectors that share one client.
func (c *Connector) Client() *wire.Client { return c.client }

// Do sends a batch of control-plane requests to the DBMS in one round
// trip — the one shape every non-streaming request takes — and returns
// one Reply per request, in order. The error is the round trip's, and then
// no item's outcome is known. Connectors are context-first: the context
// bounds the round trip (tightened by the wire client's configured
// RequestTimeout) and aborts it on cancellation; nil means
// context.Background.
func (c *Connector) Do(ctx context.Context, b *wire.Batch) ([]wire.Reply, error) {
	return c.client.Do(ctx, c.Addr, c.Node, b)
}

// one sends a batch of one request and returns its reply.
func (c *Connector) one(ctx context.Context, add func(*wire.Batch)) (wire.Reply, error) {
	var b wire.Batch
	add(&b)
	replies, err := c.Do(ctx, &b)
	if err != nil {
		return wire.Reply{}, err
	}
	return replies[0], nil
}

// Calibrate aligns the DBMS's cost units with XDB's common currency by
// probing the cost of a canonical operator whose true cost XDB defines to
// be its input cardinality. This is the "simple calibration approach" of
// the paper's footnote 6.
func (c *Connector) Calibrate(ctx context.Context) error {
	const canonicalRows = 100000
	r, err := c.one(ctx, func(b *wire.Batch) { b.Cost(engine.CostScan, canonicalRows, 0, 0) })
	var raw float64
	if err == nil {
		raw, err = r.Cost()
	}
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

// The single-request methods below — Exec, Explain, Stats, CostOperator
// and DeployView — are batches of one. The middleware and the baselines
// batch per node (Do, PriceJoins, ExecScript); these exist for the
// benchmark's per-layer probes, which time one round trip of each kind.

// Exec deploys a DDL statement. DDL is never retried by the transport.
func (c *Connector) Exec(ctx context.Context, ddl string) error {
	r, err := c.one(ctx, func(b *wire.Batch) { b.Exec(ddl) })
	if err != nil {
		return err
	}
	return r.Err()
}

// Query runs a SELECT and streams results (used by the mediator baselines
// and the XDB client).
func (c *Connector) Query(ctx context.Context, sql string) (*engine.Result, error) {
	return c.client.QueryAll(ctx, c.Addr, c.Node, sql)
}

// Explain fetches calibrated cost and row estimates for a query on the
// DBMS.
func (c *Connector) Explain(ctx context.Context, sql string) (cost, rows float64, err error) {
	r, err := c.one(ctx, func(b *wire.Batch) { b.Explain(sql) })
	var info *engine.ExplainInfo
	if err == nil {
		info, err = r.Explain()
	}
	if err != nil {
		return 0, 0, fmt.Errorf("connector %s: explain: %w", c.Node, err)
	}
	return info.Cost * c.Calibration(), info.Rows, nil
}

// Stats fetches table statistics.
func (c *Connector) Stats(ctx context.Context, table string) (*engine.TableStats, error) {
	r, err := c.one(ctx, func(b *wire.Batch) { b.Stats(table) })
	var st *engine.TableStats
	if err == nil {
		st, err = r.Stats()
	}
	if err != nil {
		return nil, fmt.Errorf("connector %s: stats(%s): %w", c.Node, table, err)
	}
	return st, nil
}

// CostOperator consults the DBMS for the calibrated cost of an operator
// over hypothetical cardinalities — one "consultation roundtrip" of
// Sec. IV-B2.
func (c *Connector) CostOperator(ctx context.Context, kind engine.CostKind, left, right, out float64) (float64, error) {
	r, err := c.one(ctx, func(b *wire.Batch) { b.Cost(kind, left, right, out) })
	var raw float64
	if err == nil {
		raw, err = r.Cost()
	}
	if err != nil {
		return 0, fmt.Errorf("connector %s: cost probe: %w", c.Node, err)
	}
	return raw * c.Calibration(), nil
}

// DeployView creates a view through the vendor dialect.
func (c *Connector) DeployView(ctx context.Context, name string, query *sqlparser.Select) error {
	return c.Exec(ctx, c.Dialect.CreateView(name, query))
}

// JoinProbe is one join of a consultation: its estimated input and output
// cardinalities.
type JoinProbe struct {
	Left, Right, Out float64
}

// PriceJoins consults the DBMS for every price of every join in one round
// trip: prices[i] and errs[i] answer joins[i], each price calibrated as
// CostOperator calibrates it. err is the round trip's own failure, and then
// nothing was answered.
func (c *Connector) PriceJoins(ctx context.Context, joins []JoinProbe) (prices []engine.JoinPrices, errs []error, err error) {
	var b wire.Batch
	for _, j := range joins {
		b.PriceJoin(j.Left, j.Right, j.Out)
	}
	replies, err := c.Do(ctx, &b)
	if err != nil {
		return nil, nil, fmt.Errorf("connector %s: join probes: %w", c.Node, err)
	}
	prices, errs = make([]engine.JoinPrices, len(joins)), make([]error, len(joins))
	cal := c.Calibration()
	for i, r := range replies {
		p, err := r.JoinPrices()
		if err != nil {
			errs[i] = fmt.Errorf("connector %s: join probe: %w", c.Node, err)
			continue
		}
		prices[i] = engine.JoinPrices{
			Join: p.Join * cal, LeftStream: p.LeftStream * cal, RightStream: p.RightStream * cal,
			ScanLeft: p.ScanLeft * cal, ScanRight: p.ScanRight * cal,
		}
	}
	return prices, errs, nil
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
	replies, err := c.Do(ctx, &b)
	if err != nil {
		return nil, err
	}
	errs = make([]error, len(stmts))
	for i, r := range replies {
		errs[i] = r.Err()
	}
	return errs, nil
}
