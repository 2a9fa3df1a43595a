// Package xdb is the public API of the XDB reproduction — an in-situ
// cross-database query processing middleware (Gavriilidis et al., ICDE
// 2023) together with every substrate it runs on: emulated autonomous DBMS
// engines with SQL/MED foreign tables, a wire protocol with transfer
// accounting, a simulated network topology, and the Garlic/Presto/Sclera
// baseline architectures.
//
// The middleware itself is System (the cross-database optimizer plus the
// delegation engine). Most users want Cluster, which assembles a complete
// in-process deployment — N DBMS nodes served over TCP on a simulated
// topology — and exposes cross-database queries against it:
//
//	cluster, err := xdb.NewCluster([]string{"db1", "db2"}, xdb.ClusterConfig{})
//	defer cluster.Close()
//	cluster.Load("db1", "users", usersSchema, userRows)
//	cluster.Load("db2", "orders", ordersSchema, orderRows)
//	res, err := cluster.Query("SELECT u.name, COUNT(*) FROM users u, orders o " +
//	    "WHERE u.id = o.user_id GROUP BY u.name")
//
// Queries are optimized into delegation plans, deployed as views and
// foreign tables onto the underlying engines, and executed by the engines
// themselves in a decentralized pipeline — the middleware never touches a
// data row.
package xdb

import (
	"context"
	"net/http"
	"time"

	"xdb/internal/connector"
	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/mediator"
	"xdb/internal/netsim"
	"xdb/internal/obs"
	"xdb/internal/planner"
	"xdb/internal/sclera"
	"xdb/internal/sqltypes"
	"xdb/internal/testbed"
	"xdb/internal/tpch"
	"xdb/internal/wire"
)

// Re-exported middleware types. See the internal/core package for the
// optimizer and delegation internals.
type (
	// System is the XDB middleware: optimizer + delegation engine.
	System = core.System
	// Options configures the middleware; the zero value is the paper's
	// configuration. A few fields switch optimizer behaviour for the
	// ablation studies; the rest bound its operation (timeouts,
	// breakers, recovery budgets, caches, admission, observability).
	Options = core.Options
	// Result is a completed cross-database query with its delegation
	// plan and phase breakdown.
	Result = core.Result
	// Breakdown is the record of one query: the per-phase timing of
	// Fig. 15 (prep / lopt / ann / deleg / exec) plus what the lifecycle
	// spent and decided. The slow-query log, /debug/queries and
	// Result.Analyze show its non-zero fields under their json names.
	Breakdown = core.Breakdown
	// Plan is a delegation plan: tasks pinned to DBMSes with
	// implicit/explicit dataflow edges.
	Plan = planner.Plan
	// Task is one delegation-plan node.
	Task = planner.Task
	// Movement labels a dataflow edge (implicit = pipelined, explicit =
	// materialized).
	Movement = planner.Movement
	// Connector is XDB's per-DBMS access path.
	Connector = connector.Connector
	// Vendor identifies an emulated DBMS product (postgres, mariadb,
	// hive).
	Vendor = engine.Vendor
	// Schema describes a relation's columns.
	Schema = sqltypes.Schema
	// Column is one column of a schema.
	Column = sqltypes.Column
	// Row is one tuple.
	Row = sqltypes.Row
	// Value is one SQL value.
	Value = sqltypes.Value
	// Topology is the simulated network.
	Topology = netsim.Topology
	// TransportStats is a snapshot of a wire client's connection-level
	// counters (dials, reuses, retries, timeouts).
	TransportStats = wire.TransportStats
	// Site is a location in the simulated topology; fault injection
	// (partitions, flaky links) targets site pairs.
	Site = netsim.Site
	// Flake degrades one link with probabilistic frame loss and extra
	// delay.
	Flake = netsim.Flake
	// LinkSpec sets a link's bandwidth and latency (Cluster.SetLink);
	// placement follows link cost, so a slow link steers delegation.
	LinkSpec = netsim.LinkSpec
	// FaultError is the error surfaced by RPCs that crossed an injected
	// fault (crashed node, partition, dropped frame).
	FaultError = netsim.FaultError
	// NodeHealth is a snapshot of one DBMS node's circuit breaker and
	// RPC outcome counters (System.NodeHealth).
	NodeHealth = core.NodeHealth
	// BreakerState is a node's circuit state: closed, open, or half-open.
	BreakerState = core.BreakerState
	// NodeUnavailableError is returned when an RPC is refused because the
	// target node's breaker is open.
	NodeUnavailableError = core.NodeUnavailableError
	// Orphan is a short-lived relation whose drop failed, parked for the
	// janitor (System.Orphans / System.SweepOrphans).
	Orphan = core.Orphan
	// OverloadError is returned when admission control sheds a query:
	// the in-flight cap (Options.MaxInFlight) is reached and the wait
	// queue is full, or the caller's deadline expired while queued.
	OverloadError = core.OverloadError
	// DrainingError is returned for queries submitted while the system
	// is draining (System.Drain / Close).
	DrainingError = core.DrainingError
	// AdmissionStats is a snapshot of the admission controller:
	// occupancy, shed counters, and high-water marks
	// (System.AdmissionStats).
	AdmissionStats = core.AdmissionStats
	// SystemStats is one coherent snapshot of the middleware's
	// operational state: admission, per-node health, aggregated
	// transport counters, and pending orphans (System.Stats).
	SystemStats = core.SystemStats
	// ConsultCacheStats is the cross-query consult cache's occupancy and
	// hit/miss/eviction counters (Options.ConsultCacheTTL enables the
	// cache; SystemStats.ConsultCache).
	ConsultCacheStats = core.ConsultCacheStats
	// PlanCacheStats is the delegation-plan cache's occupancy, active
	// deployment leases, and hit/miss/eviction counters
	// (Options.PlanCacheSize enables the cache; System.PlanCacheStats /
	// SystemStats.PlanCache).
	PlanCacheStats = core.PlanCacheStats
	// Span is one timed node of a query's trace tree (Result.Trace when
	// Options.Trace is set): flame-style String(), JSON export, and
	// per-phase attributes. See internal/obs.
	Span = obs.Span
	// SpanJSON is the exported JSON shape of a trace span.
	SpanJSON = obs.SpanJSON
	// EdgeFlow is the live wire flow accounting of one plan edge: rows,
	// bytes, and frames received by the stream's consumer
	// (Result.Flows, InflightQuery.Edges).
	EdgeFlow = core.EdgeFlow
	// InflightQuery is one entry of the live introspection registry: a
	// currently executing query with its phase, plan shape, its record
	// so far (an embedded Breakdown), and per-edge flow counters
	// (System.Inflight / Cluster.Inflight; served as JSON on
	// /debug/queries).
	InflightQuery = core.InflightQuery
)

// FormatInflight renders an in-flight snapshot the way the
// /debug/queries?format=text endpoint does — one block per query with
// its phase, its record's non-zero fields, plan shape, and per-edge flow
// counters.
func FormatInflight(qs []InflightQuery) string { return core.FormatInflight(qs) }

// MetricsHandler returns an http.Handler serving the process-wide metrics
// registry in Prometheus text format — every series the middleware
// records (queries, admission, probes, DDL, breakers, wire transport).
// Options.MetricsAddr serves the same handler on its own listener; use
// this to mount it on an existing mux instead.
func MetricsHandler() http.Handler { return obs.Default.Handler() }

// Circuit breaker states.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

// Movement kinds.
const (
	MoveImplicit = planner.MoveImplicit
	MoveExplicit = planner.MoveExplicit
)

// Emulated vendors.
const (
	VendorPostgres = engine.VendorPostgres
	VendorMariaDB  = engine.VendorMariaDB
	VendorHive     = engine.VendorHive
	// VendorTest disables CPU throttling — for tests and examples that
	// care about semantics, not performance.
	VendorTest = engine.VendorTest
)

// Value constructors.
var (
	NewInt      = sqltypes.NewInt
	NewFloat    = sqltypes.NewFloat
	NewString   = sqltypes.NewString
	NewBool     = sqltypes.NewBool
	DateFromYMD = sqltypes.DateFromYMD
	ParseDate   = sqltypes.ParseDate
	Null        = sqltypes.Null
)

// Type tags for schema columns.
const (
	TypeInt    = sqltypes.TypeInt
	TypeFloat  = sqltypes.TypeFloat
	TypeString = sqltypes.TypeString
	TypeDate   = sqltypes.TypeDate
	TypeBool   = sqltypes.TypeBool
)

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema { return sqltypes.NewSchema(cols...) }

// FormatResult renders a result as an aligned text table.
func FormatResult(r *engine.Result) string {
	return sqltypes.FormatRows(r.Schema, r.Rows)
}

// NewSystem creates a bare middleware (register connectors and tables
// yourself). Most callers should use NewCluster instead.
func NewSystem(middlewareNode, clientNode string, topo *Topology, opts Options) *System {
	return core.NewSystem(middlewareNode, clientNode, topo, opts)
}

// Connect builds a connector to a DBMS engine served at addr, issuing
// requests from the given source node.
func Connect(node, addr string, vendor Vendor, fromNode string, topo *Topology) *Connector {
	return connector.New(node, addr, vendor, wire.NewClient(fromNode, topo))
}

// ClusterConfig configures a local in-process deployment.
type ClusterConfig struct {
	// Scenario places the nodes: "lan" (default), "onprem", or "geo" —
	// see internal/netsim.
	Scenario string
	// Vendors maps node names to vendors; unlisted nodes use
	// DefaultVendor (postgres when empty).
	Vendors map[string]Vendor
	// DefaultVendor is applied to unlisted nodes.
	DefaultVendor Vendor
	// Options tunes the XDB optimizer.
	Options Options
	// TimeScale divides network shaping delays (speeds up simulations
	// uniformly).
	TimeScale float64
}

// Cluster is a complete local deployment: DBMS engines served over TCP on
// a simulated topology, plus the XDB middleware wired to them.
type Cluster struct {
	tb *testbed.Testbed
	// tables records every loaded table's home node, so the baseline
	// systems can be wired with the same global schema.
	tables map[string]string
}

// NewCluster starts engines for the named nodes and wires up the
// middleware.
func NewCluster(nodes []string, cfg ClusterConfig) (*Cluster, error) {
	tb, err := testbed.New(nodes, testbed.Config{
		Scenario:      netsim.Scenario(cfg.Scenario),
		Vendors:       cfg.Vendors,
		DefaultVendor: cfg.DefaultVendor,
		Options:       cfg.Options,
		TimeScale:     cfg.TimeScale,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{tb: tb, tables: map[string]string{}}, nil
}

// Close shuts the cluster down.
func (c *Cluster) Close() { c.tb.Close() }

// System returns the middleware for advanced use.
func (c *Cluster) System() *System { return c.tb.System }

// Topology returns the simulated network (transfer ledger, link specs).
func (c *Cluster) Topology() *Topology { return c.tb.Topo }

// Load bulk-loads a table into a node's engine and registers it in the
// global catalog.
func (c *Cluster) Load(node, table string, schema *Schema, rows []Row) error {
	if err := c.tb.LoadTable(node, table, schema, rows); err != nil {
		return err
	}
	c.tables[table] = node
	return nil
}

// LoadTPCH generates and distributes TPC-H data: td names a distribution
// from the paper's Table III ("TD1", "TD2", "TD3") whose nodes must match
// the cluster's.
func (c *Cluster) LoadTPCH(td string, sf float64) error {
	dist, err := tpch.TD(td)
	if err != nil {
		return err
	}
	if err := c.tb.LoadTPCH(dist, sf, 42); err != nil {
		return err
	}
	for table, node := range dist {
		c.tables[table] = node
	}
	return nil
}

// Baseline system handles. Garlic and Presto follow the classic
// Mediator-Wrapper architecture (Fig. 4a of the paper); Sclera is the
// naive in-situ comparator that routes every intermediate through its
// coordinator.
type (
	// MediatorSystem is a Garlic- or Presto-style MW baseline.
	MediatorSystem = mediator.Mediator
	// MediatorStats reports a mediator execution's fetch/local split.
	MediatorStats = mediator.Stats
	// ScleraSystem is the naive in-situ baseline.
	ScleraSystem = sclera.Sclera
	// ScleraStats reports its movement/execution split.
	ScleraStats = sclera.Stats
)

// NewGarlic wires the Garlic baseline to this cluster's DBMSes, with the
// same table mapping as the middleware.
func (c *Cluster) NewGarlic() (*MediatorSystem, error) {
	m := mediator.NewGarlic(testbed.MiddlewareNode, c.tb.Topo, c.tb.Connectors())
	return m, c.registerAll(m.RegisterTable)
}

// NewPresto wires a Presto baseline with the given worker count.
func (c *Cluster) NewPresto(workers int) (*MediatorSystem, error) {
	m := mediator.NewPresto(testbed.MiddlewareNode, c.tb.Topo, c.tb.Connectors(), workers)
	return m, c.registerAll(m.RegisterTable)
}

// NewSclera wires the ScleraDB-like baseline.
func (c *Cluster) NewSclera() (*ScleraSystem, error) {
	s := sclera.New(sclera.Config{
		Node:       testbed.MiddlewareNode,
		Topo:       c.tb.Topo,
		Connectors: c.tb.Connectors(),
	})
	return s, c.registerAll(s.RegisterTable)
}

func (c *Cluster) registerAll(register func(table, node string) error) error {
	for table, node := range c.tables {
		if err := register(table, node); err != nil {
			return err
		}
	}
	return nil
}

// Query optimizes, delegates, and executes a cross-database query.
func (c *Cluster) Query(sql string) (*Result, error) {
	return c.tb.System.Query(sql)
}

// QueryContext is Query under the caller's context: cancellation aborts
// planning, delegation, and execution (cleanup still runs detached), and
// Options.QueryTimeout bounds the query end to end. Under overload the
// query may be shed with OverloadError; during drain with DrainingError.
func (c *Cluster) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return c.tb.System.QueryContext(ctx, sql)
}

// Drain stops admitting queries, waits for the in-flight ones up to the
// context's deadline, and sweeps orphaned short-lived relations once.
func (c *Cluster) Drain(ctx context.Context) error {
	return c.tb.System.Drain(ctx)
}

// AdmissionStats reports the middleware's admission-control counters.
func (c *Cluster) AdmissionStats() AdmissionStats {
	return c.tb.System.AdmissionStats()
}

// Stats returns one coherent snapshot of the middleware's operational
// state: admission, per-node breaker health, aggregated wire transport
// counters, and orphans pending collection.
func (c *Cluster) Stats() SystemStats { return c.tb.System.Stats() }

// Inflight returns a snapshot of every query currently inside the
// middleware — admitted but not yet completed — with its phase, plan
// shape, budgets spent, and live per-edge flow counters. The same
// snapshot is served on /debug/queries when Options.MetricsAddr is set.
func (c *Cluster) Inflight() []InflightQuery { return c.tb.System.Inflight() }

// MetricsAddr returns the address of the middleware's metrics listener
// ("" unless Options.MetricsAddr was set and the listener started).
func (c *Cluster) MetricsAddr() string { return c.tb.System.MetricsAddr() }

// PlanOnly runs the optimizer pipeline without deploying anything.
func (c *Cluster) PlanOnly(sql string) (*Plan, *Breakdown, error) {
	return c.tb.System.Plan(sql)
}

// Describe renders the query's delegation plan with each task's SQL —
// XDB's EXPLAIN. Nothing is deployed.
func (c *Cluster) Describe(sql string) (string, error) {
	plan, _, err := c.tb.System.Plan(sql)
	if err != nil {
		return "", err
	}
	return plan.Describe()
}

// TransferTotal returns the bytes moved between distinct nodes since the
// last ResetTransfers.
func (c *Cluster) TransferTotal() int64 { return c.tb.Topo.Ledger().Total() }

// ResetTransfers clears the transfer ledger.
func (c *Cluster) ResetTransfers() { c.tb.ResetTransfers() }

// Fault injection. The knobs below manipulate the simulated network under
// a running cluster; the middleware's health tracking, degraded planning,
// and orphan-DDL janitor react to them exactly as they would to a real
// outage. See README "Fault injection & recovery".

// CrashNode makes every RPC from or to the node fail until ReviveNode.
func (c *Cluster) CrashNode(node string) { c.tb.Topo.CrashNode(node) }

// ReviveNode undoes CrashNode.
func (c *Cluster) ReviveNode(node string) { c.tb.Topo.ReviveNode(node) }

// PartitionSites severs the link between two sites (both directions).
func (c *Cluster) PartitionSites(a, b Site) { c.tb.Topo.PartitionSites(a, b) }

// SiteOf returns the site a node was placed on by the cluster's scenario.
func (c *Cluster) SiteOf(node string) Site { return c.tb.Topo.SiteOf(node) }

// Heal removes every site partition (crashed nodes stay crashed).
func (c *Cluster) Heal() { c.tb.Topo.Heal() }

// SetFlake degrades the link between two sites with probabilistic frame
// loss and extra delay; a zero Flake restores the link.
func (c *Cluster) SetFlake(a, b Site, f Flake) { c.tb.Topo.SetFlake(a, b, f) }

// SetLink overrides the bandwidth and latency of the link between two
// sites. Placement follows link cost, so a slow link steers delegation
// away from the pair.
func (c *Cluster) SetLink(a, b Site, spec LinkSpec) { c.tb.Topo.SetLink(a, b, spec) }

// SetFaultSeed fixes the RNG behind probabilistic faults, making flaky-
// link drops reproducible.
func (c *Cluster) SetFaultSeed(seed int64) { c.tb.Topo.SetFaultSeed(seed) }

// SlowNode stalls every frame from or to the node by the given wall-clock
// delay — a wedged-but-alive process, as opposed to CrashNode's dead one.
// A non-positive delay clears the stall. With Options.MaxReplans set, a
// stall past the request deadline triggers mid-query failover classified
// as "slow" rather than "fault".
func (c *Cluster) SlowNode(node string, delay time.Duration) { c.tb.Topo.SlowNode(node, delay) }

// SkewStats distorts the statistics a table's engine reports (RowCount
// and distinct counts scaled by factor) while scans keep returning the
// true rows — the stale-ANALYZE condition behind most cross-database
// misestimates. A factor of 1 removes the distortion. Options.SampleLimit
// lets a query probe the table before it plans, and every drained edge
// that contradicts the skew corrects the next query's statistics; see
// README "Robust to misestimation".
func (c *Cluster) SkewStats(table string, factor float64) error {
	return c.tb.SkewStats(table, factor)
}

// NodeHealth reports every DBMS node's breaker state and RPC counters.
func (c *Cluster) NodeHealth() map[string]NodeHealth { return c.tb.System.NodeHealth() }

// Orphans lists short-lived relations whose drops failed and await the
// janitor.
func (c *Cluster) Orphans() []Orphan { return c.tb.System.Orphans() }

// SweepOrphans retries every parked drop, returning how many were
// collected and how many remain.
func (c *Cluster) SweepOrphans() (dropped, remaining int, err error) {
	return c.tb.System.SweepOrphans()
}
