// Package core is XDB's runtime: everything the optimizer
// (internal/planner) leaves out because it touches the wire or outlives one
// plan. A cross-database query flows through it as admission, preparation
// (metadata and sampling round trips), the planner's phases with one
// consultation round between annotation's asks and its decisions, the
// delegation engine (Sec. V) — which rewrites the delegation plan into
// vendor-specific DDL (servers, foreign tables, views, CREATE TABLE AS)
// and hands the client a single XDB query whose evaluation triggers the
// fully decentralized, mediator-less execution cascade — and cleanup,
// with failover, breakers, the plan and consult caches, and the query's
// record and traces around them.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/obs"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/wire"
)

// System is the XDB middleware: the cross-database optimizer plus the
// delegation engine, wired to the underlying DBMSes through connectors.
// It holds no execution engine — queries execute entirely inside (and
// between) the registered DBMSes; the middleware only plans, deploys DDL,
// and hands the client its XDB query (Sec. III).
type System struct {
	// node is the middleware's node name in the topology (its control
	// traffic is accounted against this node).
	node string
	// clientNode is where the XDB client runs; the final result flows to
	// it.
	clientNode string

	connectors map[string]*connector.Connector
	catalog    *planner.Catalog
	topo       *netsim.Topology
	clientWire *wire.Client
	opts       Options

	// health tracks per-node circuit breakers fed by RPC outcomes; its
	// recovery hook triggers orphan sweeps (see health.go).
	health *healthTracker
	// orphans parks short-lived relations whose drops failed, for the
	// janitor to retry (see orphans.go).
	orphans *orphanRegistry
	sweepMu sync.Mutex
	// admit is the global admission controller (in-flight cap, wait
	// queue, drain), nodes the per-node control-plane limiter (see
	// admission.go).
	admit *admitter
	nodes *nodeLimiter
	// bg tracks background janitor goroutines so Close can wait for them.
	bg sync.WaitGroup
	// inflight is the live registry of admitted, unfinished queries; the
	// wire flow sink routes per-edge accounting into it (see inflight.go).
	inflight *inflightRegistry
	// metricsLn/metricsSrv serve the process-wide metrics registry when
	// Options.MetricsAddr is set (see startMetricsServer).
	metricsLn  net.Listener
	metricsSrv *http.Server

	calMu sync.Mutex
	// calNodes remembers which connectors calibrated successfully, so a
	// node that was down during the first calibration pass is retried
	// once it recovers.
	calNodes map[string]bool
	// consults memoizes consultation probe results across queries when
	// Options.ConsultCacheTTL is set (nil otherwise; see
	// consultcache.go for the freshness rules).
	consults *consultCache
	// plans memoizes delegation plans and keeps their deployed objects
	// warm under refcounted leases when Options.PlanCacheSize is set (nil
	// otherwise; see plancache.go for the freshness rules). planStop
	// stops the deployment janitor; planStopOnce makes Close idempotent.
	plans        *planCache
	planStop     chan struct{}
	planStopOnce sync.Once
	// CacheStats reuses table statistics across queries instead of
	// re-gathering them during every preparation phase.
	CacheStats bool

	// hookBeforeAttempt, when set, runs right before each attempt's
	// execute step (attempt 0 is the original run). Test seam for chaos
	// tests that must kill a node after deployment but before execution.
	hookBeforeAttempt func(attempt int)
}

// NewSystem creates the middleware. topo may be nil (no shaping or
// accounting, unit tests); opts zero value is the paper's configuration.
func NewSystem(middlewareNode, clientNode string, topo *netsim.Topology, opts Options) *System {
	s := &System{
		node:       middlewareNode,
		clientNode: clientNode,
		connectors: map[string]*connector.Connector{},
		catalog:    planner.NewCatalog(),
		topo:       topo,
		clientWire: wire.NewClientWith(clientNode, topo, opts.Wire),
		opts:       opts,
		orphans:    newOrphanRegistry(),
		calNodes:   map[string]bool{},
		admit:      newAdmitter(opts.MaxInFlight, opts.MaxQueue),
		nodes:      newNodeLimiter(opts.MaxPerNode),
		consults:   newConsultCache(opts.ConsultCacheTTL),
		plans:      newPlanCache(opts.PlanCacheSize, opts.DeploymentTTL),
		planStop:   make(chan struct{}),
		inflight:   newInflightRegistry(),
	}
	s.health = newHealthTracker(opts.BreakerThreshold, opts.BreakerBackoff, DefaultBreakerBackoffMax, s.nodeRecovered)
	// Any breaker transition invalidates the node's cached consult
	// entries — costs consulted before an outage say nothing about the
	// node during or after it — and its cached plans, whose deployed
	// objects may not have survived the outage.
	s.health.onTransition = func(node string, _ BreakerState) { s.invalidateNode(node) }
	registerSystemGauges(s)
	s.startMetricsServer()
	s.startDeploymentJanitor()
	return s
}

// startMetricsServer serves obs.Default in Prometheus text format on
// Options.MetricsAddr for the System's lifetime. Best-effort: a listen
// failure is logged, not fatal — observability must never take the
// middleware down.
func (s *System) startMetricsServer() {
	if s.opts.MetricsAddr == "" {
		return
	}
	ln, err := net.Listen("tcp", s.opts.MetricsAddr)
	if err != nil {
		slog.Warn("xdb: metrics listener failed", "addr", s.opts.MetricsAddr, "err", err)
		return
	}
	s.metricsLn = ln
	mux := http.NewServeMux()
	mux.Handle("/", obs.Default.Handler())
	mux.Handle("/metrics", obs.Default.Handler())
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	srv := &http.Server{Handler: mux}
	s.metricsSrv = srv
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		srv.Serve(ln) // returns once the listener closes
	}()
}

// MetricsAddr returns the metrics endpoint's bound address ("" when no
// listener is serving) — with Options.MetricsAddr "127.0.0.1:0" this is
// how callers learn the picked port.
func (s *System) MetricsAddr() string {
	if s.metricsLn == nil {
		return ""
	}
	return s.metricsLn.Addr().String()
}

// NodeHealth returns every registered node's breaker state and failure
// counters.
func (s *System) NodeHealth() map[string]NodeHealth {
	snap := s.health.snapshot()
	// Nodes with no recorded RPC outcome yet still report as closed.
	for n := range s.connectors {
		if _, ok := snap[n]; !ok {
			snap[n] = NodeHealth{Node: n, State: BreakerClosed}
		}
	}
	return snap
}

// Options returns the system's optimizer options.
func (s *System) Options() Options { return s.opts }

// Close drains the system (new queries are refused, in-flight ones get
// DefaultDrainGrace to finish, orphans are swept once), waits for
// background orphan sweeps, and releases the middleware's pooled wire
// connections (the client's execution transport). The registered
// connectors' clients are owned by whoever created them — the testbed
// closes those.
func (s *System) Close() error {
	s.stopDeploymentJanitor()
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainGrace)
	s.Drain(ctx)
	cancel()
	// Warm deployments must not outlive the middleware: drop every cached
	// plan's objects (failed drops park as orphans for a later process).
	s.FlushPlans()
	if s.metricsSrv != nil {
		s.metricsSrv.Close() // unblocks Serve; bg.Wait collects it
	}
	s.bg.Wait()
	return s.clientWire.Close()
}

// Register adds a DBMS connector.
func (s *System) Register(c *connector.Connector) { s.connectors[c.Node] = c }

// Connector returns the connector for a node.
func (s *System) Connector(node string) (*connector.Connector, bool) {
	c, ok := s.connectors[node]
	return c, ok
}

// Catalog exposes the global catalog.
func (s *System) Catalog() *planner.Catalog { return s.catalog }

// RegisterTable maps a table of the global schema to its home DBMS. Schema
// and statistics are gathered lazily during each query's preparation
// phase.
func (s *System) RegisterTable(table, node string) error {
	if _, ok := s.connectors[node]; !ok {
		return fmt.Errorf("core: RegisterTable(%s): unknown node %q", table, node)
	}
	s.catalog.Put(&planner.TableInfo{Name: table, Node: node})
	return nil
}

// PlanCacheStats snapshots the delegation-plan cache: warm deployments
// held, active leases, and hit/miss/eviction counters. All zero while
// PlanCacheSize is unset.
func (s *System) PlanCacheStats() PlanCacheStats { return s.plans.stats() }

// fullCandidateSet is every registered node under
// Options.FullCandidateSet, sorted, so the full candidate set breaks cost
// ties the same way on every run; nil otherwise.
func (s *System) fullCandidateSet() []string {
	if !s.opts.FullCandidateSet {
		return nil
	}
	out := make([]string, 0, len(s.connectors))
	for n := range s.connectors {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// linkFactor is the movement-cost multiplier of the link between two
// nodes relative to the baseline LAN link: its bandwidth's shortfall (the
// planner prices no link below the baseline).
func (s *System) linkFactor(from, to string) float64 {
	if s.topo == nil || from == to {
		return 1
	}
	link := s.topo.Link(from, to)
	if link.Bandwidth <= 0 {
		return 1
	}
	return netsim.LANLink.Bandwidth / link.Bandwidth
}

// calibrate aligns cost units across all connectors. Calibration is
// best-effort per node: a node that is down keeps its identity calibration
// (1.0) and is retried on later queries, so an outage on one DBMS does not
// abort queries that never touch it. Failures feed the node's breaker. A
// node whose factor changed drops its cached consultations, which are
// priced in the old units.
func (s *System) calibrate(ctx context.Context) {
	s.calMu.Lock()
	defer s.calMu.Unlock()
	for name := range s.connectors {
		if !s.calNodes[name] {
			s.calNodes[name] = s.call(ctx, name, 1, func(rctx context.Context, c *connector.Connector) error {
				before := c.Calibration()
				err := c.Calibrate(rctx)
				if c.Calibration() != before {
					s.consults.invalidateNode(name)
				}
				return err
			}) == nil
		}
	}
}

// Plan is PlanContext with a background context, kept so existing
// callers compile unchanged.
func (s *System) Plan(sql string) (*planner.Plan, *Breakdown, error) {
	return s.PlanContext(context.Background(), sql)
}

// PlanContext runs the optimizer pipeline — preparation, logical
// optimization, annotation, finalization — under the caller's context and
// returns the delegation plan without deploying it. Planning is
// control-plane only and is not subject to admission control.
func (s *System) PlanContext(ctx context.Context, sql string) (*planner.Plan, *Breakdown, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	bd := &Breakdown{}
	plan, err := s.plan(ctx, sql, bd)
	bd.publish()
	return plan, bd, err
}

// plan runs the optimizer pipeline. The phase times accumulate into bd:
// a mid-query failover replans, and the breakdown reports the query's
// total planning spend.
func (s *System) plan(ctx context.Context, sql string, bd *Breakdown) (*planner.Plan, error) {
	a, err := s.prepare(ctx, sql, bd)
	if err != nil {
		return nil, err
	}

	// --- Logical optimization: pushdowns happened during analysis; order
	// the joins.
	_, _, done := timed(ctx, "lopt", &bd.Lopt)
	root, err := planner.Order(a, s.opts.NoJoinReorder, s.opts.BushyPlans)
	if done(err); err != nil {
		return nil, err
	}

	// --- Annotation and finalization.
	actx, annSpan, done := timed(ctx, "annotate", &bd.Ann)
	sites := planner.NewSites(s.health.healthy, s.linkFactor, s.fullCandidateSet())
	ann, err := annotate(actx, root, sites, s.priceJoins, s.consults, s.opts)
	if err != nil {
		done(err)
		return nil, err
	}
	annSpan.Set("consult_rounds", strconv.Itoa(ann.ConsultRounds))
	if ann.DegradedProbes > 0 {
		annSpan.Set("degraded", strconv.Itoa(ann.DegradedProbes))
	}
	if ann.CachedProbes > 0 {
		annSpan.Set("cached", strconv.Itoa(ann.CachedProbes))
	}
	plan := planner.Finalize(a, root, ann)
	done(nil)
	bd.ConsultRounds += ann.ConsultRounds
	bd.DegradedProbes += ann.DegradedProbes
	bd.CachedProbes += ann.CachedProbes
	return plan, nil
}

// prepare is the preparation phase: parse, gather metadata through the
// DCs, analyze the query with its pushdowns, and refine the
// low-confidence estimates by sampling (sample.go) — before the joins are
// ordered and placed, so both decisions see the refined cardinalities.
func (s *System) prepare(ctx context.Context, sql string, bd *Breakdown) (a *planner.Analysis, err error) {
	ctx, span, done := timed(ctx, "prep", &bd.Prep)
	defer func() { done(err) }()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	s.calibrate(ctx)
	if err := s.gatherMetadata(ctx, sel); err != nil {
		return nil, err
	}
	if a, err = planner.Analyze(s.catalog, sel); err != nil {
		return nil, err
	}
	if s.opts.SampleLimit > 0 {
		n := s.sampleRefine(ctx, a.Scans)
		bd.SampleProbes += n
		if n > 0 {
			span.Set("samples", strconv.Itoa(n))
		}
	}
	return a, nil
}

// gatherMetadata fetches schema and statistics for every referenced table
// and folds them into the catalog (Catalog.Refresh). Each node gets one
// metadata batch under one call — the tables' home must answer, a query
// referencing them cannot degrade around the node that holds their rows —
// and the nodes fetch at once; the first failure cancels the rest of the
// fan-out.
func (s *System) gatherMetadata(ctx context.Context, sel *sqlparser.Select) error {
	work, err := metadataWork(s.catalog, sel, s.CacheStats)
	if err != nil {
		return err
	}
	return fanOutFirstErr(ctx, len(work), s.opts.serial, func(fctx context.Context, n int) (err error) {
		infos := work[n]
		mdSpan := obs.SpanFrom(fctx).Child("metadata")
		mdSpan.Set("node", infos[0].Node)
		mdSpan.Set("tables", strconv.Itoa(len(infos)))
		defer func() {
			mdSpan.SetErr(err)
			mdSpan.Finish()
		}()
		return s.call(fctx, infos[0].Node, 1, func(rctx context.Context, c *connector.Connector) error {
			return fetchMetadata(rctx, c, s.catalog, infos)
		})
	})
}

// Result is the outcome of a cross-database query.
type Result struct {
	*engine.Result
	Plan      *planner.Plan
	Breakdown Breakdown
	// XDBQuery is the rewritten query the client executed.
	XDBQuery string
	// RootNode is the DBMS the client executed it on.
	RootNode string
	// CleanupErr is non-nil when some of the query's short-lived
	// relations could not be dropped; those objects are parked in the
	// orphan registry (System.Orphans) for the janitor to retry. The
	// query itself still succeeded.
	CleanupErr error
	// Trace is the query's finished span tree when tracing was on
	// (Options.Trace, or a span carried on the caller's context); nil
	// otherwise. Render it with Trace.String() or export it with
	// Trace.JSON().
	Trace *obs.Span
	// QID is the executed deployment's query id — the <qid> in the
	// short-lived relations' xdb<qid>_* names (0 for a mediator-fallback
	// finish, which deploys nothing).
	QID int64
	// Flows is the per-edge wire flow accounting observed while the
	// query ran: one entry per attributed stream (implicit pulls,
	// explicit materialization fetches, and the root result delivery),
	// across all attempts. Result.Analyze renders
	// it against the executed plan.
	Flows []EdgeFlow
}

// Query is QueryContext with a background context, kept so existing
// callers compile unchanged.
func (s *System) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext runs the full XDB pipeline under the caller's context:
// admission, optimization, delegation, execution of the XDB query on the
// root DBMS (triggering the decentralized cascade), cleanup of the
// short-lived relations, and the result. Options.QueryTimeout tightens
// the context end to end. Cancelling the context aborts planning,
// delegation, and execution, but never the cleanup — a cancelled query
// drops what it deployed on a detached context, so cancellation parks no
// avoidable orphans. Under overload the query may be shed with
// OverloadError; during shutdown with DrainingError.
func (s *System) QueryContext(ctx context.Context, sql string) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
		defer cancel()
	}

	// --- Tracing: a root span per query when enabled — by Options or by
	// a span the caller put on the context (obs.ContextWithSpan). Off, the
	// span stays nil and every instrumentation point below is a no-op.
	var qspan *obs.Span
	if parent := obs.SpanFrom(ctx); parent != nil {
		qspan = parent.Child("query")
	} else if s.opts.Trace {
		qspan = obs.NewSpan("query")
	}
	run := &queryRun{s: s, qspan: qspan, sql: sql}
	wallStart := time.Now()
	if qspan != nil {
		qspan.Set("sql", truncateSQL(sql))
		ctx = obs.ContextWithSpan(ctx, qspan)
		// However the query ends, the exposed tree is closed — a
		// cancelled deployment must not leave orphan open spans.
		defer qspan.FinishAll()
	}
	defer func() {
		wall := time.Since(wallStart)
		met.queries.With(queryOutcome(err)).Inc()
		observeSeconds(met.queryDur, wall)
		observeSeconds(met.admissionWait, run.bd.AdmissionWait)
		run.bd.publish()
		qspan.SetErr(err)
		s.logSlowQuery(sql, wall, &run.bd, run.plan, err)
	}()

	// --- Admission: take an in-flight slot (or queue for one while the
	// deadline allows). The wait goes on the record whatever the outcome:
	// a shed query's record shows how long it queued.
	waitStart := time.Now()
	admSpan := qspan.Child("admission")
	release, queued, err := s.admit.admit(ctx)
	run.bd.AdmissionWait, run.bd.Queued = time.Since(waitStart), queued
	if queued {
		admSpan.Set("queued", "true")
	}
	admSpan.SetErr(err)
	admSpan.Finish()
	if err != nil {
		return nil, err
	}
	defer release()

	// Admitted: the query is now visible to the inspector until it
	// finishes (the deferred deregister also unroutes its flow qids, so a
	// failed-over or cancelled query never leaks an entry).
	run.inf = s.inflight.register(sql)
	defer s.inflight.deregister(run.inf)

	// The plan-cache key is the canonical rendering of the parsed
	// statement, so formatting differences (case of keywords, whitespace)
	// hit the same entry. An unparsable statement skips the cache and
	// fails inside the pipeline with the real parse error.
	if s.plans != nil {
		if sel, perr := sqlparser.ParseSelect(sql); perr == nil {
			run.cacheKey = sel.String()
		}
	}

	// plan → deploy → execute → settle (lifecycle.go). With MaxReplans 0
	// — the paper's configuration — the line is straight and the first
	// fault fails the query.
	run.ctx = ctx
	return run.run()
}

// executeDeployment runs the deployment's XDB query on its root DBMS and
// returns the result rows. The caller's context bounds the read.
func (s *System) executeDeployment(ctx context.Context, qspan *obs.Span, dep *Deployment) (*engine.Result, error) {
	execSpan := qspan.Child("execute")
	execSpan.Set("node", dep.Node)
	defer execSpan.Finish()
	rootConn, ok := s.connectors[dep.Node]
	if !ok {
		err := &NoConnectorError{Node: dep.Node}
		execSpan.SetErr(err)
		return nil, err
	}
	eres, err := s.clientWire.QueryAll(ctx, rootConn.Addr, dep.Node, dep.XDBQuery)
	if eres != nil {
		execSpan.AddRows(int64(len(eres.Rows)))
	}
	execSpan.SetErr(err)
	if err != nil {
		// Attribute the execution stream's failure to the root DBMS so the
		// failover classifier can pin a bare deadline on a node. The
		// wrapper is message-transparent.
		return eres, &nodeFaultError{node: dep.Node, err: err}
	}
	return eres, nil
}

// truncateSQL bounds the SQL text attached to spans and log records,
// cutting on a rune boundary so multi-byte text never truncates to
// invalid UTF-8.
func truncateSQL(sql string) string {
	const max = 200
	if len(sql) <= max {
		return sql
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(sql[cut]) {
		cut--
	}
	return sql[:cut] + "..."
}

// planShape renders the delegation plan's shape in one token: task
// count, the root's node, and the movement split, e.g.
// "tasks=5 root=db1 moves=3i/1e".
func planShape(p *planner.Plan) string {
	implicit, explicit := p.Movements()
	root := ""
	if p.Root != nil {
		root = p.Root.Node
	}
	return fmt.Sprintf("tasks=%d root=%s moves=%di/%de", len(p.Tasks), root, implicit, explicit)
}
