package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"time"

	"xdb/internal/engine"
	"xdb/internal/joinorder"
	"xdb/internal/sqlparser"
	"xdb/internal/wire"
)

// Logical optimization (Sec. IV-B1): selection and projection pushdown
// happen while building (build.go); this file orders the joins. The paper
// restricts plans to left-deep trees (footnote 5); internal/joinorder
// enumerates them over the join graph extracted here, minimizing the sum
// of estimated intermediate results. This is the "overall reduces the
// intermediate data" objective of the paper, which matters doubly here
// because intermediate size is also inter-DBMS transfer volume.

// Options configures the middleware; the zero value is the paper's
// configuration. The first group switches optimizer behaviour off or on
// for the ablation studies (DESIGN.md §5); the rest bound its operation —
// timeouts, breakers, failover and re-optimization budgets, sampling,
// caches, admission, and observability. Every threshold not listed here
// is a Default* constant.
type Options struct {
	// NoJoinReorder delegates the user's syntactic join order (ablation
	// A3).
	NoJoinReorder bool
	// ForceMovement forces every cross-DBMS edge to the given movement
	// instead of costing the choice (ablation A1). Zero means cost-based.
	ForceMovement Movement
	// FullCandidateSet considers every registered DBMS as a placement
	// candidate for cross-database operators instead of the paper's
	// two-input pruning (ablation A2).
	FullCandidateSet bool
	// BushyPlans lifts the paper's left-deep restriction (footnote 5
	// leaves bushy trees as future work, noting that their parallelism
	// "increases the performance"): join ordering greedily merges the
	// cheapest connected component pair, so independent subtrees can
	// execute — and ship — concurrently on different DBMSes.
	BushyPlans bool
	// NoVirtualRelations deploys foreign tables directly over remote base
	// tables instead of wrapping each task in a view, re-exposing the
	// wrapper pushdown-capability variance of Sec. V (ablation A4).
	NoVirtualRelations bool

	// RequestTimeout bounds every control-plane RPC the middleware
	// issues (metadata gathering, EXPLAIN/cost probes, DDL deployment).
	// Zero leaves them unbounded, matching the paper configuration.
	// Execution of the XDB query itself is data-plane and stays
	// unbounded.
	RequestTimeout time.Duration
	// CleanupTimeout bounds each DROP statement while sweeping a
	// deployment's short-lived relations, so the sweep keeps moving past
	// a dead or hung node. Zero falls back to RequestTimeout.
	CleanupTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// node's circuit breaker, after which control-plane RPCs to it fail
	// fast and planning degrades around it. Zero means
	// DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerBackoff is the base window an open breaker fails fast before
	// half-opening to probe the node again; consecutive opens double the
	// window (with jitter) up to DefaultBreakerBackoffMax, or up to
	// BreakerBackoff when that is larger. Zero means DefaultBreakerBackoff.
	BreakerBackoff time.Duration

	// MaxReplans is how many times one query may re-plan and re-deploy
	// after a node-attributable mid-query fault (crash, partition, open
	// breaker, deadline-expired wedged node — never a caller cancellation
	// or a SQL error). Each replan excludes the failed node, reuses the
	// surviving deployed fragments, and backs off with jitter
	// (ReplanBackoff base). Zero (the paper configuration) fails the query
	// on the first mid-query fault, exactly as before.
	MaxReplans int
	// ReplanBackoff is the base jittered wait between failover attempts;
	// attempt n waits ~ReplanBackoff·2ⁿ. Zero means DefaultReplanBackoff.
	ReplanBackoff time.Duration
	// MediatorFallback, when set, finishes a query locally after in-situ
	// placement is exhausted (replans spent or no surviving candidate
	// site): the per-scan fragments still reachable are shipped to the
	// middleware and joined by the embedded engine, mediator-style.
	// Results are flagged with Breakdown.MediatorFallback. Off by default
	// — the fallback trades the paper's in-situ efficiency for
	// availability, and it bypasses remote operator pushdown.
	MediatorFallback bool
	// SampleLimit enables proactive sampling-based estimate refinement:
	// before a cross-database query's joins are ordered and placed, each
	// low-confidence relation (no column statistics, a learned
	// correction, an ambiguous movement decision, or a reported row
	// count the probe can verify outright — see sample.go) is probed with
	// a bounded sample of at most SampleLimit rows, and the observed
	// match count and statistics sketch replace the plain estimate before
	// anything ships. Zero (the paper configuration) disables sampling.
	SampleLimit int

	// ConsultCacheTTL enables the cross-query consult cache: a join's
	// successfully consulted prices are memoized per (node, bucketed
	// cardinalities) and served without a round trip until the entry ages
	// out, the node's breaker changes state, or the node's calibration
	// factor changes. A table's statistics are part of no entry: they
	// change the cardinalities asked, hence the key. Zero (the paper
	// configuration) disables the cache.
	ConsultCacheTTL time.Duration
	// PlanCacheSize enables the delegation-plan cache: a completed query's
	// delegation plan AND its deployed short-lived relations (views,
	// SQL/MED servers, foreign tables) are retained under a refcounted
	// lease, so a repeated identical statement skips logical optimization,
	// annotation, and every deployment DDL — it becomes one SELECT on the
	// root DBMS with Breakdown.DDLCount == 0. Entries are keyed on the
	// normalized AST. An entry is served only while the catalog still
	// holds every table its plan read on the same node with the same
	// planning statistics; a breaker transition on a node drops every
	// cached plan deployed there, and a janitor drops deployments idle
	// past DeploymentTTL. PlanCacheSize bounds the number
	// of simultaneously warm plans; zero (the paper configuration, whose
	// relations are strictly short-lived) disables the cache.
	PlanCacheSize int
	// DeploymentTTL is how long an idle cached deployment keeps its
	// deployed objects warm before the janitor drops them. Zero means
	// DefaultDeploymentTTL when the plan cache is enabled; ignored
	// otherwise.
	DeploymentTTL time.Duration
	// serial is a test seam: the control-plane fan-outs (metadata
	// fetches, sample probes, Rule-4 candidate pricing, a task's input
	// deployments) run inline in the paper's sequential order, the
	// reference the serial-vs-parallel identity tests compare against.
	serial bool

	// QueryTimeout bounds one query end to end — admission wait,
	// planning, delegation, and execution. Zero leaves the query bounded
	// only by the caller's context (the paper configuration). Cleanup of
	// short-lived relations runs on a detached context and is bounded
	// separately by CleanupTimeout.
	QueryTimeout time.Duration
	// MaxInFlight caps the queries executing concurrently; excess
	// queries wait in a bounded queue while their deadline allows and
	// are shed with OverloadError otherwise. Zero means unlimited (the
	// paper configuration).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue. Zero means MaxInFlight
	// (one waiting generation); negative disables queueing so the cap
	// sheds immediately.
	MaxQueue int
	// MaxPerNode caps the weighted control-plane work (cost probes,
	// deploy DDL) concurrently in flight against any single DBMS node,
	// and bounds each task's deploy fan-out. Zero means unlimited.
	MaxPerNode int

	// Trace records a span tree for every query — admission wait, each
	// optimizer phase, every consultation probe, every deployed DDL
	// statement, the execution stream, and the cleanup sweep — exposed
	// as Result.Trace. Off (the default), the instrumentation is a
	// nil-receiver no-op and the hot path allocates nothing for it.
	Trace bool
	// SlowQueryThreshold emits one structured (slog) record for every
	// query whose wall time meets the threshold, shed queries included:
	// its wall time and SQL, the non-zero fields of its record
	// (Breakdown), the delegation plan shape, and the error. It builds no
	// span tree; records go to slog.Default(). Zero disables the log.
	SlowQueryThreshold time.Duration
	// MetricsAddr, when non-empty, serves the process-wide metrics
	// registry in Prometheus text format on this listen address
	// (GET /metrics and /) for the System's lifetime. Use "127.0.0.1:0"
	// to pick a free port; System.MetricsAddr reports the bound one.
	MetricsAddr string
	// Wire tunes the middleware's wire transport: connection pool
	// bounds, the default per-request deadline, and the retry policy for
	// idempotent probe RPCs. The zero value uses the wire defaults
	// (pooling on).
	Wire wire.ClientConfig
}

// orderJoins builds the join tree over the scans: extract the join graph,
// ask the enumerator for an order, and build joins along that order only.
func orderJoins(b *builder, joinConjs []sqlparser.Expr, opts Options) (Op, error) {
	scans := b.scans()
	if len(scans) == 1 && len(joinConjs) > 0 {
		return nil, fmt.Errorf("core: join predicates with a single relation: %v", joinConjs[0])
	}
	g, err := newJoinGraph(scans, joinConjs)
	if err != nil {
		return nil, err
	}
	var steps []joinorder.Step
	switch {
	case opts.NoJoinReorder:
		steps = g.InOrder(g.estimate)
	case opts.BushyPlans:
		steps = g.Bushy(g.estimate)
	default:
		steps = g.LeftDeep(g.estimate)
	}
	rels := make([]Op, len(scans))
	for i, s := range scans {
		rels[i] = s
	}
	return joinorder.Fold(rels, steps, g.join)
}

// joinGraph is the join graph of one query — the scans' cardinalities and
// the multi-relation conjuncts, classified once — with what the middleware
// needs to price a join over it and to build the chosen ones.
type joinGraph struct {
	*joinorder.Graph
	conjs  []sqlparser.Expr // aligned with Graph.Conjs
	keys   []keyCols        // aligned too; set for equi conjuncts
	dl, dr []float64        // estimate's scratch
}

// keyCols is what pricing and orienting an equi conjunct takes: the
// relation (as a one-bit set) its first column belongs to, and the base
// distinct counts of the first and the second column.
type keyCols struct {
	rel    uint64
	da, db float64
}

func newJoinGraph(scans []*Scan, conjs []sqlparser.Expr) (*joinGraph, error) {
	card := make([]float64, len(scans))
	pos := make(map[string]int, len(scans))
	for i, s := range scans {
		card[i] = s.Est()
		pos[strings.ToLower(s.Alias)] = i
	}
	jg, err := joinorder.New(card)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	g := &joinGraph{Graph: jg, conjs: conjs, keys: make([]keyCols, len(conjs))}
	for ci, c := range conjs {
		cj := joinorder.Conjunct{Sel: engine.Selectivity(c)}
		for _, cr := range sqlparser.ColumnsIn(c) {
			// A bare reference names a projection alias, not a relation.
			if i, ok := pos[strings.ToLower(cr.Table)]; ok {
				cj.Rels |= 1 << i
			}
		}
		if lc, rc, ok := sqlparser.ColumnEquality(c); ok && bits.OnesCount64(cj.Rels) == 2 {
			a, b := pos[strings.ToLower(lc.Table)], pos[strings.ToLower(rc.Table)]
			cj.Equi = true
			g.keys[ci] = keyCols{1 << a, baseDistinct(scans[a], lc), baseDistinct(scans[b], rc)}
		}
		g.Conjs = append(g.Conjs, cj)
	}
	return g, nil
}

// estimate prices a join step exactly as join will estimate the operator
// it builds: estimateJoin's formula over the step's keys, scaled by the
// residuals' selectivities.
func (g *joinGraph) estimate(l, r joinorder.Input, keys, residuals []int) float64 {
	g.dl, g.dr = g.dl[:0], g.dr[:0]
	for _, k := range keys {
		da, db := g.keys[k].da, g.keys[k].db
		if l.Rels&g.keys[k].rel == 0 {
			da, db = db, da
		}
		g.dl, g.dr = append(g.dl, capDistinct(da, l.Rows)), append(g.dr, capDistinct(db, r.Rows))
	}
	rows := joinRows(l.Rows, r.Rows, g.dl, g.dr)
	for _, i := range residuals {
		rows *= g.Conjs[i].Sel
	}
	return math.Max(rows, 1)
}

// join builds one join of the chosen order from the conjuncts the step
// consumes, each key turned so that its L column resolves in the left
// input.
func (g *joinGraph) join(l, r Op, s joinorder.Step) (Op, error) {
	j := &Join{L: l, R: r}
	for _, k := range s.Keys {
		lc, rc, _ := sqlparser.ColumnEquality(g.conjs[k])
		if s.LRels&g.keys[k].rel == 0 {
			lc, rc = rc, lc
		}
		j.Keys = append(j.Keys, JoinKey{L: lc, R: rc})
	}
	for _, i := range s.Residuals {
		j.Residual = append(j.Residual, g.conjs[i])
	}
	j.est = j.estimate()
	return j, nil
}
