package core

import (
	"fmt"
	"log/slog"
	"strings"
	"time"

	"xdb/internal/sqlparser"
	"xdb/internal/wire"
)

// Logical optimization (Sec. IV-B1): selection and projection pushdown
// happen while building (build.go); this file orders the joins. The paper
// restricts plans to left-deep trees (footnote 5); we enumerate them with
// the classic greedy heuristic over the join graph — start from the
// smallest relation and repeatedly attach the connected relation whose
// join yields the smallest estimated intermediate result. This is the
// "overall reduces the intermediate data" objective of the paper, which
// matters doubly here because intermediate size is also inter-DBMS
// transfer volume.

// Options tunes the optimizer; zero value is the paper's configuration.
// The non-default settings exist for the ablation studies in DESIGN.md §5.
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
	// window (with jitter) up to BreakerBackoffMax. Zero means
	// DefaultBreakerBackoff.
	BreakerBackoff time.Duration
	// BreakerBackoffMax caps the exponential breaker backoff window. Zero
	// means DefaultBreakerBackoffMax; values below BreakerBackoff are
	// raised to it.
	BreakerBackoffMax time.Duration

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
	// MaxReopts is how many times one query may re-optimize its
	// unexecuted suffix after an observed cardinality contradicted the
	// estimate: each explicit-movement (materialized) stage is a
	// barrier where the actual row count is read back and compared
	// against the plan's annotation-time estimate; a divergence beyond
	// ReoptThreshold re-runs annotation for the rest of the plan with
	// the observed cardinalities substituted, reusing every already
	// deployed (and in particular every already materialized) fragment.
	// Zero (the paper configuration) disables the feedback loop
	// entirely — no barrier is probed and plans are never revised
	// mid-query. Re-optimizations do not consume the MaxReplans fault
	// budget.
	MaxReopts int
	// ReoptThreshold is the estimate-vs-actual cardinality ratio (in
	// either direction) a materialized edge must exceed — strictly — to
	// trigger a suffix re-optimization. Zero means
	// DefaultReoptThreshold.
	ReoptThreshold float64
	// SampleLimit enables proactive sampling-based estimate refinement:
	// before a cross-database query's joins are ordered and placed, each
	// low-confidence relation (no column statistics, a known-stale
	// statsOverride, an ambiguous movement decision, or a reported row
	// count the probe can verify outright — see sample.go) is probed with
	// a bounded sample of at most SampleLimit rows, and the observed
	// match count and statistics sketch replace the plain estimate before
	// anything ships. Zero (the paper configuration) disables sampling.
	SampleLimit int
	// SampleTrigger is the shipping-volume ratio under which the two
	// cheapest relations' movement decision counts as ambiguous and both
	// get sample-verified. Zero means DefaultSampleTrigger.
	SampleTrigger float64

	// ConsultCacheTTL enables the cross-query consult cache: successful
	// CostOperator probe results are memoized per (node, operator kind,
	// bucketed cardinalities) and served without a round trip until the
	// entry ages out, the node's breaker changes state, or a metadata
	// refresh changes one of the node's tables' statistics. Zero (the
	// paper configuration) disables the cache; the per-decision probe
	// dedupe inside one Rule-4 placement is always on.
	ConsultCacheTTL time.Duration
	// PlanCacheSize enables the delegation-plan cache: a completed query's
	// delegation plan AND its deployed short-lived relations (views,
	// SQL/MED servers, foreign tables) are retained under a refcounted
	// lease, so a repeated identical statement skips logical optimization,
	// annotation, and every deployment DDL — it becomes one SELECT on the
	// root DBMS with Breakdown.DDLCount == 0. Entries are keyed on the
	// normalized AST; the cache reuses the consult-cache invalidation
	// machinery (a breaker transition or a changed-statistics refresh on a
	// node drops every cached plan deployed there) and a janitor drops
	// deployments idle past DeploymentTTL. PlanCacheSize bounds the number
	// of simultaneously warm plans; zero (the paper configuration, whose
	// relations are strictly short-lived) disables the cache.
	PlanCacheSize int
	// DeploymentTTL is how long an idle cached deployment keeps its
	// deployed objects warm before the janitor drops them. Zero means
	// DefaultDeploymentTTL when the plan cache is enabled; ignored
	// otherwise.
	DeploymentTTL time.Duration
	// serial is a test seam: the control-plane fan-outs (metadata
	// fetches, sample probes, Rule-4 candidate pricing) run inline in the
	// paper's sequential order, the reference the serial-vs-parallel
	// identity tests compare against.
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
	// DrainGrace is how long Close waits for in-flight queries before
	// abandoning the graceful drain. Zero means DefaultDrainGrace;
	// negative skips the wait entirely.
	DrainGrace time.Duration

	// Trace records a span tree for every query — admission wait, each
	// optimizer phase, every consultation probe, every deployed DDL
	// statement, the execution stream, and the cleanup sweep — exposed
	// as Result.Trace. Off (the default), the instrumentation is a
	// nil-receiver no-op and the hot path allocates nothing for it.
	Trace bool
	// SlowQueryThreshold emits one structured (slog) record for every
	// query whose wall time meets the threshold, carrying the phase
	// breakdown, the delegation plan shape, and the span summary.
	// Setting it implies per-query tracing. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLogger receives slow-query records; nil means
	// slog.Default().
	SlowQueryLogger *slog.Logger
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

// orderJoins builds the left-deep join tree over the scans.
func orderJoins(b *builder, joinConjs []sqlparser.Expr, opts Options) (Op, error) {
	rels := make([]Op, 0, len(b.order))
	for _, a := range b.order {
		rels = append(rels, b.aliases[a])
	}
	if len(rels) == 1 {
		if len(joinConjs) > 0 {
			return nil, fmt.Errorf("core: join predicates with a single relation: %v", joinConjs[0])
		}
		return rels[0], nil
	}

	pending := append([]sqlparser.Expr(nil), joinConjs...)

	if opts.NoJoinReorder {
		cur := rels[0]
		for _, next := range rels[1:] {
			var err error
			cur, pending, err = attachJoin(cur, next, pending)
			if err != nil {
				return nil, err
			}
		}
		if len(pending) > 0 {
			return nil, fmt.Errorf("core: unresolved predicate %v", pending[0])
		}
		return cur, nil
	}

	if opts.BushyPlans {
		return orderJoinsBushy(rels, pending)
	}
	if len(rels) <= dpMaxRelations {
		return orderJoinsDP(rels, pending)
	}

	// Fallback for very wide queries — greedy: smallest relation first,
	// then cheapest connected join.
	remaining := map[Op]bool{}
	var cur Op
	for _, r := range rels {
		remaining[r] = true
		if cur == nil || r.Est() < cur.Est() {
			cur = r
		}
	}
	delete(remaining, cur)

	for len(remaining) > 0 {
		var (
			best    Op
			bestEst float64
		)
		for r := range remaining {
			// A relation is joinable when it shares an equi predicate
			// with the current set, or when attaching it makes a pending
			// residual predicate evaluable (Q7's FRANCE/GERMANY OR over
			// two nation aliases: the filtered cross product of two
			// 25-row relations beats dragging lineitem-sized
			// intermediates until the filter finally applies).
			keys := equiKeysBetween(cur, r, pending)
			var est float64
			switch {
			case len(keys) > 0:
				est = estimateJoin(cur, r, keys)
				for _, res := range newlyResolvable(cur, r, keys, pending) {
					est *= exprSelectivity(res)
				}
			default:
				resolvable := newlyResolvable(cur, r, nil, pending)
				if len(resolvable) == 0 {
					continue
				}
				// Filtered cross product.
				est = cur.Est() * r.Est()
				for _, res := range resolvable {
					est *= exprSelectivity(res)
				}
			}
			if est < 1 {
				est = 1
			}
			if best == nil || est < bestEst {
				best, bestEst = r, est
			}
		}
		if best == nil {
			// Disconnected: attach the smallest remaining (cross join).
			for r := range remaining {
				if best == nil || r.Est() < best.Est() {
					best = r
				}
			}
		}
		var err error
		cur, pending, err = attachJoin(cur, best, pending)
		if err != nil {
			return nil, err
		}
		delete(remaining, best)
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("core: unresolved predicate %v", pending[0])
	}
	return cur, nil
}

// attachJoin joins cur with next, consuming every pending conjunct that
// resolves against the combined columns.
func attachJoin(cur, next Op, pending []sqlparser.Expr) (Op, []sqlparser.Expr, error) {
	keys := equiKeysBetween(cur, next, pending)
	j := &Join{L: cur, R: next, Keys: keys}

	combined := colSet(j)
	var rest []sqlparser.Expr
	keyExprs := map[sqlparser.Expr]bool{}
	for _, c := range pending {
		if be, ok := c.(*sqlparser.BinaryExpr); ok && be.Op == sqlparser.OpEq {
			if isKeyOf(be, keys) {
				keyExprs[c] = true
				continue
			}
		}
		if resolvesInSet(c, combined) {
			j.Residual = append(j.Residual, c)
			continue
		}
		rest = append(rest, c)
	}
	j.est = estimateJoin(cur, next, keys)
	for _, res := range j.Residual {
		j.est *= exprSelectivity(res)
	}
	if j.est < 1 {
		j.est = 1
	}
	return j, rest, nil
}

// dpMaxRelations bounds the exact enumeration; wider FROM lists fall back
// to the greedy heuristic (n·2^n states — 12 relations is ~49k join
// constructions, still instant).
const dpMaxRelations = 12

// orderJoinsDP enumerates left-deep join orders exactly with the classic
// Selinger-style dynamic program over relation subsets ([42]), minimizing
// the sum of intermediate cardinalities. The sum objective is the right
// one for cross-database execution, where every intermediate is a
// candidate for inter-DBMS shipping. Greedy one-step lookahead fails on
// Q7-shaped graphs: it joins customers before lineitem and materializes
// supplier x customer pairs that only lineitem can link.
func orderJoinsDP(rels []Op, pending []sqlparser.Expr) (Op, error) {
	n := len(rels)
	type state struct {
		op      Op
		pending []sqlparser.Expr
		cost    float64
	}
	dp := make(map[uint32]*state, 1<<n)
	for i, r := range rels {
		dp[1<<uint(i)] = &state{op: r, pending: pending, cost: 0}
	}
	full := uint32(1<<uint(n)) - 1
	for mask := uint32(1); mask <= full; mask++ {
		if dp[mask] != nil || bitsSet(mask) < 2 {
			continue
		}
		var best *state
		// Extend some (mask without i) by relation i — left-deep only.
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if mask&bit == 0 {
				continue
			}
			prev := dp[mask^bit]
			if prev == nil {
				continue
			}
			// Prefer connected extensions: skip cross products unless the
			// subset has no connected build-up at all (checked by the
			// final fallback below).
			keys := equiKeysBetween(prev.op, rels[i], prev.pending)
			if len(keys) == 0 && len(newlyResolvable(prev.op, rels[i], nil, prev.pending)) == 0 && best != nil {
				continue
			}
			joined, rest, err := attachJoin(prev.op, rels[i], prev.pending)
			if err != nil {
				return nil, err
			}
			cost := prev.cost + joined.Est()
			if best == nil || cost < best.cost {
				best = &state{op: joined, pending: rest, cost: cost}
			}
		}
		dp[mask] = best
	}
	final := dp[full]
	if final == nil {
		return nil, fmt.Errorf("core: join ordering found no plan for %d relations", n)
	}
	if len(final.pending) > 0 {
		return nil, fmt.Errorf("core: unresolved predicate %v", final.pending[0])
	}
	return final.op, nil
}

func bitsSet(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// orderJoinsBushy greedily merges the component pair with the smallest
// estimated join until one tree remains — the classic GOO (greedy operator
// ordering) heuristic, which naturally produces bushy shapes.
func orderJoinsBushy(rels []Op, pending []sqlparser.Expr) (Op, error) {
	components := append([]Op(nil), rels...)
	for len(components) > 1 {
		type pick struct {
			i, j int
			est  float64
		}
		var best *pick
		for i := 0; i < len(components); i++ {
			for j := i + 1; j < len(components); j++ {
				keys := equiKeysBetween(components[i], components[j], pending)
				var est float64
				switch {
				case len(keys) > 0:
					est = estimateJoin(components[i], components[j], keys)
					for _, res := range newlyResolvable(components[i], components[j], keys, pending) {
						est *= exprSelectivity(res)
					}
				case len(newlyResolvable(components[i], components[j], nil, pending)) > 0:
					est = components[i].Est() * components[j].Est()
					for _, res := range newlyResolvable(components[i], components[j], nil, pending) {
						est *= exprSelectivity(res)
					}
				default:
					continue
				}
				if est < 1 {
					est = 1
				}
				if best == nil || est < best.est {
					best = &pick{i: i, j: j, est: est}
				}
			}
		}
		if best == nil {
			// Disconnected query graph: cross-join the two smallest.
			a, b := 0, 1
			for k := range components {
				if components[k].Est() < components[a].Est() {
					b, a = a, k
				} else if k != a && components[k].Est() < components[b].Est() {
					b = k
				}
			}
			best = &pick{i: min(a, b), j: max(a, b), est: components[a].Est() * components[b].Est()}
		}
		joined, rest, err := attachJoin(components[best.i], components[best.j], pending)
		if err != nil {
			return nil, err
		}
		pending = rest
		// Replace i with the join, remove j.
		components[best.i] = joined
		components = append(components[:best.j], components[best.j+1:]...)
	}
	if len(pending) > 0 {
		return nil, fmt.Errorf("core: unresolved predicate %v", pending[0])
	}
	return components[0], nil
}

// newlyResolvable returns the pending non-key conjuncts that reference
// both sides and become evaluable once l and r are joined.
func newlyResolvable(l, r Op, keys []JoinKey, pending []sqlparser.Expr) []sqlparser.Expr {
	lcols, rcols := colSet(l), colSet(r)
	combined := map[string]bool{}
	for c := range lcols {
		combined[c] = true
	}
	for c := range rcols {
		combined[c] = true
	}
	var out []sqlparser.Expr
	for _, c := range pending {
		if be, ok := c.(*sqlparser.BinaryExpr); ok && be.Op == sqlparser.OpEq && isKeyOf(be, keys) {
			continue
		}
		touchesL, touchesR := false, false
		all := true
		for _, cr := range sqlparser.ColumnsIn(c) {
			if cr.Table == "" {
				continue
			}
			id := colID(cr)
			switch {
			case lcols[id]:
				touchesL = true
			case rcols[id]:
				touchesR = true
			}
			if !combined[id] {
				all = false
			}
		}
		if all && touchesL && touchesR {
			out = append(out, c)
		}
	}
	return out
}

// equiKeysBetween finds the ColumnRef = ColumnRef conjuncts joining the
// two operators' column sets.
func equiKeysBetween(l, r Op, pending []sqlparser.Expr) []JoinKey {
	lcols, rcols := colSet(l), colSet(r)
	var keys []JoinKey
	for _, c := range pending {
		be, ok := c.(*sqlparser.BinaryExpr)
		if !ok || be.Op != sqlparser.OpEq {
			continue
		}
		lc, lok := be.L.(*sqlparser.ColumnRef)
		rc, rok := be.R.(*sqlparser.ColumnRef)
		if !lok || !rok {
			continue
		}
		switch {
		case lcols[colID(lc)] && rcols[colID(rc)]:
			keys = append(keys, JoinKey{L: lc, R: rc})
		case lcols[colID(rc)] && rcols[colID(lc)]:
			keys = append(keys, JoinKey{L: rc, R: lc})
		}
	}
	return keys
}

func isKeyOf(be *sqlparser.BinaryExpr, keys []JoinKey) bool {
	lc, lok := be.L.(*sqlparser.ColumnRef)
	rc, rok := be.R.(*sqlparser.ColumnRef)
	if !lok || !rok {
		return false
	}
	for _, k := range keys {
		if (sameRef(k.L, lc) && sameRef(k.R, rc)) || (sameRef(k.L, rc) && sameRef(k.R, lc)) {
			return true
		}
	}
	return false
}

func sameRef(a, b *sqlparser.ColumnRef) bool {
	return strings.EqualFold(a.Table, b.Table) && strings.EqualFold(a.Name, b.Name)
}

// colID is the canonical lower-cased "alias.col" identity.
func colID(cr *sqlparser.ColumnRef) string {
	return strings.ToLower(cr.Table + "." + cr.Name)
}

// colSet returns the lower-cased output column identities of an operator.
func colSet(op Op) map[string]bool {
	out := map[string]bool{}
	for _, c := range op.OutCols() {
		out[strings.ToLower(c)] = true
	}
	return out
}

// resolvesInSet reports whether every column reference of e is in cols.
func resolvesInSet(e sqlparser.Expr, cols map[string]bool) bool {
	ok := true
	for _, cr := range sqlparser.ColumnsIn(e) {
		if cr.Table == "" {
			continue
		}
		if !cols[colID(cr)] {
			ok = false
		}
	}
	return ok
}
