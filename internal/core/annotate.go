package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"xdb/internal/engine"
	"xdb/internal/obs"
)

// Plan annotation (Sec. IV-B2): a depth-first post-order traversal that
// assigns every operator a DBMS (its annotation) and every edge a dataflow
// operation, applying:
//
//	Rule 1 — table scans get their home DBMS;
//	Rule 2 — unary operators inherit their input's annotation (edge i);
//	Rule 3 — binary operators with equal input annotations inherit it;
//	Rule 4 — cross-database binary operators solve Equation 1 by
//	         consulting the candidate DBMSes for operator costs and
//	         pricing the data movements, with the paper's pruning: only
//	         the two inputs' DBMSes are candidate placements, which also
//	         rules out plans like Fig. 5c.
//
// The movement decision encodes the trade-off of Sec. IV-A: an implicit
// (pipelined) input cannot be the hash build side of the consuming join —
// the stream must probe — while an explicit (materialized) input costs an
// extra scan but lets the local optimizer arrange the join freely.

// Coster abstracts the consulting interface the annotator uses — the
// System implements it over the wire connectors; tests may fake it.
type Coster interface {
	// CostOperator prices an operator at a DBMS in calibrated common
	// units (one consultation round trip). The context bounds the probe;
	// cancelling it degrades the estimate to the local cost model.
	CostOperator(ctx context.Context, node string, kind engine.CostKind, left, right, out float64) (float64, error)
	// AllNodes lists every registered DBMS (for the FullCandidateSet
	// ablation).
	AllNodes() []string
	// LinkFactor scales movement cost between two nodes relative to the
	// baseline LAN link (>= 1 for slower links).
	LinkFactor(from, to string) float64
	// Healthy reports whether the node can currently be consulted and
	// considered as a placement candidate (false while its circuit
	// breaker is open). The annotator never probes an unhealthy node;
	// it prices it with the local cost model or excludes it outright.
	Healthy(node string) bool
}

// Movement cost constants (calibrated common units per row/byte on the
// baseline link).
const (
	cMovePerRow  = 2.0
	cMovePerByte = 0.05
)

// Annotation is the annotator's output: operator placements and edge
// movements (only cross-DBMS edges carry a movement).
type Annotation struct {
	Node map[Op]string
	// Move labels the edge from an operator to its parent when the two
	// sides differ in annotation.
	Move map[Op]Movement
	// ConsultRounds counts the cost probes issued (Fig. 15's
	// "consultation roundtrips").
	ConsultRounds int
	// DegradedProbes counts the decisions made without consulting a
	// DBMS: placement candidates excluded because their breaker is open,
	// and cost probes that failed and fell back to the local model.
	DegradedProbes int
	// CachedProbes counts the probes answered without a round trip: by
	// the per-decision memo (one Rule-4 decision never issues the same
	// probe twice) or by the cross-query consult cache
	// (Options.ConsultCacheTTL).
	CachedProbes int

	// mu guards the counters above during the parallel Rule-4 candidate
	// fan-out; reads after annotate returns need no lock.
	mu sync.Mutex
	// cache is the Coster's cross-query consult cache, when it maintains
	// one (nil for test fakes and when ConsultCacheTTL is 0).
	cache consultCacher
}

func (a *Annotation) addConsult() {
	a.mu.Lock()
	a.ConsultRounds++
	a.mu.Unlock()
}

func (a *Annotation) addDegraded(n int) {
	a.mu.Lock()
	a.DegradedProbes += n
	a.mu.Unlock()
}

func (a *Annotation) addCached() {
	a.mu.Lock()
	a.CachedProbes++
	a.mu.Unlock()
}

// annotate runs the annotation pass over the logical plan. The context
// bounds the consultation probes; cancellation aborts the pass.
func annotate(ctx context.Context, root Op, coster Coster, opts Options) (*Annotation, error) {
	a := &Annotation{Node: map[Op]string{}, Move: map[Op]Movement{}}
	if cc, ok := coster.(consultCacher); ok {
		a.cache = cc
	}
	if err := a.visit(ctx, root, coster, opts); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *Annotation) visit(ctx context.Context, op Op, coster Coster, opts Options) error {
	// A cancelled query must stop consulting, not degrade every remaining
	// decision to the local model and then fail at delegation.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: annotate: %w", err)
	}
	switch o := op.(type) {
	case *Scan:
		// Rule 1.
		a.Node[op] = o.Node
		return nil

	case *Final:
		// Rule 2.
		if err := a.visit(ctx, o.In, coster, opts); err != nil {
			return err
		}
		a.Node[op] = a.Node[o.In]
		return nil

	case *Join:
		if err := a.visit(ctx, o.L, coster, opts); err != nil {
			return err
		}
		if err := a.visit(ctx, o.R, coster, opts); err != nil {
			return err
		}
		ln, rn := a.Node[o.L], a.Node[o.R]
		if ln == rn {
			// Rule 3.
			a.Node[op] = ln
			return nil
		}
		// Rule 4.
		a.placeCrossJoin(ctx, o, coster, opts)
		return nil

	default:
		return fmt.Errorf("core: annotate: unexpected operator %T", op)
	}
}

// placeCrossJoin solves Equation 1 for a cross-database join. Probe
// failures never abort it: an unreachable candidate is priced by the local
// cost model or — when its breaker is open — excluded from placement
// entirely (degraded planning).
func (a *Annotation) placeCrossJoin(ctx context.Context, j *Join, coster Coster, opts Options) {
	ln, rn := a.Node[j.L], a.Node[j.R]
	candidates := []string{ln, rn}
	if opts.FullCandidateSet {
		candidates = coster.AllNodes()
	}

	// Degraded planning: a candidate whose breaker is open is excluded —
	// placing an operator there would only deploy DDL onto a dead node.
	// With the paper's two-candidate pruning this falls back to the
	// healthy input's site. If every candidate is unhealthy there is no
	// better choice; keep them all and let delegation surface the outage.
	healthy := make([]string, 0, len(candidates))
	for _, cand := range candidates {
		if coster.Healthy(cand) {
			healthy = append(healthy, cand)
		}
	}
	if n := len(candidates) - len(healthy); n > 0 && len(healthy) > 0 {
		a.addDegraded(n)
		candidates = healthy
	}

	// Price every candidate site. The evaluations are independent (each
	// consults its own node), so they fan out concurrently — the
	// consultation round trips overlap instead of queueing behind one
	// another. Decisions land in candidate order and the reduction below
	// keeps the paper's sequential tie-break (first strictly cheaper wins),
	// so the chosen plan is identical to pricing them one by one.
	decisions := make([]placeDecision, len(candidates))
	fanOutFirstErr(ctx, len(candidates), 0, opts.serial, func(fctx context.Context, i int) error {
		decisions[i] = a.evalCandidate(fctx, j, coster, opts, candidates[i], ln, rn)
		return nil
	})
	best := &decisions[0]
	for i := 1; i < len(decisions); i++ {
		if decisions[i].cost < best.cost {
			best = &decisions[i]
		}
	}

	a.Node[j] = best.node
	if ln != best.node {
		a.Move[j.L] = best.moveL
	}
	if rn != best.node {
		a.Move[j.R] = best.moveR
	}

	// One "place" span per Rule-4 decision: the chosen site and the
	// movement verdict for each input edge.
	if sp := obs.SpanFrom(ctx); sp != nil {
		psp := sp.Child("place")
		psp.Set("node", best.node)
		if ln != best.node {
			psp.Set("move_left", moveVerdict(best.moveL))
		}
		if rn != best.node {
			psp.Set("move_right", moveVerdict(best.moveR))
		}
		psp.Finish()
	}
}

// placeDecision is one candidate site's priced outcome of a Rule-4
// decision.
type placeDecision struct {
	node  string
	moveL Movement
	moveR Movement
	cost  float64
}

// evalCandidate prices one candidate site of a Rule-4 decision: movement
// costs for the remote inputs plus the cheapest movement combination's
// join cost at the candidate. The memo dedupes probes within the decision
// — movement combinations share scan and stream-join consultations, and
// issuing each once is both correct and one fewer round trip.
func (a *Annotation) evalCandidate(ctx context.Context, j *Join, coster Coster, opts Options, cand, ln, rn string) placeDecision {
	memo := map[consultKey]float64{}
	d := placeDecision{node: cand, moveL: MoveImplicit, moveR: MoveImplicit}
	var total float64

	// Determine which inputs arrive from a remote DBMS; both movements
	// pay the move itself (Eqs. 2 and 3), while the movement-combination
	// comparison below adds the explicit variant's materialization costs
	// and settles the choice (or applies ForceMovement).
	type side struct {
		op    Op
		from  string
		local bool
	}
	sides := [2]side{
		{op: j.L, from: ln},
		{op: j.R, from: rn},
	}
	for i := range sides {
		s := &sides[i]
		s.local = s.from == cand
		if !s.local {
			total += moveCost(s.op, coster.LinkFactor(s.from, cand))
		}
	}

	// Join cost at the candidate under each movement combination of the
	// remote sides; pick the cheapest combination.
	bestJoin := math.Inf(1)
	var bestMoves [2]Movement
	for _, combo := range movementCombos(sides[0].local, sides[1].local, opts.ForceMovement) {
		jc := a.joinCostAt(ctx, coster, memo, cand, j, sides[0].op, sides[1].op, combo[0] == MoveImplicit && !sides[0].local, combo[1] == MoveImplicit && !sides[1].local)
		// Explicit sides pay the materialization write plus the scan of
		// the stored copy (Eq. 3's scanCost term; the write is the same
		// volume).
		for i, mv := range combo {
			if !sides[i].local && mv == MoveExplicit {
				jc += 2 * a.probe(ctx, coster, memo, cand, engine.CostScan, sides[i].op.Est(), 0, 0)
			}
		}
		if jc < bestJoin {
			bestJoin = jc
			bestMoves = combo
		}
	}
	total += bestJoin
	d.moveL, d.moveR = bestMoves[0], bestMoves[1]
	d.cost = total
	return d
}

// moveVerdict spells a movement out for trace attributes.
func moveVerdict(m Movement) string {
	if m == MoveExplicit {
		return "explicit"
	}
	return "implicit"
}

// movementCombos enumerates the movement choices for the two sides (local
// sides are pinned to implicit).
func movementCombos(lLocal, rLocal bool, force Movement) [][2]Movement {
	options := func(local bool) []Movement {
		if local {
			return []Movement{MoveImplicit}
		}
		if force != 0 {
			return []Movement{force}
		}
		return []Movement{MoveImplicit, MoveExplicit}
	}
	var out [][2]Movement
	for _, l := range options(lLocal) {
		for _, r := range options(rLocal) {
			out = append(out, [2]Movement{l, r})
		}
	}
	return out
}

// joinCostAt consults the candidate DBMS for the join cost given which
// inputs arrive as streams.
func (a *Annotation) joinCostAt(ctx context.Context, coster Coster, memo map[consultKey]float64, cand string, j *Join, l, r Op, lStream, rStream bool) float64 {
	out := j.Est()
	var kind engine.CostKind
	var left, right float64
	switch {
	case lStream && rStream:
		// Both inputs stream (only possible with the full candidate set):
		// the larger stream probes a build over the smaller, which must
		// first be buffered — price as a stream join plus a scan of the
		// buffered side.
		big, small := l.Est(), r.Est()
		if big < small {
			big, small = small, big
		}
		kind, left, right = engine.CostJoinStream, big, small
	case lStream:
		kind, left, right = engine.CostJoinStream, l.Est(), r.Est()
	case rStream:
		kind, left, right = engine.CostJoinStream, r.Est(), l.Est()
	default:
		kind, left, right = engine.CostJoin, l.Est(), r.Est()
	}
	return a.probe(ctx, coster, memo, cand, kind, left, right, out)
}

// probe consults one DBMS for an operator cost, falling back to the local
// cost model when the node cannot answer — an erroring probe or an open
// breaker must degrade the estimate, not abort the plan (the middleware
// owns failure handling for the engines it coordinates). Fallbacks are
// counted in DegradedProbes; only real round trips count as consult
// rounds. Before spending a round trip, the probe is served from the
// per-decision memo (exact-argument dedupe, always on) and then from the
// cross-query consult cache (Options.ConsultCacheTTL); both count in
// CachedProbes with span outcome=cached. Failed probes memoize their
// local fallback within the decision — re-asking a node that just failed
// would only burn another round trip — but never reach the shared cache.
func (a *Annotation) probe(ctx context.Context, coster Coster, memo map[consultKey]float64, node string, kind engine.CostKind, left, right, out float64) float64 {
	sp := obs.SpanFrom(ctx).Child("probe")
	sp.Set("node", node)
	sp.Set("kind", string(kind))
	if !coster.Healthy(node) {
		a.addDegraded(1)
		sp.Set("outcome", "degraded_breaker")
		sp.Finish()
		return localCost(kind, left, right, out)
	}
	key := consultKey{node: node, kind: kind, left: left, right: right, out: out}
	if memo != nil {
		if v, ok := memo[key]; ok {
			a.addCached()
			sp.Set("outcome", "cached")
			sp.Finish()
			return v
		}
	}
	if a.cache != nil {
		if v, ok := a.cache.LookupCost(node, kind, left, right, out); ok {
			if memo != nil {
				memo[key] = v
			}
			a.addCached()
			sp.Set("outcome", "cached")
			sp.Finish()
			return v
		}
	}
	a.addConsult()
	start := time.Now()
	c, err := coster.CostOperator(ctx, node, kind, left, right, out)
	observeSeconds(met.probeDur, time.Since(start))
	if err != nil {
		a.addDegraded(1)
		c = localCost(kind, left, right, out)
		if memo != nil {
			memo[key] = c
		}
		sp.Set("outcome", "degraded_error")
		sp.SetErr(err)
		sp.Finish()
		return c
	}
	if memo != nil {
		memo[key] = c
	}
	if a.cache != nil {
		a.cache.StoreCost(node, kind, left, right, out, c)
	}
	sp.Set("outcome", "consulted")
	sp.Finish()
	return c
}

// localCost is the middleware's own calibrated cost model: the same
// textbook shapes the emulated engines price, in the common currency the
// calibration normalizes to (a scan of N rows costs N units). It is the
// degraded-mode stand-in when a DBMS cannot be consulted, and is vendor-
// blind — exactly the information loss that makes consulting worth its
// round trips when the engines are reachable.
func localCost(kind engine.CostKind, left, right, out float64) float64 {
	switch kind {
	case engine.CostJoin:
		small, big := left, right
		if small > big {
			small, big = big, small
		}
		return small*1.5 + big*1.0 + out*0.5
	case engine.CostJoinStream:
		// The streamed (left) side probes a build over the local right.
		return right*1.5 + left*1.0 + out*0.5
	case engine.CostAgg:
		return left * 1.2
	default: // CostScan and anything unknown: linear in input.
		return left
	}
}

// moveCost prices shipping an operator's output across a link (Eq. 2's
// moveCost term).
func moveCost(op Op, linkFactor float64) float64 {
	if linkFactor < 1 {
		linkFactor = 1
	}
	return op.Est() * (cMovePerRow + op.Width()*cMovePerByte) * linkFactor
}
