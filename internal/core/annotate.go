package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"xdb/internal/connector"
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
	// CostOperators prices operators at a DBMS in calibrated common units:
	// one consultation round trip for all of them. costs[i] and errs[i]
	// answer probes[i]; a round trip that fails fails every probe. The
	// context bounds the round trip; cancelling it degrades the estimates
	// to the local cost model.
	CostOperators(ctx context.Context, node string, probes []connector.CostProbe) (costs []float64, errs []error)
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
	// "consultation roundtrips"). It counts probes, not round trips: the
	// probes of one candidate of one Rule-4 decision travel together.
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
	// cache is the cross-query consult cache (nil when ConsultCacheTTL is
	// 0, and for test fakes; a nil cache misses and stores nothing).
	cache *consultCache
}

func (a *Annotation) addDegraded(n int) {
	a.mu.Lock()
	a.DegradedProbes += n
	a.mu.Unlock()
}

// annotate runs the annotation pass over the logical plan, serving probes
// from cache before spending a round trip. The context bounds the
// consultation probes; cancellation aborts the pass.
func annotate(ctx context.Context, root Op, coster Coster, cache *consultCache, opts Options) (*Annotation, error) {
	a := &Annotation{Node: map[Op]string{}, Move: map[Op]Movement{}, cache: cache}
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
	fanOutFirstErr(ctx, len(candidates), opts.serial, func(fctx context.Context, i int) error {
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
// join cost at the candidate. It is one consultation round: the probes
// every movement combination needs are collected first, consult answers
// them together, and the combinations are reduced over the answers.
func (a *Annotation) evalCandidate(ctx context.Context, j *Join, coster Coster, opts Options, cand, ln, rn string) placeDecision {
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

	// Collect: per movement combination of the remote sides, the join at
	// the candidate, then a scan of each explicit side's stored copy.
	combos := movementCombos(sides[0].local, sides[1].local, opts.ForceMovement)
	var asks []connector.CostProbe
	for _, combo := range combos {
		asks = append(asks, joinProbe(j, combo[0] == MoveImplicit && !sides[0].local, combo[1] == MoveImplicit && !sides[1].local))
		for i, mv := range combo {
			if !sides[i].local && mv == MoveExplicit {
				asks = append(asks, connector.CostProbe{Kind: engine.CostScan, Left: sides[i].op.Est()})
			}
		}
	}
	costs := a.consult(ctx, coster, cand, asks)

	// Reduce, in the order asked: pick the cheapest combination.
	bestJoin := math.Inf(1)
	var bestMoves [2]Movement
	next := 0
	for _, combo := range combos {
		jc := costs[next]
		next++
		// Explicit sides pay the materialization write plus the scan of
		// the stored copy (Eq. 3's scanCost term; the write is the same
		// volume).
		for i, mv := range combo {
			if !sides[i].local && mv == MoveExplicit {
				jc += 2 * costs[next]
				next++
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

// joinProbe is the consultation for the join's cost at a candidate, given
// which inputs arrive as streams.
func joinProbe(j *Join, lStream, rStream bool) connector.CostProbe {
	l, r := j.L.Est(), j.R.Est()
	p := connector.CostProbe{Kind: engine.CostJoin, Left: l, Right: r, Out: j.Est()}
	switch {
	case lStream && rStream:
		// Both inputs stream (only possible with the full candidate set):
		// the larger stream probes a build over the smaller, which must
		// first be buffered — price as a stream join plus a scan of the
		// buffered side.
		if l < r {
			l, r = r, l
		}
		p.Kind, p.Left, p.Right = engine.CostJoinStream, l, r
	case lStream:
		p.Kind = engine.CostJoinStream
	case rStream:
		p.Kind, p.Left, p.Right = engine.CostJoinStream, r, l
	}
	return p
}

// consult answers the probes one candidate site of one Rule-4 decision
// asks of its DBMS — asks, in the order asked, duplicates included — in at
// most one round trip. A probe never aborts the plan: when the node cannot
// answer — an open breaker, a failed round trip, an erroring probe — it
// falls back to the local cost model (the middleware owns failure handling
// for the engines it coordinates), counted in DegradedProbes. Before a
// round trip is spent, a probe is served from the decision's memo (movement
// combinations share scan and stream-join consultations; exact-argument
// dedupe, always on) and then from the cross-query consult cache
// (Options.ConsultCacheTTL); both count in CachedProbes with span
// outcome=cached. The misses travel together and count one each in
// ConsultRounds. A failed probe's local fallback is memoized within the
// decision but never reaches the shared cache. Every ask leaves one "probe"
// span.
func (a *Annotation) consult(ctx context.Context, coster Coster, node string, asks []connector.CostProbe) []float64 {
	costs := make([]float64, len(asks))
	spans := make([]*obs.Span, len(asks))
	for i, p := range asks {
		spans[i] = obs.SpanFrom(ctx).Child("probe")
		spans[i].Set("node", node)
		spans[i].Set("kind", string(p.Kind))
	}
	settle := func(i int, outcome string, cost float64) {
		costs[i] = cost
		spans[i].Set("outcome", outcome)
		spans[i].Finish()
	}
	if !coster.Healthy(node) {
		a.addDegraded(len(asks))
		for i, p := range asks {
			settle(i, "degraded_breaker", localCost(p.Kind, p.Left, p.Right, p.Out))
		}
		return costs
	}

	// first[i] is the first ask of ask i's probe — i itself unless the
	// probe was asked before in this decision; sent lists the first asks
	// that need the round trip.
	memo := map[connector.CostProbe]int{}
	first := make([]int, len(asks))
	var sent []int
	cached, degraded := 0, 0
	for i, p := range asks {
		if f, repeat := memo[p]; repeat {
			first[i] = f
			cached++
			continue
		}
		memo[p], first[i] = i, i
		if v, ok := a.cache.lookup(node, p.Kind, p.Left, p.Right, p.Out); ok {
			cached++
			settle(i, "cached", v)
			continue
		}
		sent = append(sent, i)
	}
	if len(sent) > 0 {
		probes := make([]connector.CostProbe, len(sent))
		for k, i := range sent {
			probes[k] = asks[i]
		}
		start := time.Now()
		answers, errs := coster.CostOperators(ctx, node, probes)
		rtt := time.Since(start)
		for k, i := range sent {
			p := asks[i]
			observeSeconds(met.probeDur, rtt)
			if errs[k] != nil {
				degraded++
				spans[i].SetErr(errs[k])
				settle(i, "degraded_error", localCost(p.Kind, p.Left, p.Right, p.Out))
				continue
			}
			a.cache.store(node, p.Kind, p.Left, p.Right, p.Out, answers[k])
			settle(i, "consulted", answers[k])
		}
	}
	for i, f := range first {
		if f != i {
			settle(i, "cached", costs[f])
		}
	}
	a.mu.Lock()
	a.ConsultRounds += len(sent)
	a.CachedProbes += cached
	a.DegradedProbes += degraded
	a.mu.Unlock()
	return costs
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
