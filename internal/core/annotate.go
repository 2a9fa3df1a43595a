package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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
	// PriceJoins consults a DBMS for every price of the given joins in
	// calibrated common units (engine.JoinPrices): one consultation round
	// trip for all of them. prices[i] and errs[i] answer joins[i]; a round
	// trip that fails fails every join. The context bounds the round trip.
	PriceJoins(ctx context.Context, node string, joins []connector.JoinProbe) (prices []engine.JoinPrices, errs []error)
	// AllNodes lists every registered DBMS, in a stable order (the
	// FullCandidateSet ablation's candidates, tried in this order).
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
	// ConsultRounds counts the join probes sent (Fig. 15's "consultation
	// roundtrips"). It counts probes, not round trips: a probe is one
	// (join, node) pair, and all of a node's probes travel together.
	ConsultRounds int
	// DegradedProbes counts the prices settled without consulting a
	// DBMS: placement candidates excluded because their breaker is open,
	// and probes that could not be sent or failed and fell back to the
	// local model.
	DegradedProbes int
	// CachedProbes counts the probes answered without a round trip, by
	// the cross-query consult cache (Options.ConsultCacheTTL).
	CachedProbes int
}

// annotate runs the annotation pass over the logical plan in two steps.
// First it consults: it collects every (join, node) pair some Rule-4
// decision of the plan could price, serves what it can from the consult
// cache, and sends the rest as one batch per node, all nodes at once.
// Then it decides, bottom-up over the answers, with no I/O. The context
// bounds the consultation; cancellation fails the pass.
func annotate(ctx context.Context, root Op, coster Coster, cache *consultCache, opts Options) (*Annotation, error) {
	st := &sites{coster: coster, healthy: map[string]bool{}}
	if opts.FullCandidateSet {
		st.all = coster.AllNodes()
	}
	var asks []joinAt
	if st.reach(root, &asks); st.err != nil {
		return nil, st.err
	}
	a := &Annotation{Node: map[Op]string{}, Move: map[Op]Movement{}}
	prices := a.consult(ctx, coster, cache, st, asks, opts)
	// A query cancelled before or during the round must fail here, not
	// decide over the local model's stand-ins for the answers it abandoned
	// and then fail at delegation.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: annotate: %w", err)
	}
	a.decide(ctx, root, prices, st, coster, opts)
	return a, nil
}

// joinAt is one probe: a join priced at one node.
type joinAt struct {
	join *Join
	node string
}

// sites is what the annotator knows of the cluster before it decides
// anything: each node's health, read once per annotation, and the full
// candidate set (nil unless Options.FullCandidateSet). err is the first
// operator reach could not annotate.
type sites struct {
	coster  Coster
	healthy map[string]bool
	all     []string
	err     error
}

func (s *sites) isHealthy(node string) bool {
	if _, ok := s.healthy[node]; !ok {
		s.healthy[node] = s.coster.Healthy(node)
	}
	return s.healthy[node]
}

// candidates returns the placement candidates of a Rule-4 decision between
// inputs annotated ln and rn, in the order they are tried, and how many
// were excluded. The paper's pruning keeps the two inputs' DBMSes.
// Degraded planning excludes a candidate whose breaker is open — placing
// an operator there would only deploy DDL onto a dead node; with the
// pruning this falls back to the healthy input's site. If every candidate
// is unhealthy there is no better choice: all are kept, and delegation
// surfaces the outage.
func (s *sites) candidates(ln, rn string) (cands []string, excluded int) {
	cands = []string{ln, rn}
	if s.all != nil {
		cands = s.all
	}
	healthy := make([]string, 0, len(cands))
	for _, c := range cands {
		if s.isHealthy(c) {
			healthy = append(healthy, c)
		}
	}
	if len(healthy) == 0 {
		return cands, 0
	}
	return healthy, len(cands) - len(healthy)
}

// reach returns the nodes op's annotation can end up on, whatever the
// answers, and appends to asks every (join, node) pair a Rule-4 decision
// at or below op can price: a join's candidates for every pair of its
// inputs' reachable nodes that differ.
func (s *sites) reach(op Op, asks *[]joinAt) []string {
	switch o := op.(type) {
	case *Scan:
		return []string{o.Node}
	case *Final:
		return s.reach(o.In, asks)
	case *Join:
		var out, asked []string
		ls, rs := s.reach(o.L, asks), s.reach(o.R, asks)
		for _, ln := range ls {
			for _, rn := range rs {
				if ln == rn {
					out = addNode(out, ln)
					continue
				}
				cands, _ := s.candidates(ln, rn)
				for _, c := range cands {
					out, asked = addNode(out, c), addNode(asked, c)
				}
			}
		}
		for _, n := range asked {
			*asks = append(*asks, joinAt{o, n})
		}
		return out
	}
	if s.err == nil {
		s.err = fmt.Errorf("core: annotate: unexpected operator %T", op)
	}
	return nil
}

// addNode appends node to set unless it is there already.
func addNode(set []string, node string) []string {
	if slices.Contains(set, node) {
		return set
	}
	return append(set, node)
}

// consult prices every ask and returns the answer table. It never fails:
// an unhealthy node's probes, and the probes of a round trip or item that
// fails, are priced by the local cost model (the middleware owns failure
// handling for the engines it coordinates) and count in DegradedProbes,
// and the breaker hears of one failure per failed round trip. A probe the
// consult cache answers counts in CachedProbes. The rest go out as one
// batch per node, the nodes at once, and count one each in ConsultRounds;
// a failed probe's local stand-in never reaches the cache. Every ask
// leaves one "probe" span, and every round trip one observation of
// xdb_probe_duration_seconds.
func (a *Annotation) consult(ctx context.Context, coster Coster, cache *consultCache, st *sites, asks []joinAt, opts Options) map[joinAt]engine.JoinPrices {
	prices := make(map[joinAt]engine.JoinPrices, len(asks))
	spans := make([]*obs.Span, len(asks))
	settle := func(i int, outcome string, p engine.JoinPrices) {
		prices[asks[i]] = p
		spans[i].Set("outcome", outcome)
		spans[i].Finish()
	}
	var sent []int
	for i, ask := range asks {
		spans[i] = obs.SpanFrom(ctx).Child("probe")
		spans[i].Set("node", ask.node)
		l, r, out := joinEst(ask.join)
		if !st.isHealthy(ask.node) {
			a.DegradedProbes++
			settle(i, "degraded_breaker", engine.JoinPricesOf(localCost, l, r, out))
			continue
		}
		if p, ok := cache.lookup(ask.node, l, r, out); ok {
			a.CachedProbes++
			settle(i, "cached", p)
			continue
		}
		sent = append(sent, i)
	}

	answers := make([]engine.JoinPrices, len(asks))
	errs := make([]error, len(asks))
	groups := groupByNode(sent, func(i int) string { return asks[i].node })
	fanOutFirstErr(ctx, len(groups), opts.serial, func(fctx context.Context, n int) error {
		idx := groups[n]
		joins := make([]connector.JoinProbe, len(idx))
		for k, i := range idx {
			joins[k].Left, joins[k].Right, joins[k].Out = joinEst(asks[i].join)
		}
		start := time.Now()
		ps, es := coster.PriceJoins(fctx, asks[idx[0]].node, joins)
		observeSeconds(met.probeDur, time.Since(start))
		for k, i := range idx {
			answers[i], errs[i] = ps[k], es[k]
		}
		return nil // a node's failure degrades its probes, never its siblings'
	})
	a.ConsultRounds += len(sent)
	for _, i := range sent {
		l, r, out := joinEst(asks[i].join)
		if errs[i] != nil {
			a.DegradedProbes++
			spans[i].SetErr(errs[i])
			settle(i, "degraded_error", engine.JoinPricesOf(localCost, l, r, out))
			continue
		}
		cache.store(asks[i].node, l, r, out, answers[i])
		settle(i, "consulted", answers[i])
	}
	return prices
}

// joinEst is what a probe tells the DBMS about a join: its inputs' and its
// own estimated cardinalities.
func joinEst(j *Join) (left, right, out float64) {
	return j.L.Est(), j.R.Est(), j.Est()
}

// decide annotates op and everything below it, bottom-up, from the answer
// table:
//
//	Rule 1 — a scan gets its home DBMS;
//	Rule 2 — the final block inherits its input's annotation;
//	Rule 3 — a join whose inputs agree inherits their annotation;
//	Rule 4 — a cross-database join is placed by Equation 1.
func (a *Annotation) decide(ctx context.Context, op Op, prices map[joinAt]engine.JoinPrices, st *sites, coster Coster, opts Options) {
	switch o := op.(type) {
	case *Scan:
		a.Node[op] = o.Node
	case *Final:
		a.decide(ctx, o.In, prices, st, coster, opts)
		a.Node[op] = a.Node[o.In]
	case *Join:
		a.decide(ctx, o.L, prices, st, coster, opts)
		a.decide(ctx, o.R, prices, st, coster, opts)
		if ln, rn := a.Node[o.L], a.Node[o.R]; ln == rn {
			a.Node[op] = ln
		} else {
			a.placeCrossJoin(ctx, o, prices, st, coster, opts)
		}
	}
}

// placeCrossJoin solves Equation 1 for a cross-database join over the
// answer table: every candidate site is priced, and the first strictly
// cheaper one wins.
func (a *Annotation) placeCrossJoin(ctx context.Context, j *Join, prices map[joinAt]engine.JoinPrices, st *sites, coster Coster, opts Options) {
	ln, rn := a.Node[j.L], a.Node[j.R]
	candidates, excluded := st.candidates(ln, rn)
	a.DegradedProbes += excluded
	var best placeDecision
	for i, cand := range candidates {
		d := evalCandidate(j, prices[joinAt{j, cand}], coster, opts, cand, ln, rn)
		if i == 0 || d.cost < best.cost {
			best = d
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
	sp := obs.SpanFrom(ctx).Child("place")
	sp.Set("node", best.node)
	if ln != best.node {
		sp.Set("move_left", moveVerdict(best.moveL))
	}
	if rn != best.node {
		sp.Set("move_right", moveVerdict(best.moveR))
	}
	sp.Finish()
}

// placeDecision is one candidate site's priced outcome of a Rule-4
// decision.
type placeDecision struct {
	node  string
	moveL Movement
	moveR Movement
	cost  float64
}

// evalCandidate prices one candidate site of a Rule-4 decision from the
// join's prices there: movement costs for the remote inputs plus the
// cheapest movement combination's join cost at the candidate.
func evalCandidate(j *Join, p engine.JoinPrices, coster Coster, opts Options, cand, ln, rn string) placeDecision {
	// Both movements pay the move itself (Eqs. 2 and 3); the combination
	// comparison below adds the explicit variant's materialization costs
	// and settles the choice (or applies ForceMovement).
	lLocal, rLocal := ln == cand, rn == cand
	var total float64
	if !lLocal {
		total += moveCost(j.L, coster.LinkFactor(ln, cand))
	}
	if !rLocal {
		total += moveCost(j.R, coster.LinkFactor(rn, cand))
	}

	bestJoin := math.Inf(1)
	var bestMoves [2]Movement
	for _, combo := range movementCombos(lLocal, rLocal, opts.ForceMovement) {
		lExplicit := !lLocal && combo[0] == MoveExplicit
		rExplicit := !rLocal && combo[1] == MoveExplicit
		jc := joinPrice(j, p, !lLocal && !lExplicit, !rLocal && !rExplicit)
		// Explicit sides pay the materialization write plus the scan of
		// the stored copy (Eq. 3's scanCost term; the write is the same
		// volume).
		if lExplicit {
			jc += 2 * p.ScanLeft
		}
		if rExplicit {
			jc += 2 * p.ScanRight
		}
		if jc < bestJoin {
			bestJoin = jc
			bestMoves = combo
		}
	}
	return placeDecision{node: cand, moveL: bestMoves[0], moveR: bestMoves[1], cost: total + bestJoin}
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

// joinPrice is the join's cost at a candidate, given which inputs arrive
// as streams: a streamed input cannot be the hash build side.
func joinPrice(j *Join, p engine.JoinPrices, lStream, rStream bool) float64 {
	switch {
	case lStream && rStream:
		// Both inputs stream (only possible with the full candidate set):
		// the larger stream probes a build over the smaller, which must
		// first be buffered.
		if j.L.Est() < j.R.Est() {
			return p.RightStream
		}
		return p.LeftStream
	case lStream:
		return p.LeftStream
	case rStream:
		return p.RightStream
	}
	return p.Join
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
