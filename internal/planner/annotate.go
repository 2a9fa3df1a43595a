package planner

import (
	"fmt"
	"math"
	"slices"

	"xdb/internal/engine"
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
//
// Annotation is two phases with the consultation between them, which the
// caller does: Asks lists every (join, node) pair some Rule-4 decision of
// the plan could price, whatever the answers; the caller consults the
// DBMSes for them, all of a node's probes in one round trip; and Place
// decides bottom-up over the answer table.

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
	// the cross-query consult cache.
	CachedProbes int
	// Placed lists the cross-database joins Rule 4 placed, in the order it
	// decided them (post-order).
	Placed []*Join
}

// Ask is one probe: a join priced at one node.
type Ask struct {
	Join *Join
	Node string
}

// Est is what a probe tells the DBMS about its join: the inputs' and the
// join's own estimated cardinalities.
func (a Ask) Est() (left, right, out float64) {
	return a.Join.L.Est(), a.Join.R.Est(), a.Join.Est()
}

// Sites is what annotation knows of the cluster before it decides
// anything: each node's health, read once per annotation, how links scale
// movement costs, and the full candidate set (nil for the paper's two-input
// pruning). err is the first operator Asks could not annotate.
type Sites struct {
	health     func(node string) bool
	healthy    map[string]bool
	all        []string
	linkFactor func(from, to string) float64
	err        error
}

// NewSites returns the view of the cluster one annotation decides over.
// health reports whether a node can currently be consulted and placed on
// (false while its breaker is open); linkFactor scales movement cost
// between two nodes relative to the baseline LAN link (> 1 for slower
// links; a factor below 1 prices as the baseline); all, when not nil, is
// every registered DBMS in a stable order — the FullCandidateSet
// ablation's candidates, tried in this order.
func NewSites(health func(node string) bool, linkFactor func(from, to string) float64, all []string) *Sites {
	return &Sites{health: health, healthy: map[string]bool{}, all: all, linkFactor: linkFactor}
}

// Healthy reports whether node can be consulted and placed on, asking
// once per Sites. Annotation never asks an unhealthy node: it prices it
// with the local cost model or excludes it outright.
func (s *Sites) Healthy(node string) bool {
	if _, ok := s.healthy[node]; !ok {
		s.healthy[node] = s.health(node)
	}
	return s.healthy[node]
}

// Asks returns every (join, node) pair some Rule-4 decision of the plan
// under root could price: the probes to send before Place.
func Asks(root Op, sites *Sites) ([]Ask, error) {
	var asks []Ask
	sites.reach(root, &asks)
	return asks, sites.err
}

// candidates returns the placement candidates of a Rule-4 decision between
// inputs annotated ln and rn, in the order they are tried, and how many
// were excluded. The paper's pruning keeps the two inputs' DBMSes.
// Degraded planning excludes a candidate whose breaker is open — placing
// an operator there would only deploy DDL onto a dead node; with the
// pruning this falls back to the healthy input's site. If every candidate
// is unhealthy there is no better choice: all are kept, and delegation
// surfaces the outage.
func (s *Sites) candidates(ln, rn string) (cands []string, excluded int) {
	cands = []string{ln, rn}
	if s.all != nil {
		cands = s.all
	}
	healthy := make([]string, 0, len(cands))
	for _, c := range cands {
		if s.Healthy(c) {
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
func (s *Sites) reach(op Op, asks *[]Ask) []string {
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
			*asks = append(*asks, Ask{o, n})
		}
		return out
	}
	if s.err == nil {
		s.err = fmt.Errorf("planner: annotate: unexpected operator %T", op)
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

// Place annotates the plan under root into a from the answer table —
// prices holds a join's prices at a node under its Ask — with no I/O;
// force, when not zero, is every moving edge's movement (ablation A1).
// Every Rule-4 decision prices each candidate site over the answers; a
// candidate excluded because it is unhealthy counts in DegradedProbes.
// The consultation's counters are the caller's to set.
func Place(a *Annotation, root Op, prices map[Ask]engine.JoinPrices, sites *Sites, force Movement) {
	a.Node, a.Move = map[Op]string{}, map[Op]Movement{}
	a.decide(root, prices, sites, force)
}

// decide annotates op and everything below it, bottom-up, from the answer
// table:
//
//	Rule 1 — a scan gets its home DBMS;
//	Rule 2 — the final block inherits its input's annotation;
//	Rule 3 — a join whose inputs agree inherits their annotation;
//	Rule 4 — a cross-database join is placed by Equation 1.
func (a *Annotation) decide(op Op, prices map[Ask]engine.JoinPrices, sites *Sites, force Movement) {
	switch o := op.(type) {
	case *Scan:
		a.Node[op] = o.Node
	case *Final:
		a.decide(o.In, prices, sites, force)
		a.Node[op] = a.Node[o.In]
	case *Join:
		a.decide(o.L, prices, sites, force)
		a.decide(o.R, prices, sites, force)
		if ln, rn := a.Node[o.L], a.Node[o.R]; ln == rn {
			a.Node[op] = ln
		} else {
			a.placeCrossJoin(o, prices, sites, force)
		}
	}
}

// placeCrossJoin solves Equation 1 for a cross-database join over the
// answer table: every candidate site is priced, and the first strictly
// cheaper one wins.
func (a *Annotation) placeCrossJoin(j *Join, prices map[Ask]engine.JoinPrices, sites *Sites, force Movement) {
	ln, rn := a.Node[j.L], a.Node[j.R]
	candidates, excluded := sites.candidates(ln, rn)
	a.DegradedProbes += excluded
	var best placeDecision
	for i, cand := range candidates {
		d := evalCandidate(j, prices[Ask{j, cand}], sites, force, cand, ln, rn)
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
	a.Placed = append(a.Placed, j)
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
func evalCandidate(j *Join, p engine.JoinPrices, sites *Sites, force Movement, cand, ln, rn string) placeDecision {
	// Both movements pay the move itself (Eqs. 2 and 3); the combination
	// comparison below adds the explicit variant's materialization costs
	// and settles the choice (or applies the forced movement).
	lLocal, rLocal := ln == cand, rn == cand
	var total float64
	if !lLocal {
		total += moveCost(j.L, sites.linkFactor(ln, cand))
	}
	if !rLocal {
		total += moveCost(j.R, sites.linkFactor(rn, cand))
	}

	bestJoin := math.Inf(1)
	var bestMoves [2]Movement
	for _, combo := range movementCombos(lLocal, rLocal, force) {
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

// LocalCost is the middleware's own calibrated cost model: the same
// textbook shapes the emulated engines price, in the common currency the
// calibration normalizes to (a scan of N rows costs N units). It is the
// degraded-mode stand-in when a DBMS cannot be consulted, and is vendor-
// blind — exactly the information loss that makes consulting worth its
// round trips when the engines are reachable.
func LocalCost(kind engine.CostKind, left, right, out float64) float64 {
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
