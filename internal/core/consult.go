package core

import (
	"context"
	"fmt"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/obs"
	"xdb/internal/planner"
)

// Consultation (Sec. IV-B2): the one round of I/O inside plan annotation.
// The planner lists every (join, node) price a Rule-4 decision of the plan
// could need (planner.Asks) and decides over the answers
// (planner.Place); between the two, consult prices the asks — from the
// consult cache, from the nodes in one batch per node, or from the local
// cost model when a node cannot answer.

// priceFunc consults node for every price of joins in calibrated common
// units (engine.JoinPrices), in one round trip: prices[i] and errs[i]
// answer joins[i], and a round trip that fails fails every join. The
// context bounds the round trip.
type priceFunc func(ctx context.Context, node string, joins []connector.JoinProbe) (prices []engine.JoinPrices, errs []error)

// annotate runs the annotation of the plan under root: the asks, one
// consultation round for them, then the decisions over the answers, each
// Rule-4 decision leaving one "place" span — the chosen site and the
// movement verdict for each input edge that moves. The context bounds the
// consultation; cancellation fails the pass.
func annotate(ctx context.Context, root planner.Op, sites *planner.Sites, price priceFunc, cache *consultCache, opts Options) (*planner.Annotation, error) {
	asks, err := planner.Asks(root, sites)
	if err != nil {
		return nil, err
	}
	ann := &planner.Annotation{}
	prices := consult(ctx, ann, asks, sites, price, cache, opts.serial)
	// A query cancelled before or during the round must fail here, not
	// decide over the local model's stand-ins for the answers it abandoned
	// and then fail at delegation.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: annotate: %w", err)
	}
	planner.Place(ann, root, prices, sites, opts.ForceMovement)
	for _, j := range ann.Placed {
		node := ann.Node[j]
		sp := obs.SpanFrom(ctx).Child("place")
		sp.Set("node", node)
		if ann.Node[j.L] != node {
			sp.Set("move_left", moveVerdict(ann.Move[j.L]))
		}
		if ann.Node[j.R] != node {
			sp.Set("move_right", moveVerdict(ann.Move[j.R]))
		}
		sp.Finish()
	}
	return ann, nil
}

// moveVerdict spells a movement out for trace attributes.
func moveVerdict(m planner.Movement) string {
	if m == planner.MoveExplicit {
		return "explicit"
	}
	return "implicit"
}

// consult prices every ask and returns the answer table. It never fails:
// an unhealthy node's probes, and the probes of a round trip or item that
// fails, are priced by the local cost model (the middleware owns failure
// handling for the engines it coordinates) and count in a's
// DegradedProbes, and the breaker hears of one failure per failed round
// trip. A probe the consult cache answers counts in CachedProbes. The rest
// go out as one batch per node, the nodes at once (in order under serial),
// and count one each in ConsultRounds; a failed probe's local stand-in
// never reaches the cache. Every ask leaves one "probe" span, and every
// round trip one observation of xdb_probe_duration_seconds.
func consult(ctx context.Context, a *planner.Annotation, asks []planner.Ask, sites *planner.Sites, price priceFunc, cache *consultCache, serial bool) map[planner.Ask]engine.JoinPrices {
	prices := make(map[planner.Ask]engine.JoinPrices, len(asks))
	spans := make([]*obs.Span, len(asks))
	settle := func(i int, outcome string, p engine.JoinPrices) {
		prices[asks[i]] = p
		spans[i].Set("outcome", outcome)
		spans[i].Finish()
	}
	var sent []int
	for i, ask := range asks {
		spans[i] = obs.SpanFrom(ctx).Child("probe")
		spans[i].Set("node", ask.Node)
		l, r, out := ask.Est()
		if !sites.Healthy(ask.Node) {
			a.DegradedProbes++
			settle(i, "degraded_breaker", engine.JoinPricesOf(planner.LocalCost, l, r, out))
			continue
		}
		if p, ok := cache.lookup(ask.Node, l, r, out); ok {
			a.CachedProbes++
			settle(i, "cached", p)
			continue
		}
		sent = append(sent, i)
	}

	answers, errs := make([]engine.JoinPrices, len(asks)), make([]error, len(asks))
	groups := groupByNode(sent, func(i int) string { return asks[i].Node })
	fanOutFirstErr(ctx, len(groups), serial, func(fctx context.Context, g int) error {
		idx := groups[g]
		joins := make([]connector.JoinProbe, len(idx))
		for k, i := range idx {
			joins[k].Left, joins[k].Right, joins[k].Out = asks[i].Est()
		}
		start := time.Now()
		ps, es := price(fctx, asks[idx[0]].Node, joins)
		observeSeconds(met.probeDur, time.Since(start))
		for k, i := range idx {
			answers[i], errs[i] = ps[k], es[k]
		}
		return nil // a node's failure degrades its probes, never its siblings'
	})
	a.ConsultRounds += len(sent)
	for _, i := range sent {
		l, r, out := asks[i].Est()
		if errs[i] != nil {
			a.DegradedProbes++
			spans[i].SetErr(errs[i])
			settle(i, "degraded_error", engine.JoinPricesOf(planner.LocalCost, l, r, out))
			continue
		}
		cache.store(asks[i].Node, l, r, out, answers[i])
		settle(i, "consulted", answers[i])
	}
	return prices
}

// priceJoins is one consultation round trip carrying every join of an
// annotation that asks node (a priceFunc) — a call taking one unit of the
// node's budget, fed to the breaker once. A round trip that fails, or
// never starts, fails every join.
func (s *System) priceJoins(ctx context.Context, node string, joins []connector.JoinProbe) (prices []engine.JoinPrices, errs []error) {
	err := s.call(ctx, node, 1, func(rctx context.Context, c *connector.Connector) (err error) {
		prices, errs, err = c.PriceJoins(rctx, joins)
		return firstErr(err, errs)
	})
	if errs == nil { // the round trip failed, or never started
		prices, errs = make([]engine.JoinPrices, len(joins)), itemErrs(err, nil, len(joins))
	}
	return prices, errs
}
