package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"xdb/internal/connector"
	"xdb/internal/obs"
)

// Control-plane calls. The middleware only ever consults the DBMSes
// (metadata, calibration, cost and sample probes), deploys DDL on them and
// drops it again, and every one of those round trips follows the same
// discipline. It is stated here once: call is the guarded RPC, drop its
// detached-context sibling for cleanup, and fanOutFirstErr (admission.go)
// the one way to run several of them at a time. A round trip may carry a
// batch — an annotation's join probes, a node's DDL script, a node's DROP
// script: one round trip per node per phase. A batch passes call once:
// one gate, the budget at its heaviest item's weight, one deadline, one
// breaker feed, one attribution.

// NoConnectorError reports a call to a node no connector is registered
// for — a deployment handed to the wrong System, or a plan cached before
// the topology changed.
type NoConnectorError struct {
	Node string
}

func (e *NoConnectorError) Error() string {
	return fmt.Sprintf("core: no connector registered for node %q", e.Node)
}

// nodeFaultError attributes an error to the node whose RPC produced it.
// It is transparent: the message is the wrapped error's, unchanged, and
// errors.Is/As see through it.
type nodeFaultError struct {
	node string
	err  error
}

func (e *nodeFaultError) Error() string { return e.err.Error() }
func (e *nodeFaultError) Unwrap() error { return e.err }

// call runs one control-plane RPC against node, in order:
//
//	gate         the caller's context must be live (an abandoned query sends
//	             nothing and says nothing about the node), a connector must
//	             be registered (NoConnectorError), and the node's breaker
//	             must let the call through — open, it fails fast with
//	             NodeUnavailableError instead of burning a timeout;
//	budget       weight units of the node's MaxPerNode budget, waiting only
//	             while ctx allows;
//	deadline     fn's context is ctx tightened by Options.RequestTimeout;
//	feed         fn's outcome feeds the node's breaker (a cancellation is a
//	             non-signal, a deadline counts: that is how a wedged node
//	             shows);
//	attribution  fn's error comes back pinned on node (nodeFaultError), so
//	             the lifecycle's fault classifier can name a bare deadline.
//
// Errors from the gate and the budget are the caller's or the breaker's,
// not the node's: they are returned bare and feed nothing.
func (s *System) call(ctx context.Context, node string, weight int, fn func(context.Context, *connector.Connector) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c, ok := s.connectors[node]
	if !ok {
		return &NoConnectorError{Node: node}
	}
	if err := s.health.allow(node); err != nil {
		return err
	}
	release, err := s.nodes.acquire(ctx, node, weight)
	if err != nil {
		return err
	}
	defer release()
	rctx, cancel := s.reqCtx(ctx)
	defer cancel()
	err = fn(rctx, c)
	s.health.record(node, err)
	if err != nil {
		return &nodeFaultError{node: node, err: err}
	}
	return nil
}

// reqCtx returns the context bounding one control-plane RPC: the caller's
// context, tightened by Options.RequestTimeout. Cancelling the caller's
// context cancels the RPC.
func (s *System) reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout > 0 {
		return context.WithTimeout(ctx, s.opts.RequestTimeout)
	}
	return context.WithCancel(ctx)
}

// drop runs the DROPs of a node's short-lived relations as one script — one
// round trip — and feeds its outcome to the node's breaker. errs[i] is
// statement i's own outcome; err is the round trip's, and then no drop is
// known to have run. It is call without the query: the context is
// deliberately detached (cleanupCtx) — a cancelled query must still drop
// what it deployed, or every cancellation would park avoidable orphans —
// and takes none of the node's budget, which throttles queries, not their
// undoing. The breaker gate is the caller's decision: query cleanup skips
// a node whose breaker is open, the orphan sweep does not, because the
// sweep is the recovery probe.
func (s *System) drop(node string, sqls []string) (errs []error, err error) {
	c, ok := s.connectors[node]
	if !ok {
		return nil, &NoConnectorError{Node: node}
	}
	ctx, cancel := s.cleanupCtx()
	defer cancel()
	errs, err = c.ExecScript(ctx, sqls)
	s.health.record(node, firstErr(err, errs))
	return errs, err
}

// firstErr is a script's outcome as one error: the round trip's, else the
// first failing statement's.
func firstErr(err error, errs []error) error {
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}

// itemErrs is a batch's outcome item by item: each of its n items' own, or
// the round trip's failure for all of them.
func itemErrs(err error, errs []error, n int) []error {
	if err == nil {
		return errs
	}
	errs = make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}

// dropItems drops short-lived relations: one script per node, the nodes at
// once, each node's statements in the order given. It returns every item's
// outcome. With gated set, a node whose breaker is open is sent nothing
// and its items fail with NodeUnavailableError.
func (s *System) dropItems(items []cleanupItem, gated bool) []error {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	groups := groupByNode(idx, func(i int) string { return items[i].node })
	out := make([]error, len(items))
	fanOutFirstErr(context.Background(), len(groups), s.opts.serial, func(_ context.Context, n int) error {
		idx := groups[n]
		node := items[idx[0]].node
		var errs []error
		var err error
		if gated {
			err = s.health.allow(node)
		}
		if err == nil {
			sqls := make([]string, len(idx))
			for k, i := range idx {
				sqls[k] = items[i].sql
			}
			errs, err = s.drop(node, sqls)
		}
		for k, err := range itemErrs(err, errs, len(idx)) {
			out[idx[k]] = err
		}
		return nil // a node's failure is its items', never its siblings'
	})
	return out
}

// groupByNode splits items by the node each belongs to: one group per
// node, the nodes in sorted order, each group's items in item order — the
// shape of a round that sends one batch per node.
func groupByNode[T any](items []T, node func(T) string) [][]T {
	byNode := map[string][]T{}
	var nodes []string
	for _, it := range items {
		name := node(it)
		if _, ok := byNode[name]; !ok {
			nodes = append(nodes, name)
		}
		byNode[name] = append(byNode[name], it)
	}
	sort.Strings(nodes)
	groups := make([][]T, len(nodes))
	for i, name := range nodes {
		groups[i] = byNode[name]
	}
	return groups
}

// cleanupCtx returns the context bounding one drop script: CleanupTimeout,
// falling back to RequestTimeout, and nothing of the query's.
func (s *System) cleanupCtx() (context.Context, context.CancelFunc) {
	d := s.opts.CleanupTimeout
	if d <= 0 {
		d = s.opts.RequestTimeout
	}
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.Background(), func() {}
}

// timed opens the phase span name under ctx's span and returns the
// context positioned on it, the span, and done. done(err) closes the span
// with the phase's outcome and adds the elapsed time to *into — on every
// path, so a failed query's slow-log record carries the phase time it
// actually spent. With an empty name the phase is timed without a span of
// its own (its callee opens finer ones).
func timed(ctx context.Context, name string, into *time.Duration) (context.Context, *obs.Span, func(error)) {
	start := time.Now()
	var sp *obs.Span
	if name != "" {
		ctx, sp = obs.Start(ctx, name)
	}
	return ctx, sp, func(err error) {
		sp.SetErr(err)
		sp.Finish()
		*into += time.Since(start)
	}
}
