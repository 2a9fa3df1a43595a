package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/obs"
	"xdb/internal/planner"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// Mid-query failover. The paper fixes the delegation plan at annotation
// time, so a site dying *after* deployment turns the whole query into an
// error even when most of the DAG already ran — the breakers and degraded
// planning of health.go only protect the *next* query. The lifecycle
// (lifecycle.go) makes the current query survivable with the pieces in
// this file — fault classification, the backoff, and the mediator
// fallback:
//
//	fault  ──► classify (node-attributable? which node?)
//	       ──► trip the node's breaker (invalidates its cached plans/costs)
//	       ──► re-plan: the degraded planner excludes the dead site
//	       ──► re-deploy the whole plan under a fresh qid, as a first
//	           attempt does: one script per node, all nodes at once
//	       ──► resume execution, up to Options.MaxReplans attempts with
//	           jittered exponential backoff
//	       ──► last resort (Options.MediatorFallback): ship the per-scan
//	           fragments still reachable to the middleware and finish on
//	           the embedded engine, mediator-style (Fig. 4a)
//
// Only node-attributable faults are retried: injected crashes and
// partitions (netsim.FaultError), open breakers (NodeUnavailableError),
// and request deadlines attributed to a node. A caller cancellation or a
// SQL error fails the query exactly as before.

// DefaultReplanBackoff is the base jittered wait between failover
// attempts when Options.ReplanBackoff is unset.
const DefaultReplanBackoff = 25 * time.Millisecond

// classifyFault decides whether an error is a node-attributable mid-query
// fault worth a failover attempt, and which node to exclude from the
// replan. Not retriable: nil, caller cancellation, an already-dead query
// context, and anything that cannot be pinned on a node (SQL errors,
// planner errors).
func (s *System) classifyFault(ctx context.Context, err error) (node, cause string, retriable bool) {
	if err == nil || errors.Is(err, context.Canceled) || ctx.Err() != nil {
		return "", "", false
	}
	var nue *NodeUnavailableError
	if errors.As(err, &nue) {
		return nue.Node, "breaker", true
	}
	var fe *netsim.FaultError
	if errors.As(err, &fe) {
		if n := s.faultNode(fe); n != "" {
			return n, "fault", true
		}
		return "", "", false
	}
	var nfe *nodeFaultError
	attributed := ""
	if errors.As(err, &nfe) {
		attributed = nfe.node
	}
	if isTimeout(err) {
		// A deadline is how a wedged-but-alive node manifests; it is only
		// actionable when the failing RPC was attributed to one.
		if attributed == "" {
			return "", "", false
		}
		return attributed, "slow", true
	}
	// A fault deep in the in-situ cascade crosses an engine's error frame
	// and arrives flattened to text ("remote db2: ... netsim: node db3
	// crashed"): recover the crashed node by name. Flattened partitions
	// name sites, not nodes, and stay final.
	if msg := err.Error(); strings.Contains(msg, "netsim:") {
		for n := range s.connectors {
			if strings.Contains(msg, "node "+n+" crashed") {
				return n, "fault", true
			}
		}
	}
	return "", "", false
}

// faultNode picks which registered node a typed transport fault indicts.
func (s *System) faultNode(fe *netsim.FaultError) string {
	_, fromOK := s.connectors[fe.From]
	_, toOK := s.connectors[fe.To]
	switch {
	case fromOK && toOK:
		if strings.Contains(fe.Reason, "node "+fe.From+" crashed") {
			return fe.From
		}
		return fe.To
	case toOK:
		return fe.To
	case fromOK:
		// Inbound result frames are accounted as producer->consumer, so a
		// severed execution stream names the root DBMS as From.
		return fe.From
	}
	return ""
}

// isTimeout reports whether the error is a deadline expiry.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// replanWait sleeps the jittered exponential backoff before failover
// attempt n (0-based count of replans already spent), honouring the query
// context.
func (s *System) replanWait(ctx context.Context, attempt int) error {
	base := s.opts.ReplanBackoff
	if base <= 0 {
		base = DefaultReplanBackoff
	}
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	d := base << shift
	// Jitter into [d/2, 3d/2): concurrent failed-over queries must not
	// replan in lockstep.
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// mediatorFallback finishes the query locally after in-situ placement is
// exhausted: every base relation still reachable ships its filtered,
// pruned fragment to the middleware, and the embedded engine performs all
// cross-database operations — the Fig. 4a architecture as a last resort.
// It trades the paper's in-situ efficiency for availability and is gated
// behind Options.MediatorFallback.
func (s *System) mediatorFallback(ctx context.Context, qspan *obs.Span, sql string) (*engine.Result, error) {
	sp := qspan.Child("mediator_fallback")
	defer sp.Finish()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	// The catalog was populated by the failed attempt's preparation
	// phase; re-analyze to recover the scans and the residual conjuncts.
	a, err := planner.Analyze(s.catalog, sel)
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	frags := make([]LocalFragment, len(a.Scans))
	err = fanOutFirstErr(ctx, len(a.Scans), s.opts.serial, func(fctx context.Context, i int) error {
		fsel, cols := planner.RenderFragment(a.Scans[i:i+1], nil)
		return s.call(fctx, a.Scans[i].Node, 1, func(rctx context.Context, c *connector.Connector) error {
			fres, err := c.Query(rctx, fsel.String())
			if err != nil {
				return err
			}
			frags[i] = LocalFragment{Cols: cols, Schema: fres.Schema, Rows: fres.Rows}
			return nil
		})
	})
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	// Per-scan fragments have no intra-fragment joins: every join
	// conjunct runs locally.
	eng := engine.New(engine.Config{Name: s.node, Vendor: engine.VendorTest})
	eres, err := ExecuteLocal(eng, a.Canon, frags, a.JoinConjs)
	sp.SetErr(err)
	if eres != nil {
		sp.AddRows(int64(len(eres.Rows)))
	}
	return eres, err
}

// LocalFragment is one fetched fragment result for ExecuteLocal: the
// global column identities it exports (stored under their MangleCol
// names), the fetched schema, and the rows.
type LocalFragment struct {
	Cols   []string
	Schema *sqltypes.Schema
	Rows   []sqltypes.Row
}

// ExecuteLocal loads fetched fragments into the given engine and runs the
// residual cross-database query — the cross-fragment conjuncts plus the
// canonicalized statement's final block — locally. It is the shared core
// of the mediator baseline (internal/mediator) and the middleware's
// last-resort mediator fallback.
func ExecuteLocal(eng *engine.Engine, canon *sqlparser.Select, frags []LocalFragment, cross []sqlparser.Expr) (*engine.Result, error) {
	res := planner.Resolution{}
	final := &sqlparser.Select{}
	for i, f := range frags {
		name := fmt.Sprintf("frag%d", i)
		schema := &sqltypes.Schema{}
		for _, gid := range f.Cols {
			idx, err := f.Schema.Resolve("", planner.MangleCol(gid))
			if err != nil {
				return nil, err
			}
			schema.Columns = append(schema.Columns, sqltypes.Column{
				Name: planner.MangleCol(gid), Type: f.Schema.Columns[idx].Type,
			})
		}
		if err := eng.LoadTable(name, schema, f.Rows); err != nil {
			return nil, err
		}
		res.Bind(name, f.Cols)
		final.From = append(final.From, sqlparser.TableRef{Name: name})
	}
	if err := res.Where(final, cross); err != nil {
		return nil, err
	}
	if err := res.Final(final, canon); err != nil {
		return nil, err
	}
	schema, it, err := eng.QuerySelect(final)
	if err != nil {
		return nil, err
	}
	rows, err := engine.Drain(it)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Schema: schema, Rows: rows}, nil
}
