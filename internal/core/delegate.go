package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"xdb/internal/connector"
	"xdb/internal/obs"
	"xdb/internal/planner"
	"xdb/internal/sqltypes"
)

// The delegation phase (Sec. V-A, Algorithm 1): a depth-first traversal of
// the delegation plan that, for every task, first wires up its inputs —
// a SQL/MED server registration and a foreign table on the task's DBMS
// pointing at the child task's virtual relation, materialized locally when
// the edge is explicit — and then creates the task's own virtual relation
// (a view) from its rendered algebraic expression. The DDLs only *prepare*
// the DBMSes; no data moves until the XDB query is executed. The returned
// XDB query — SELECT * FROM <root view> on the root task's DBMS — is what
// the client runs to trigger the in-situ cascade of Fig. 8.
//
// The traversal renders; it sends nothing. Every object name is known
// before anything exists (xdb<qid>_t<task>, xdb<qid>_ft<task>), so the
// statements are rendered up front in Algorithm 1's order, grouped by node,
// and sent as one script per node, all nodes at once: one deploy round.
// That is legal because a node's objects depend only on objects of the same
// node — a view reads base tables and foreign tables of its own DBMS, and a
// foreign table declares its schema and its row estimate (the rows option)
// instead of asking its producer for them. It binds to the producer when
// it is scanned, and by then the round has finished on every node.

// Deployment is the result of delegating one plan.
type Deployment struct {
	// XDBQuery is the statement the client must execute.
	XDBQuery string
	// Node is the DBMS the XDB query targets (the root task's home).
	Node string
	// QID is the query id its object names embed (xdb<QID>_*); the wire
	// flow sink routes this deployment's streams by it.
	QID int64

	mu sync.Mutex
	// cleanup lists DROP statements in reverse deployment order.
	cleanup []cleanupItem
	// DDLCount is the number of DDL statements deployed.
	DDLCount int
}

// deployStmt is one rendered statement of a delegation: where it runs, what
// it creates, how that is undone, and what the deployment's books record
// once it has run.
type deployStmt struct {
	node, kind, object string
	sql                string
	// undo is the DROP that undoes the statement; "" for a server
	// registration, which nothing drops. Drops render as IF EXISTS, so
	// sweeping a never-created object is a no-op.
	undo string
	// weight is the statement's share of the node's budget: a materializing
	// foreign table weighs double — fetch-and-store makes the node pull and
	// write the whole input, the heaviest thing the delegation asks for.
	weight int
	// attrs are extra attributes of the statement's ddl span.
	attrs []string
}

// deployRun threads one deployment through the Algorithm 1 traversal: the
// deployment being built and the statements rendered so far, in Algorithm
// 1's order.
type deployRun struct {
	dep   *Deployment
	stmts []*deployStmt
	// servers holds the (consumer, producer) node pairs whose SQL/MED server
	// registration is already rendered: sibling edges share one.
	servers map[string]bool
}

type cleanupItem struct {
	node string
	sql  string
}

// deploy runs Algorithm 1 over the plan under the caller's context. qid
// makes every created object name unique per query attempt, so concurrent
// queries do not collide and cleanup is precise ("short-lived relations",
// Sec. III). On error — a cancelled context included — it returns the
// partial deployment WITH the error: the lifecycle owns dropping it, on a
// detached context.
func (s *System) deploy(ctx context.Context, plan *planner.Plan, qid int64) (*Deployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := &deployRun{dep: &Deployment{QID: qid}, servers: map[string]bool{}}
	rootView, err := s.scriptTask(plan.Root, run)
	if err == nil {
		err = s.deployScripts(ctx, run)
	}
	if err != nil {
		return run.dep, err
	}
	run.dep.XDBQuery = "SELECT * FROM " + rootView
	run.dep.Node = plan.Root.Node
	return run.dep, nil
}

// startDDLSpan opens one "ddl" span (tagged node and statement kind) and
// returns a closer that records latency — on the span and on the DDL
// histogram — plus the error outcome. The closer also counts the
// statement on the issued-DDL counter regardless of outcome: a deployment
// that fails halfway still reports every DDL it actually sent. Nil-safe
// end to end: with tracing off only the metric observations remain.
func startDDLSpan(ctx context.Context, st *deployStmt) func(error) {
	sp := obs.SpanFrom(ctx).Child("ddl")
	sp.Set("node", st.node)
	sp.Set("kind", st.kind)
	sp.Set("object", st.object)
	for i := 0; i+1 < len(st.attrs); i += 2 {
		sp.Set(st.attrs[i], st.attrs[i+1])
	}
	start := time.Now()
	return func(err error) {
		observeSeconds(met.ddlDur, time.Since(start))
		met.ddls.Inc()
		sp.SetErr(err)
		sp.Finish()
	}
}

// deployScripts sends the rendered statements: one script per node, every
// node at once (in sorted order, one after the other, under
// Options.serial). A node's failure does not cancel its siblings — an
// abandoned script is one whose every statement must be parked as an
// orphan — so the round always runs to its end, and the error returned is
// the first failing node's.
func (s *System) deployScripts(ctx context.Context, run *deployRun) error {
	groups := groupByNode(run.stmts, func(st *deployStmt) string { return st.node })
	errs := make([]error, len(groups))
	fanOutFirstErr(ctx, len(groups), s.opts.serial, func(fctx context.Context, n int) error {
		errs[n] = s.deployScript(fctx, run.dep, groups[n][0].node, groups[n])
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// deployScript deploys one node's statements as one script — a call, at
// the heaviest statement's weight — and keeps the deployment's books
// statement by statement. Each statement gets its ddl span and its DDL
// metrics once the script is actually sent (past the gate and the budget),
// for the script's round trip. A statement that ran becomes a cleanup item.
// A statement the DBMS refused is parked as an orphan, pessimistically, and
// its drop is listed for the deployment's own cleanup as well, which
// un-parks it when it goes through. When the script's reply is lost nothing
// is known — any statement may have run, or may still be running — so every
// statement's drop is parked and left to the sweep.
func (s *System) deployScript(ctx context.Context, dep *Deployment, node string, stmts []*deployStmt) error {
	weight := 0
	sqls := make([]string, len(stmts))
	for i, st := range stmts {
		weight = max(weight, st.weight)
		sqls[i] = st.sql
	}
	return s.call(ctx, node, weight, func(rctx context.Context, c *connector.Connector) error {
		done := make([]func(error), len(stmts))
		for i, st := range stmts {
			done[i] = startDDLSpan(ctx, st)
		}
		errs, lost := c.ExecScript(rctx, sqls)
		var first error
		for i, err := range itemErrs(lost, errs, len(stmts)) {
			st := stmts[i]
			done[i](err)
			dep.book(st, err, lost != nil)
			if err != nil {
				if st.undo != "" {
					s.orphans.add(node, st.undo, err.Error())
				}
				if first == nil {
					first = fmt.Errorf("core: deploy %s %s on %s: %w", st.kind, st.object, node, err)
				}
			}
		}
		return first
	})
}

// book records one sent statement's outcome: the DDL count when it ran,
// and its drop as a cleanup item unless the script's reply was lost (then
// the orphan sweep owns it).
func (d *Deployment) book(st *deployStmt, err error, lost bool) {
	d.mu.Lock()
	if st.undo != "" && !lost {
		d.cleanup = append(d.cleanup, cleanupItem{node: st.node, sql: st.undo})
	}
	if err == nil {
		d.DDLCount++
	}
	d.mu.Unlock()
}

// scriptTask implements PROCESSTASK of Algorithm 1 as rendering: the
// task's inputs first, depth-first, then the task's own virtual relation
// (line 12). It returns the view's name.
func (s *System) scriptTask(t *planner.Task, run *deployRun) (string, error) {
	// Fail fast, before anything is sent anywhere: deploying the rest of
	// the plan around a node with an open breaker would only make work to
	// undo.
	c, ok := s.connectors[t.Node]
	if !ok {
		return "", &NoConnectorError{Node: t.Node}
	}
	if err := s.health.allow(t.Node); err != nil {
		return "", err
	}
	for _, edge := range t.Inputs {
		if err := s.scriptInput(t, edge, c, run); err != nil {
			return "", err
		}
	}
	sel, err := t.Render()
	if err != nil {
		return "", err
	}
	viewName := fmt.Sprintf("xdb%d_t%d", run.dep.QID, t.ID)
	run.stmts = append(run.stmts, &deployStmt{
		node: t.Node, kind: "view", object: viewName, weight: 1,
		sql: c.Dialect.CreateView(viewName, sel), undo: c.Dialect.DropView(viewName),
	})
	t.ViewName = viewName
	return viewName, nil
}

// scriptInput wires one dataflow edge of task t, whose connector is c: the
// producing subtree, the SQL/MED server registration, and the foreign table
// on the consumer.
func (s *System) scriptInput(t *planner.Task, edge *planner.Edge, c *connector.Connector, run *deployRun) error {
	// A4 ablation: a child task that is a bare (filtered, pruned) scan is
	// not wrapped in a virtual relation — the foreign table points
	// straight at the base table and exposes its full schema, relying on
	// the wrapper's (absent) pushdown.
	var raw *planner.Scan
	if s.opts.NoVirtualRelations && isBareScan(edge.From) {
		raw = edge.From.Root.(*planner.Scan)
	}
	producer, ok := s.connectors[edge.From.Node]
	if !ok {
		return &NoConnectorError{Node: edge.From.Node}
	}
	var (
		remote string
		cols   []sqltypes.Column
		err    error
	)
	// The foreign table declares how many rows to expect, so the consumer
	// plans over it without asking the producer: the edge's estimate, or
	// for A4's raw table the catalog's row count of the base table.
	rows := edge.EstRows
	if raw != nil {
		remote = raw.Table
		for _, c := range raw.Schema.Columns {
			cols = append(cols, sqltypes.Column{Name: c.Name, Type: c.Type})
		}
		if info, ok := s.catalog.Lookup(raw.Table); ok && info.Stats != nil {
			rows = float64(info.Stats.RowCount)
		}
	} else {
		if remote, err = s.scriptTask(edge.From, run); err != nil {
			return err
		}
		for i, gid := range edge.Placeholder.Cols {
			cols = append(cols, sqltypes.Column{Name: planner.MangleCol(gid), Type: edge.Placeholder.Types[i]})
		}
	}

	// CREATE SERVER, once per (consumer, producer) pair.
	serverName := "xdbsrv_" + edge.From.Node
	if pair := t.Node + "\x00" + edge.From.Node; !run.servers[pair] {
		run.servers[pair] = true
		run.stmts = append(run.stmts, &deployStmt{
			node: t.Node, kind: "server", object: serverName, weight: 1,
			sql: c.Dialect.CreateServer(serverName, producer.Addr, edge.From.Node),
		})
	}

	// CREATE FOREIGN TABLE (Algorithm 1, line 7), with fetch-and-store
	// semantics when the movement is explicit (line 9).
	ftName := fmt.Sprintf("xdb%d_ft%d", run.dep.QID, edge.From.ID)
	materialize, weight := edge.Move == planner.MoveExplicit, 1
	if materialize {
		weight = 2
	}
	run.stmts = append(run.stmts, &deployStmt{
		node: t.Node, kind: "foreign_table", object: ftName, weight: weight,
		sql:   c.Dialect.CreateForeignTable(ftName, cols, serverName, remote, materialize, declaredRows(rows)),
		undo:  c.Dialect.DropTable(ftName),
		attrs: []string{"materialize", strconv.FormatBool(materialize)},
	})

	// Replace the ? in the task's instruction (lines 10–12).
	edge.Placeholder.Rel, edge.Placeholder.RawScan = ftName, raw
	return nil
}

// declaredRows is a row estimate as a foreign table's rows option: a
// positive integer, or 0 (none declared) when the estimate is not finite.
func declaredRows(est float64) int64 {
	if math.IsNaN(est) || math.IsInf(est, 0) {
		return 0
	}
	return int64(math.Max(math.Round(est), 1))
}

// isBareScan reports whether the task's fragment is a single scan (with
// optional filter and pruning).
func isBareScan(t *planner.Task) bool {
	_, ok := t.Root.(*planner.Scan)
	return ok && len(t.Inputs) == 0
}

// cleanupDeployment drops the query's short-lived relations: one DROP
// script per node, the nodes at once, each node's statements in reverse
// creation order. Each script is bounded by CleanupTimeout (falling back
// to RequestTimeout), so a dead or hung node cannot stall the others, and a
// node whose breaker is open is skipped without burning its timeout.
// Failed items are RETAINED — on the deployment (so a direct retry is
// possible) and in the system's orphan registry, where the janitor retries
// them on node recovery or an explicit SweepOrphans; a drop that goes
// through un-parks its object. The returned error names the node and
// statement of every failed drop. The caller's context is used only to
// attach the "cleanup" trace span; the drops themselves run on detached
// contexts so a cancelled query still cleans up.
func (s *System) cleanupDeployment(qctx context.Context, dep *Deployment) (err error) {
	sp := obs.SpanFrom(qctx).Child("cleanup")
	dep.mu.Lock()
	items := dep.cleanup
	dep.cleanup = nil
	dep.mu.Unlock()
	defer func() {
		sp.Set("drops", strconv.Itoa(len(items)))
		sp.SetErr(err)
		sp.Finish()
	}()

	slices.Reverse(items)
	var errs []string
	var failed []cleanupItem
	for i, err := range s.dropItems(items, true) {
		item := items[i]
		if err == nil {
			s.orphans.remove(item.node, item.sql)
			continue
		}
		failed = append(failed, item)
		s.orphans.add(item.node, item.sql, err.Error())
		errs = append(errs, fmt.Sprintf("%s on %s: %v", item.sql, item.node, err))
	}
	if len(failed) > 0 {
		// Restore creation order for any later direct retry.
		slices.Reverse(failed)
		dep.mu.Lock()
		dep.cleanup = append(failed, dep.cleanup...)
		dep.mu.Unlock()
		return fmt.Errorf("core: cleanup: %s", strings.Join(errs, "; "))
	}
	return nil
}
