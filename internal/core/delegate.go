package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xdb/internal/connector"
	"xdb/internal/dialect"
	"xdb/internal/obs"
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
	// servers dedupes SQL/MED server registrations per (consumer,
	// producer) node pair: sibling edges deploying concurrently must
	// issue the CREATE SERVER exactly once and count it once.
	servers map[string]*serverReg
	// objects indexes the deployment's relations by structural signature
	// (see taskSig/edgeSig) — both the ones this attempt created and the
	// ones it adopted from a prior failover attempt. Mid-query failover
	// uses the index to redeploy only the dead part of a plan.
	objects map[string]deployedObj
}

// deployedObj is one deployed short-lived relation, addressed by the
// structural signature of the plan fragment it implements. Signatures are
// name-independent, so a replanned plan can recognize and reuse objects a
// prior attempt already deployed.
type deployedObj struct {
	name string // created object name (view or foreign table)
	node string // node it was created on
	// materialized marks an explicit-movement foreign table whose rows
	// were fetched and stored at deploy time — a completed stage whose
	// result survives its producer's death.
	materialized bool
	// nodes is every node the object depends on at execution time: its
	// host plus, transitively, the implicit-edge subtree feeding it.
	// Reuse requires all of them healthy.
	nodes []string
}

// serverReg tracks one in-flight or completed server registration.
type serverReg struct {
	done chan struct{}
	err  error
}

// registerServer runs create exactly once per key within the deployment.
// The first caller issues the DDL; concurrent callers for the same key
// block until it completes and share its outcome, so a foreign table is
// never deployed against a server registration that has not finished.
func (d *Deployment) registerServer(key string, create func() error) error {
	d.mu.Lock()
	if d.servers == nil {
		d.servers = map[string]*serverReg{}
	}
	if reg, ok := d.servers[key]; ok {
		d.mu.Unlock()
		<-reg.done
		return reg.err
	}
	reg := &serverReg{done: make(chan struct{})}
	d.servers[key] = reg
	d.mu.Unlock()
	reg.err = create()
	close(reg.done)
	return reg.err
}

func (d *Deployment) record(item cleanupItem, ddls int) {
	d.mu.Lock()
	d.cleanup = append(d.cleanup, item)
	d.DDLCount += ddls
	d.mu.Unlock()
}

func (d *Deployment) addDDL(n int) {
	d.mu.Lock()
	d.DDLCount += n
	d.mu.Unlock()
}

// recordObject indexes a relation under its structural signature. Adopted
// (reused) objects are recorded too, WITHOUT a cleanup item — the attempt
// that created an object keeps owning its drop.
func (d *Deployment) recordObject(sig string, obj deployedObj) {
	d.mu.Lock()
	if d.objects == nil {
		d.objects = map[string]deployedObj{}
	}
	d.objects[sig] = obj
	d.mu.Unlock()
}

// objectIndex snapshots the deployment's signature index.
func (d *Deployment) objectIndex() map[string]deployedObj {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]deployedObj, len(d.objects))
	for sig, obj := range d.objects {
		out[sig] = obj
	}
	return out
}

// deployRun threads one deployment attempt through the Algorithm 1
// traversal: the deployment being built plus the reusable-object index
// from prior attempts (nil on a first deployment).
type deployRun struct {
	dep   *Deployment
	reuse map[string]deployedObj
}

type cleanupItem struct {
	node string
	sql  string
}

// deployReusing runs Algorithm 1 over the plan under the caller's context.
// qid makes every created object name unique per query, so concurrent
// queries do not collide and cleanup is precise ("short-lived relations",
// Sec. III). reuse indexes the surviving objects of the query's retired
// attempts (nil on a first deployment): a plan fragment whose structural
// signature matches one adopts it instead of redeploying the subtree. On
// error — a cancelled context included — it returns the partial deployment
// WITH the error: the lifecycle keeps it alive for further reuse and owns
// dropping it, on a detached context.
func (s *System) deployReusing(ctx context.Context, plan *Plan, qid int64, reuse map[string]deployedObj) (*Deployment, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	run := &deployRun{dep: &Deployment{QID: qid}, reuse: reuse}
	rootView, err := s.processTask(ctx, plan, plan.Root, qid, run)
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
func startDDLSpan(ctx context.Context, node, kind, object string, kv ...string) func(error) {
	sp := obs.SpanFrom(ctx).Child("ddl")
	sp.Set("node", node)
	sp.Set("kind", kind)
	sp.Set("object", object)
	for i := 0; i+1 < len(kv); i += 2 {
		sp.Set(kv[i], kv[i+1])
	}
	start := time.Now()
	return func(err error) {
		observeSeconds(met.ddlDur, time.Since(start))
		met.ddls.Inc()
		sp.SetErr(err)
		sp.Finish()
	}
}

// ddl deploys one statement of Algorithm 1 on node — a call — and keeps
// the deployment's books around it. The span and the DDL metrics cover
// the statement once it is actually sent (past the gate and the budget).
// drop renders the statement that undoes it (nil for a server
// registration, which nothing drops): on success it becomes the
// deployment's cleanup item; on failure the outcome is ambiguous — the
// response frame may have been lost after the DDL executed — so it is
// parked as an orphan pessimistically. Drops render as IF EXISTS, so
// sweeping a never-created object is a no-op.
func (s *System) ddl(ctx context.Context, dep *Deployment, node string, weight int, kind, object string,
	drop func(dialect.Dialect, string) string,
	deploy func(context.Context, *connector.Connector) error, kv ...string) error {
	var undo string
	err := s.call(ctx, node, weight, func(rctx context.Context, c *connector.Connector) error {
		if drop != nil {
			undo = drop(c.Dialect, object)
		}
		done := startDDLSpan(ctx, node, kind, object, kv...)
		err := deploy(rctx, c)
		done(err)
		if err != nil && undo != "" {
			s.orphans.add(node, undo, err.Error())
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("core: deploy %s %s on %s: %w", kind, object, node, err)
	}
	if undo == "" {
		dep.addDDL(1)
	} else {
		dep.record(cleanupItem{node: node, sql: undo}, 1)
	}
	return nil
}

// processTask implements PROCESSTASK of Algorithm 1. A task's inputs are
// roots of independent subtrees, so they deploy concurrently — the
// parallelization of delegation the paper's dataflow dependencies permit
// (Sec. IV-A: "this allows us to parallelize certain parts of the
// delegation and execution") — but at most deployFanout at a time, so a
// wide task cannot spawn a goroutine per input. The first failure cancels
// the siblings, which then send no further DDL.
func (s *System) processTask(ctx context.Context, plan *Plan, t *Task, qid int64, run *deployRun) (string, error) {
	sig := taskSig(t)
	if obj, ok := run.reuse[sig]; ok {
		// The identical fragment survives from a prior attempt: adopt its
		// virtual relation and skip the whole subtree. The drop stays
		// owned by the attempt that deployed it.
		run.dep.recordObject(sig, obj)
		t.ViewName = obj.name
		return obj.name, nil
	}
	// Fail fast before descending into the subtree: deploying onto a
	// node with an open breaker would only park more orphans.
	if err := s.health.allow(t.Node); err != nil {
		return "", err
	}
	err := fanOutFirstErr(ctx, len(t.Inputs), s.deployFanout(), s.opts.serial, func(fctx context.Context, i int) error {
		return s.deployInput(fctx, plan, t, t.Inputs[i], qid, run)
	})
	if err != nil {
		return "", err
	}

	// CREATE the task's virtual relation (line 12).
	sel, err := renderTask(t)
	if err != nil {
		return "", err
	}
	viewName := fmt.Sprintf("xdb%d_t%d", qid, t.ID)
	err = s.ddl(ctx, run.dep, t.Node, 1, "view", viewName, dialect.Dialect.DropView,
		func(rctx context.Context, c *connector.Connector) error { return c.DeployView(rctx, viewName, sel) })
	if err != nil {
		return "", err
	}
	run.dep.recordObject(sig, deployedObj{name: viewName, node: t.Node, nodes: depNodes(t)})
	t.ViewName = viewName
	return viewName, nil
}

// deployInput wires one dataflow edge: the producing subtree, the SQL/MED
// server registration, and the foreign table on the consumer.
func (s *System) deployInput(ctx context.Context, plan *Plan, t *Task, edge *Edge, qid int64, run *deployRun) error {
	// A4 ablation: a child task that is a bare (filtered, pruned) scan is
	// not wrapped in a virtual relation — the foreign table points
	// straight at the base table and exposes its full schema, relying on
	// the wrapper's (absent) pushdown.
	var raw *Scan
	if s.opts.NoVirtualRelations && isBareScan(edge.From) {
		raw = edge.From.Root.(*Scan)
	}
	sig := edgeSig(t, edge)
	if obj, ok := run.reuse[sig]; ok {
		// The foreign table survives from a prior attempt — with its
		// producing subtree still reachable (implicit movement), or with
		// its rows already fetched and stored (explicit movement, the
		// durable completed stage). Point the placeholder at it and skip
		// the subtree; the drop stays owned by the attempt that made it.
		run.dep.recordObject(sig, obj)
		edge.Placeholder.Rel, edge.Placeholder.RawScan = obj.name, raw
		return nil
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
	if raw != nil {
		remote = raw.Table
		for _, c := range raw.Schema.Columns {
			cols = append(cols, sqltypes.Column{Name: c.Name, Type: c.Type})
		}
	} else {
		if remote, err = s.processTask(ctx, plan, edge.From, qid, run); err != nil {
			return err
		}
		for i, gid := range edge.Placeholder.Cols {
			cols = append(cols, sqltypes.Column{Name: MangleCol(gid), Type: edge.Placeholder.Types[i]})
		}
	}

	// CREATE SERVER, exactly once per (consumer, producer) pair even when
	// sibling edges deploy concurrently, and counted once.
	serverName := "xdbsrv_" + edge.From.Node
	err = run.dep.registerServer(t.Node+"\x00"+edge.From.Node, func() error {
		return s.ddl(ctx, run.dep, t.Node, 1, "server", serverName, nil,
			func(rctx context.Context, c *connector.Connector) error {
				return c.DeployServer(rctx, serverName, producer.Addr, edge.From.Node)
			})
	})
	if err != nil {
		return err
	}

	// CREATE FOREIGN TABLE (Algorithm 1, line 7), with fetch-and-store
	// semantics when the movement is explicit (line 9). A materializing
	// deploy weighs double on the consumer's budget: fetch-and-store makes
	// the node pull and write the whole input, the heaviest DDL the
	// delegation issues.
	ftName := fmt.Sprintf("xdb%d_ft%d", qid, edge.From.ID)
	materialize, weight := edge.Move == MoveExplicit, 1
	if materialize {
		weight = 2
	}
	err = s.ddl(ctx, run.dep, t.Node, weight, "foreign_table", ftName, dialect.Dialect.DropTable,
		func(rctx context.Context, c *connector.Connector) error {
			return c.DeployForeignTable(rctx, ftName, cols, serverName, remote, materialize)
		}, "materialize", strconv.FormatBool(materialize))
	if err != nil {
		return err
	}
	run.dep.recordObject(sig, deployedObj{
		name: ftName, node: t.Node, materialized: materialize,
		nodes: ftDepNodes(t, edge, materialize),
	})

	// Replace the ? in the task's instruction (lines 10–12).
	edge.Placeholder.Rel, edge.Placeholder.RawScan = ftName, raw
	return nil
}

// isBareScan reports whether the task's fragment is a single scan (with
// optional filter and pruning).
func isBareScan(t *Task) bool {
	_, ok := t.Root.(*Scan)
	return ok && len(t.Inputs) == 0
}

// taskSig returns a structural, name-independent signature of a task: the
// node it runs on plus its fragment's operator tree, recursing through
// placeholders into the producing subtrees. Two tasks with equal
// signatures deploy semantically identical objects (the created names
// differ only by qid), which is what lets a replanned plan recognize and
// reuse a prior attempt's surviving deployments.
func taskSig(t *Task) string {
	ph := make(map[*Placeholder]*Edge, len(t.Inputs))
	for _, e := range t.Inputs {
		ph[e.Placeholder] = e
	}
	return "t|" + t.Node + "|" + opSig(t.Root, ph)
}

// edgeSig identifies one dataflow edge's foreign table: the consuming
// node, the movement, and the producing subtree.
func edgeSig(t *Task, e *Edge) string {
	return "ft|" + t.Node + "|" + e.Move.String() + "|" + taskSig(e.From)
}

// opSig renders one fragment operator structurally (no deployment names).
func opSig(op Op, ph map[*Placeholder]*Edge) string {
	switch o := op.(type) {
	case *Scan:
		filter := ""
		if o.Filter != nil {
			filter = o.Filter.String()
		}
		return fmt.Sprintf("scan(%s,%s,[%s],%s)", o.Table, o.Alias, strings.Join(o.Cols, ","), filter)
	case *Join:
		keys := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = k.L.String() + "=" + k.R.String()
		}
		res := make([]string, len(o.Residual))
		for i, r := range o.Residual {
			res[i] = r.String()
		}
		return fmt.Sprintf("join(%s,%s,[%s],[%s])",
			opSig(o.L, ph), opSig(o.R, ph), strings.Join(keys, ","), strings.Join(res, ","))
	case *Final:
		return fmt.Sprintf("final(%s,%s)", opSig(o.In, ph), o.Sel.String())
	case *Placeholder:
		e, ok := ph[o]
		if !ok {
			// Unreachable for finalized plans; keep it deterministic.
			return fmt.Sprintf("ph?(%s,[%s])", o.Move, strings.Join(o.Cols, ","))
		}
		return fmt.Sprintf("ph(%s,[%s],%s)", o.Move, strings.Join(o.Cols, ","), taskSig(e.From))
	default:
		return fmt.Sprintf("%T", op)
	}
}

// logicalSig renders a fragment's placement- and movement-independent
// logical identity: what relation the fragment computes, regardless of
// which node computes it or how its output moves. Placeholders expand
// through their edges into the producing subtrees, so the signature of a
// finalized fragment equals the signature of the pure (pre-finalization)
// logical subtree it was cut from. That equality is what lets
// cardinality feedback observed against one plan's edges be re-applied
// to a re-optimized plan whose tasks are cut differently (see
// applyCardFeedback). Contrast taskSig/opSig, which deliberately encode
// node and movement for deployment reuse.
func logicalSig(op Op, ph map[*Placeholder]*Edge) string {
	switch o := op.(type) {
	case *Scan:
		filter := ""
		if o.Filter != nil {
			filter = o.Filter.String()
		}
		return fmt.Sprintf("lscan(%s,%s,[%s],%s)", o.Table, o.Alias, strings.Join(o.Cols, ","), filter)
	case *Join:
		keys := make([]string, len(o.Keys))
		for i, k := range o.Keys {
			keys[i] = k.L.String() + "=" + k.R.String()
		}
		res := make([]string, len(o.Residual))
		for i, r := range o.Residual {
			res[i] = r.String()
		}
		return fmt.Sprintf("ljoin(%s,%s,[%s],[%s])",
			logicalSig(o.L, ph), logicalSig(o.R, ph), strings.Join(keys, ","), strings.Join(res, ","))
	case *Final:
		return fmt.Sprintf("lfinal(%s,%s)", logicalSig(o.In, ph), o.Sel.String())
	case *Placeholder:
		if e, ok := ph[o]; ok {
			return logicalSig(e.From.Root, ph)
		}
		return fmt.Sprintf("lph([%s])", strings.Join(o.Cols, ","))
	default:
		return fmt.Sprintf("%T", op)
	}
}

// depNodes returns every node a task's virtual relation touches at
// execution time: its own, plus — through implicit edges only — its
// producing subtrees'. Explicit edges cut the dependency: their foreign
// tables were materialized at deploy time, so the producer side need not
// survive.
func depNodes(t *Task) []string {
	seen := map[string]bool{}
	var walk func(t *Task)
	walk = func(t *Task) {
		seen[t.Node] = true
		for _, e := range t.Inputs {
			if e.Move == MoveExplicit {
				continue
			}
			walk(e.From)
		}
	}
	walk(t)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ftDepNodes returns the nodes a foreign table needs alive at execution
// time: its host, plus the producing subtree unless the rows were already
// materialized.
func ftDepNodes(t *Task, e *Edge, materialized bool) []string {
	if materialized {
		return []string{t.Node}
	}
	return append([]string{t.Node}, depNodes(e.From)...)
}

// cleanupDeployment drops the query's short-lived relations in reverse
// creation order. Each drop is individually bounded by CleanupTimeout
// (falling back to RequestTimeout), so a dead or hung node cannot stall
// the sweep, and a node whose breaker is open is skipped without burning
// its timeout. Errors are collected but do not stop the sweep; failed
// items are RETAINED — on the deployment (so a direct retry is possible)
// and in the system's orphan registry, where the janitor retries them on
// node recovery or an explicit SweepOrphans. The returned error names the
// node and statement of every failed drop. The caller's context is used
// only to attach the "cleanup" trace span; the drops themselves run on
// detached per-drop contexts so a cancelled query still cleans up.
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

	var errs []string
	var failed []cleanupItem
	for i := len(items) - 1; i >= 0; i-- {
		item := items[i]
		err := s.health.allow(item.node)
		if err == nil {
			err = s.drop(item.node, item.sql)
		}
		if err != nil {
			failed = append(failed, item)
			s.orphans.add(item.node, item.sql, err.Error())
			errs = append(errs, fmt.Sprintf("%s on %s: %v", item.sql, item.node, err))
		}
	}
	if len(failed) > 0 {
		// Restore reverse-of-creation order for any later direct retry.
		for i, j := 0, len(failed)-1; i < j; i, j = i+1, j-1 {
			failed[i], failed[j] = failed[j], failed[i]
		}
		dep.mu.Lock()
		dep.cleanup = append(failed, dep.cleanup...)
		dep.mu.Unlock()
		return fmt.Errorf("core: cleanup: %s", strings.Join(errs, "; "))
	}
	return nil
}
