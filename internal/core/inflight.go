package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xdb/internal/planner"
	"xdb/internal/wire"
)

// Live query introspection. Every admitted query registers in its
// System's in-flight registry; every deployment attempt attaches its qid
// and plan-edge metadata; and the wire layer's flow sink routes per-frame
// accounting events (rows, bytes, frames per attributed stream — see
// internal/wire/flow.go) to the owning entry. The registry answers
// System.Inflight() and the /debug/queries endpoint while the query
// runs, and its accumulated per-edge flows become Result.Flows — the
// observed half of EXPLAIN ANALYZE — when it finishes.

// qidSeq allocates query ids process-wide. Deployed object names
// (xdb<qid>_*) and flow attribution both key on the qid, and several
// Systems can share one process (tests, embedded setups), so the
// sequence must never restart per System.
var qidSeq atomic.Int64

// nextQID returns a fresh process-unique query id.
func nextQID() int64 { return qidSeq.Add(1) }

// flowRouter maps live qids to their registry entries so the process-wide
// wire sink can attribute events without a System in hand. A plan-cache
// deployment shared by concurrent queries reuses one qid; the latest
// registrant wins the route for the overlap (see DESIGN.md §10), but the
// overlap is remembered in shared: while two live queries contend for one
// qid, per-query attribution would be a lie, so the streams are marked
// kind=shared instead of being silently credited to the newest query, and
// xdb_edge_attr_ambiguous_total counts each detected overlap.
var flowRouter = struct {
	sync.RWMutex
	m      map[int64]*inflightEntry
	shared map[int64]bool
}{m: map[int64]*inflightEntry{}, shared: map[int64]bool{}}

// coreFlowSink is the wire.FlowSink the core installs at package init.
type coreFlowSink struct{}

func (coreFlowSink) FlowEvent(ev wire.FlowEvent) {
	flowRouter.RLock()
	ent := flowRouter.m[ev.QID]
	shared := flowRouter.shared[ev.QID]
	flowRouter.RUnlock()
	if ent != nil {
		ent.applyFlow(ev, shared)
	}
}

func init() { wire.SetFlowSink(coreFlowSink{}) }

// flowKey identifies one attributed stream within a query: which attempt
// (qid) and which producing task's view it read.
type flowKey struct {
	qid  int64
	task int
}

// EdgeFlow is the observed wire traffic of one attributed stream — the
// flow-accounting snapshot of a delegation-plan edge, counted once, by
// the client that received the stream.
type EdgeFlow struct {
	QID  int64  `json:"qid"`
	Task int    `json:"task"`
	Rel  string `json:"rel"`
	Kind string `json:"kind"` // implicit | explicit | result | shared | unknown
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// EstRows is the planner's estimate for the edge; 0 when unknown.
	EstRows float64 `json:"est_rows,omitempty"`

	Rows   int64 `json:"rows"`
	Bytes  int64 `json:"bytes"`  // wire bytes, frame headers included
	Frames int64 `json:"frames"` // row frames and the end frame
	// Done marks a stream whose consumer read the end frame: Rows is
	// then the stream's whole row count.
	Done bool `json:"done"`
}

// edgeMeta is what an attached plan knows about one producing task's
// outbound edge, resolved when that task's stream first flows. The route
// is the stream's own: the receiving client knows both of its nodes.
type edgeMeta struct {
	kind string
	est  float64
}

// attemptMeta is the plan-shape index of one deployment attempt.
type attemptMeta struct {
	root  int
	edges map[int]edgeMeta // keyed by producing task id
}

// InflightQuery is one registered query's public snapshot. It embeds the
// query's record as the lifecycle's last step left it, so the record's
// fields keep their json names in /debug/queries.
type InflightQuery struct {
	ID      int64         `json:"id"`
	SQL     string        `json:"sql"`
	Phase   string        `json:"phase"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// PlanShape summarizes the current attempt's plan ("tasks=N root=X
	// moves=Ii/Ee"); empty until the first plan is attached.
	PlanShape string `json:"plan_shape,omitempty"`
	Breakdown
	Edges []EdgeFlow `json:"edges,omitempty"`
}

// inflightEntry is one admitted query's live record.
type inflightEntry struct {
	id    int64
	sql   string
	start time.Time

	mu       sync.Mutex
	phase    string
	shape    string
	bd       Breakdown
	qids     []int64
	attempts map[int64]*attemptMeta
	flows    map[flowKey]*EdgeFlow
}

// setPhase moves the query to a lifecycle phase ("" keeps the current
// one) and copies its record. Nil-safe.
func (e *inflightEntry) setPhase(phase string, bd *Breakdown) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if phase != "" {
		e.phase = phase
	}
	e.bd = *bd
	e.mu.Unlock()
}

// attach records one deployment attempt's qid and plan-edge metadata and
// routes the qid's flow events to this entry. Nil-safe.
func (e *inflightEntry) attach(qid int64, plan *planner.Plan) {
	if e == nil || plan == nil || plan.Root == nil {
		return
	}
	am := &attemptMeta{root: plan.Root.ID, edges: map[int]edgeMeta{}}
	for _, edge := range plan.Edges {
		kind := "implicit"
		if edge.Move == planner.MoveExplicit {
			kind = "explicit"
		}
		am.edges[edge.From.ID] = edgeMeta{kind: kind, est: edge.EstRows}
	}
	e.mu.Lock()
	e.attempts[qid] = am
	e.qids = append(e.qids, qid)
	e.shape = planShape(plan)
	e.mu.Unlock()
	flowRouter.Lock()
	if prev := flowRouter.m[qid]; prev != nil && prev != e {
		// Two live queries share one warm deployment's qid: whichever rows
		// flow now cannot honestly be credited to either. Mark the qid
		// ambiguous — its streams render kind=shared — rather than silently
		// attributing a shared stream to the newest registrant.
		flowRouter.shared[qid] = true
		met.edgeAttrAmbiguous.Inc()
	}
	flowRouter.m[qid] = e
	flowRouter.Unlock()
}

// applyFlow folds one wire flow event into the entry's per-edge counters
// and the process-wide edge metrics. shared marks a qid contended by two
// live queries (see flowRouter): the stream's traffic is still counted,
// but under kind=shared with the per-query estimate withheld — it belongs
// to neither query alone.
func (e *inflightEntry) applyFlow(ev wire.FlowEvent, shared bool) {
	key := flowKey{qid: ev.QID, task: ev.Task}
	e.mu.Lock()
	fl := e.flows[key]
	if fl == nil {
		fl = &EdgeFlow{QID: ev.QID, Task: ev.Task, Rel: ev.Rel, Kind: "unknown", From: ev.From, To: ev.To}
		if am := e.attempts[ev.QID]; am != nil {
			if ev.Task == am.root {
				fl.Kind = "result"
			} else if m, ok := am.edges[ev.Task]; ok {
				fl.Kind, fl.EstRows = m.kind, m.est
			}
		}
		e.flows[key] = fl
	}
	if shared && fl.Kind != "shared" {
		fl.Kind = "shared"
		fl.EstRows = 0
	}
	fl.Rows += ev.Rows
	fl.Bytes += ev.Bytes
	fl.Frames++
	fl.Done = fl.Done || ev.EOS
	kind := fl.Kind
	e.mu.Unlock()

	met.edgeRows.With(kind).Add(ev.Rows)
	met.edgeBytes.With(kind).Add(ev.Bytes)
}

// flowObserved returns the observed rows of one attempt's task pull, and
// whether its consumer read the whole stream.
func (e *inflightEntry) flowObserved(qid int64, task int) (int64, bool) {
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	fl := e.flows[flowKey{qid: qid, task: task}]
	// A shared stream's counters span every query contending for the
	// qid, so its total is not this query's cardinality — refuse to
	// report it rather than feed a cross-query sum into stats feedback.
	if fl == nil || !fl.Done || fl.Kind == "shared" {
		return 0, false
	}
	return fl.Rows, true
}

// flowsSnapshot copies the entry's per-edge flows, sorted by attempt,
// task, then stream kind.
func (e *inflightEntry) flowsSnapshot() []EdgeFlow {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	out := make([]EdgeFlow, 0, len(e.flows))
	for _, fl := range e.flows {
		out = append(out, *fl)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].QID != out[j].QID {
			return out[i].QID < out[j].QID
		}
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Rel < out[j].Rel
	})
	return out
}

// snapshot renders the entry as its public form.
func (e *inflightEntry) snapshot() InflightQuery {
	e.mu.Lock()
	q := InflightQuery{
		ID:        e.id,
		SQL:       e.sql,
		Phase:     e.phase,
		Elapsed:   time.Since(e.start),
		PlanShape: e.shape,
		Breakdown: e.bd,
	}
	e.mu.Unlock()
	q.Edges = e.flowsSnapshot()
	return q
}

// inflightRegistry is one System's set of admitted, unfinished queries.
type inflightRegistry struct {
	mu      sync.Mutex
	entries map[int64]*inflightEntry
}

func newInflightRegistry() *inflightRegistry {
	return &inflightRegistry{entries: map[int64]*inflightEntry{}}
}

// register admits one query into the registry.
func (r *inflightRegistry) register(sql string) *inflightEntry {
	ent := &inflightEntry{
		id:       nextQID(),
		sql:      sql,
		start:    time.Now(),
		phase:    "admitted",
		attempts: map[int64]*attemptMeta{},
		flows:    map[flowKey]*EdgeFlow{},
	}
	r.mu.Lock()
	r.entries[ent.id] = ent
	r.mu.Unlock()
	return ent
}

// deregister removes the entry and unroutes its qids. An entry that lost
// a qid to a later registrant (shared warm deployment) leaves that route
// alone. Nil-safe; idempotent.
func (r *inflightRegistry) deregister(ent *inflightEntry) {
	if ent == nil {
		return
	}
	r.mu.Lock()
	delete(r.entries, ent.id)
	r.mu.Unlock()
	ent.mu.Lock()
	qids := append([]int64(nil), ent.qids...)
	ent.mu.Unlock()
	if len(qids) == 0 {
		return
	}
	flowRouter.Lock()
	for _, q := range qids {
		if flowRouter.m[q] == ent {
			delete(flowRouter.m, q)
			delete(flowRouter.shared, q)
		}
	}
	flowRouter.Unlock()
}

// size returns the number of registered queries.
func (r *inflightRegistry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// list snapshots the registered entries.
func (r *inflightRegistry) list() []*inflightEntry {
	r.mu.Lock()
	out := make([]*inflightEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	return out
}

// Inflight returns a coherent snapshot of every query currently admitted
// to this System — id, SQL, phase, plan shape, budgets spent, elapsed
// time, and per-edge live flow counters — sorted by registration order.
func (s *System) Inflight() []InflightQuery {
	ents := s.inflight.list()
	out := make([]InflightQuery, 0, len(ents))
	for _, e := range ents {
		out = append(out, e.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// handleDebugQueries serves the in-flight snapshot: JSON by default,
// plain text with ?format=text.
func (s *System) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	qs := s.Inflight()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, FormatInflight(qs))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(qs)
}

// FormatInflight renders an in-flight snapshot for a terminal — the
// rendering behind /debug/queries?format=text and cmd/xdb -inspect.
func FormatInflight(qs []InflightQuery) string {
	if len(qs) == 0 {
		return "no queries in flight\n"
	}
	var b strings.Builder
	for _, q := range qs {
		fmt.Fprintf(&b, "#%d [%s] %s (elapsed %v", q.ID, q.Phase, truncateSQL(q.SQL),
			q.Elapsed.Round(time.Millisecond))
		q.Breakdown.facts(func(name string, value any) { fmt.Fprintf(&b, ", %s=%v", name, value) })
		b.WriteString(")\n")
		if q.PlanShape != "" {
			fmt.Fprintf(&b, "  plan: %s (attempt %d)\n", q.PlanShape, q.Replans+1)
		}
		for _, f := range q.Edges {
			state := "streaming"
			if f.Done {
				state = "done"
			}
			route := ""
			if f.From != "" || f.To != "" {
				route = fmt.Sprintf(" %s->%s", f.From, f.To)
			}
			est := ""
			if f.EstRows > 0 {
				est = fmt.Sprintf(" est %.0f", f.EstRows)
			}
			fmt.Fprintf(&b, "  edge %s (%s%s):%s rows %d, %.1f KB, %d frames [%s]\n",
				f.Rel, f.Kind, route, est, f.Rows, float64(f.Bytes)/1024, f.Frames, state)
		}
	}
	return b.String()
}
