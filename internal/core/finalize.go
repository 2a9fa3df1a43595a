package core

import (
	"fmt"
	"maps"
	"strings"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// Plan finalization (Sec. IV-B3): fuse maximal same-annotation subtrees
// into tasks. A modified depth-first post-order traversal compares each
// operator's annotation with its parent's; where they differ, the child
// subtree is cut off into its own task and a placeholder ("?") takes its
// place — exactly the dummy-operator construction of the paper. Fewer
// tasks mean fewer delegation round trips and more room for the local
// optimizers.

// Task is one node of a delegation plan: an algebraic expression (the
// fragment rooted at Root, with Placeholder leaves for inputs produced
// elsewhere) pinned to one DBMS.
type Task struct {
	ID   int
	Node string
	Root Op
	// Inputs are the edges from producing tasks, in placeholder order.
	Inputs []*Edge
	// ViewName is the virtual relation the delegation engine created for
	// this task (set during deployment).
	ViewName string
	// exports are the global column identities the task's virtual relation
	// exports: exactly what its consumer reads (nil for the root task,
	// whose output is its Final block).
	exports []string
}

// String renders the task in the paper's a:expr notation.
func (t *Task) String() string {
	return fmt.Sprintf("%s: %s", t.Node, OpString(t.Root))
}

// Edge is a dataflow operation between tasks: From's output moves to To
// via the given movement.
type Edge struct {
	From, To *Task
	Move     Movement
	// EstRows is the optimizer's cardinality estimate for the moved
	// relation (the #rows column of Table IV).
	EstRows float64
	// Placeholder is the leaf in To's fragment standing for From's
	// output.
	Placeholder *Placeholder
}

// String renders the edge in the paper's "t_i -x-> t_j" notation.
func (e *Edge) String() string {
	return fmt.Sprintf("%s --%s--> %s", e.From, e.Move, e.To.Node)
}

// Plan is a delegation plan: the DAG of tasks (here a tree, since plans
// are left-deep) with its dataflow edges.
type Plan struct {
	Root  *Task
	Tasks []*Task // post-order: producers before consumers
	Edges []*Edge
	// Annotation retains the operator placements for inspection.
	Annotation *Annotation
	// ColTypes maps global column identity to type (used for foreign
	// table DDL during delegation).
	ColTypes map[string]sqltypes.Type
	// Scans are the logical plan's base-table scans: every table the plan
	// read, on the node and with the statistics it was planned from. The
	// plan cache serves the plan only while the catalog still holds them.
	Scans []*Scan
}

// Movements counts the plan's inter-task edges by movement type.
func (p *Plan) Movements() (implicit, explicit int) {
	for _, e := range p.Edges {
		if e.Move == MoveExplicit {
			explicit++
		} else {
			implicit++
		}
	}
	return
}

// String renders the plan's tasks and edges for logging and the Table IV
// report.
func (p *Plan) String() string {
	var b strings.Builder
	for _, t := range p.Tasks {
		fmt.Fprintf(&b, "t%d %s\n", t.ID, t)
	}
	for _, e := range p.Edges {
		fmt.Fprintf(&b, "t%d --%s--> t%d (~%.0f rows)\n", e.From.ID, e.Move, e.To.ID, e.EstRows)
	}
	return b.String()
}

// finalizer builds tasks from an annotated logical plan.
type finalizer struct {
	ann      *Annotation
	colTypes map[string]sqltypes.Type
	tasks    []*Task
	edges    []*Edge
	nextID   int
	// readAbove maps every operator of the uncut tree to the lower-cased
	// global column identities read above it (see noteReads).
	readAbove map[Op]map[string]bool
}

// finalize cuts the annotated logical plan into a delegation plan.
func finalize(root Op, ann *Annotation, colTypes map[string]sqltypes.Type) *Plan {
	f := &finalizer{ann: ann, colTypes: colTypes, nextID: 1,
		readAbove: map[Op]map[string]bool{}}
	f.noteReads(root, nil)
	rootTask := f.makeTask(root)
	return &Plan{
		Root:       rootTask,
		Tasks:      f.tasks,
		Edges:      f.edges,
		Annotation: ann,
		ColTypes:   colTypes,
	}
}

// noteReads is projection pushdown across task boundaries: a top-down pass
// over the uncut tree recording, for every operator, the columns read above
// it — what a task cut there must export. A Final reads its block's
// columns; a Join reads its keys and residuals and passes on what its
// parent reads. A scan's filter runs inside the scan, so a column only the
// filter uses is read by nothing above it.
func (f *finalizer) noteReads(op Op, above map[string]bool) {
	f.readAbove[op] = above
	var kids []Op
	var reads []sqlparser.Expr
	switch o := op.(type) {
	case *Final:
		kids = []Op{o.In}
		for _, p := range o.Sel.Projections {
			reads = append(reads, p.Expr)
		}
		reads = append(append(reads, o.Sel.GroupBy...), o.Sel.Having)
		for _, ob := range o.Sel.OrderBy {
			reads = append(reads, ob.Expr)
		}
	case *Join:
		kids = []Op{o.L, o.R}
		for _, k := range o.Keys {
			reads = append(reads, k.L, k.R)
		}
		reads = append(reads, o.Residual...)
	default:
		return
	}
	in := make(map[string]bool, len(above))
	maps.Copy(in, above)
	for _, e := range reads {
		for _, cr := range sqlparser.ColumnsIn(e) {
			if cr.Table != "" { // a bare name is a projection alias
				in[strings.ToLower(cr.Table+"."+cr.Name)] = true
			}
		}
	}
	for _, k := range kids {
		f.noteReads(k, in)
	}
}

// makeTask builds the task containing op and, transitively, its
// same-annotation descendants; differing descendants become child tasks.
func (f *finalizer) makeTask(op Op) *Task {
	t := &Task{Node: f.ann.Node[op]}
	t.Root = f.absorb(op, t)
	t.ID = f.nextID
	f.nextID++
	f.tasks = append(f.tasks, t)
	return t
}

// absorb walks the fragment, cutting children whose annotation differs.
func (f *finalizer) absorb(op Op, t *Task) Op {
	switch o := op.(type) {
	case *Scan:
		return o
	case *Final:
		o.In = f.absorbChild(o.In, t)
		return o
	case *Join:
		o.L = f.absorbChild(o.L, t)
		o.R = f.absorbChild(o.R, t)
		return o
	default:
		return op
	}
}

func (f *finalizer) absorbChild(child Op, t *Task) Op {
	if f.ann.Node[child] == t.Node {
		return f.absorb(child, t)
	}
	// Cut: the child subtree becomes its own task, replaced by a
	// placeholder carrying the child's exported columns — its output
	// columns, in order, that something above the cut reads.
	childTask := f.makeTask(child)
	move := f.ann.Move[child]
	if move == 0 {
		move = MoveImplicit
	}
	var cols []string
	for _, c := range child.OutCols() {
		if f.readAbove[child][strings.ToLower(c)] {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		// Keep at least one column so the relation renders.
		cols = child.OutCols()[:1]
	}
	types := make([]sqltypes.Type, len(cols))
	for i, c := range cols {
		types[i] = f.colTypes[strings.ToLower(c)]
	}
	ph := &Placeholder{
		ChildTask: childTask.ID,
		Move:      move,
		Cols:      cols,
		Types:     types,
		est:       child.Est(),
		width:     child.Width(),
	}
	edge := &Edge{From: childTask, To: t, Move: move, EstRows: child.Est(), Placeholder: ph}
	childTask.attachParentEdge(edge)
	t.Inputs = append(t.Inputs, edge)
	f.edges = append(f.edges, edge)
	return ph
}

// attachParentEdge records what the task exports: exactly the columns its
// consumer's placeholder declares.
func (t *Task) attachParentEdge(e *Edge) { t.exports = e.Placeholder.Cols }

// collectColTypes builds the global column-type map from the builder's
// scans.
func collectColTypes(b *builder) map[string]sqltypes.Type {
	out := map[string]sqltypes.Type{}
	for _, alias := range b.order {
		s := b.aliases[alias]
		for _, c := range s.Schema.Columns {
			out[strings.ToLower(s.Alias+"."+c.Name)] = c.Type
		}
	}
	return out
}
