package planner

import (
	"fmt"
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
	ann    *Annotation
	tasks  []*Task
	edges  []*Edge
	nextID int
	// readAbove maps every operator of the uncut tree to the columns read
	// above it (see noteReads).
	readAbove map[Op]*readSet
}

// readSet is the qualified columns one operator reads, linked to the set
// of its parent: a set and those up its chain are what is read above the
// operator's children. A child shares its parent's set, never a copy.
type readSet struct {
	cols []sqlparser.ColumnRef // copies: the cut rewrites the plan's references
	up   *readSet
}

// has reports whether alias.col is read in the set or up its chain.
func (r *readSet) has(alias, col string) bool {
	for ; r != nil; r = r.up {
		for i := range r.cols {
			if c := &r.cols[i]; strings.EqualFold(c.Name, col) && strings.EqualFold(c.Table, alias) {
				return true
			}
		}
	}
	return false
}

// Finalize cuts the analyzed query's logical plan root, annotated by ann,
// into a delegation plan.
func Finalize(a *Analysis, root Op, ann *Annotation) *Plan {
	f := &finalizer{ann: ann, nextID: 1, readAbove: map[Op]*readSet{}}
	f.noteReads(root, nil)
	rootTask := f.makeTask(root)
	return &Plan{
		Root:  rootTask,
		Tasks: f.tasks,
		Edges: f.edges,
		Scans: a.Scans,
	}
}

// noteReads is projection pushdown across task boundaries: a top-down pass
// over the uncut tree recording, for every operator, the columns read above
// it — what a task cut there must export. A Final reads its block's
// columns; a Join reads its keys and residuals and passes on what its
// parent reads. A scan's filter runs inside the scan, so a column only the
// filter uses is read by nothing above it.
func (f *finalizer) noteReads(op Op, above *readSet) {
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
	in := &readSet{up: above}
	for _, e := range reads {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
			// A bare name is a projection alias.
			if c, ok := x.(*sqlparser.ColumnRef); ok && c.Table != "" {
				in.cols = append(in.cols, *c)
			}
		})
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
	var types []sqltypes.Type
	export := func(alias, col string, t sqltypes.Type) {
		cols = append(cols, alias+"."+col)
		types = append(types, t)
	}
	reads := f.readAbove[child]
	eachOut(child, func(alias, col string, t sqltypes.Type) {
		if reads.has(alias, col) {
			export(alias, col, t)
		}
	})
	if len(cols) == 0 {
		// Keep at least one column so the relation renders.
		eachOut(child, func(alias, col string, t sqltypes.Type) {
			if len(cols) == 0 {
				export(alias, col, t)
			}
		})
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
	childTask.exports = cols
	t.Inputs = append(t.Inputs, edge)
	f.edges = append(f.edges, edge)
	return ph
}

// eachOut calls fn with every output column of op, in OutCols order: its
// alias, its bare name and its type. A scan's columns have their table's
// types, a placeholder's the types its task exports.
func eachOut(op Op, fn func(alias, col string, t sqltypes.Type)) {
	switch o := op.(type) {
	case *Scan:
		for _, c := range o.Cols {
			fn(o.Alias, c, o.colType(c))
		}
	case *Placeholder:
		for i, c := range o.Cols {
			alias, col, _ := strings.Cut(c, ".")
			fn(alias, col, o.Types[i])
		}
	case *Join:
		eachOut(o.L, fn)
		eachOut(o.R, fn)
	}
}

// colType is the type of the scan's column c, NULL if its table has none.
func (s *Scan) colType(c string) sqltypes.Type {
	if i, ok := s.Schema.Find("", c); ok {
		return s.Schema.Columns[i].Type
	}
	return sqltypes.TypeNull
}
