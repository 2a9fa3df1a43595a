package core

import (
	"fmt"
	"strings"
	"time"

	"xdb/internal/obs"
)

// EXPLAIN ANALYZE: the executed delegation plan annotated with what the
// wire actually observed. The planner's half (tasks, movements,
// estimates) comes from Result.Plan; the observed half (per-edge rows,
// bytes, frames) from the flow accounting in Result.Flows; the timing
// half from the query's record (Breakdown) and, when tracing was on, the
// per-DDL spans of Result.Trace.

// Analyze renders the executed plan with estimated vs observed
// cardinalities per edge, per-edge wire volume, phase timings, and the
// replan/failover verdicts — the plan and the flame tree joined in one
// artifact.
func (r *Result) Analyze() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	b.WriteString("EXPLAIN ANALYZE\n")

	// Index the executed attempt's flows by producing task.
	byTask := map[int]EdgeFlow{}
	for _, f := range r.Flows {
		if f.QID == r.QID { // not a retired attempt's stream
			byTask[f.Task] = f
		}
	}

	if r.Plan != nil && r.Plan.Root != nil {
		fmt.Fprintf(&b, "tasks (%d, root t%d on %s):\n", len(r.Plan.Tasks), r.Plan.Root.ID, r.Plan.Root.Node)
		for _, t := range r.Plan.Tasks {
			fmt.Fprintf(&b, "  t%d on %s\n", t.ID, t.Node)
		}
		if len(r.Plan.Edges) > 0 {
			b.WriteString("edges (est vs observed):\n")
			for _, e := range r.Plan.Edges {
				fmt.Fprintf(&b, "  t%d --%s--> t%d [%s -> %s]: %d cols, est %.0f rows",
					e.From.ID, e.Move, e.To.ID, e.From.Node, e.To.Node, len(e.Placeholder.Cols), e.EstRows)
				if f, ok := byTask[e.From.ID]; ok && (f.FramesRecv > 0 || f.FramesSent > 0) {
					fmt.Fprintf(&b, ", actual %d rows%s, %s over %d frames",
						f.Rows(), divergenceVerdict(e.EstRows, float64(f.Rows())),
						formatKB(f.Bytes()), f.FramesRecv+f.FramesSent)
					if !f.Done {
						b.WriteString(" (stream not drained)")
					}
				} else {
					b.WriteString(", not observed (reused materialization or unexecuted)")
				}
				b.WriteString("\n")
			}
		}
		if root, ok := byTask[r.Plan.Root.ID]; ok {
			fmt.Fprintf(&b, "result delivery: t%d [%s -> client]: %d rows, %s\n",
				r.Plan.Root.ID, r.RootNode, root.Rows(), formatKB(root.Bytes()))
		}
	}

	if r.Trace != nil {
		var ddls []string
		r.Trace.Walk(func(_ int, sp *obs.Span) {
			if sp.Name() != "ddl" {
				return
			}
			line := fmt.Sprintf("  %s %s on %s: %v", sp.Attr("kind"), sp.Attr("object"),
				sp.Attr("node"), sp.Duration().Round(time.Microsecond))
			if e := sp.Err(); e != "" {
				line += " (error: " + e + ")"
			}
			ddls = append(ddls, line)
		})
		if len(ddls) > 0 {
			fmt.Fprintf(&b, "ddl timings (%d statements):\n%s\n", len(ddls), strings.Join(ddls, "\n"))
		}
	}

	b.WriteString(r.Breakdown.Summary())
	return b.String()
}

// divergenceVerdict renders the est-vs-actual ratio annotation: empty
// when they agree within 10%, else the factor and direction.
func divergenceVerdict(est, actual float64) string {
	if est <= 0 {
		return ""
	}
	if actual < 1 {
		actual = 1
	}
	r := actual / est
	switch {
	case r > 1.1:
		return fmt.Sprintf(" (%.1fx underestimated)", r)
	case r < 0.9:
		return fmt.Sprintf(" (%.1fx overestimated)", 1/r)
	}
	return ""
}

// formatKB renders a byte count for humans.
func formatKB(n int64) string {
	if n < 4096 {
		return fmt.Sprintf("%d B", n)
	}
	return fmt.Sprintf("%.1f KB", float64(n)/1024)
}
