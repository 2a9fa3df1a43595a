// Package obs is the middleware's observability substrate: a lightweight
// span tree for per-query delegation tracing and a process-wide metrics
// registry with a Prometheus-text-format exposition handler. It depends
// only on the standard library.
//
// Tracing is carried on the query context. When no span rides the
// context, every instrumentation point is a nil-receiver no-op that
// allocates nothing, so the disabled path stays free on hot paths:
//
//	ctx, sp := obs.Start(ctx, "prep") // sp == nil when tracing is off
//	defer sp.Finish()
//
// The finished tree renders as a flame-style text profile (Span.String)
// or exports as JSON (Span.JSON) for external tooling.
package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span is one timed node of a query's trace tree: a lifecycle phase
// (admission, prep, annotation, ...), one consultation probe, one
// deployed DDL statement, the execution stream, or the cleanup sweep.
// Spans record wall time, row/byte volumes where known, free-form
// attributes, and the error outcome. A nil *Span is a valid no-op
// receiver for every method, which is how disabled tracing costs
// nothing. Spans are safe for concurrent use: sibling spans may start
// and finish from concurrent goroutines (the delegation fan-out).
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []Attr
	rows     int64
	err      string
	children []*Span
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// NewSpan starts a root span.
func NewSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a child span. On a nil receiver it returns nil, so
// instrumentation can chain unconditionally.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Finish closes the span at now. Finishing an already-finished span is a
// no-op, so a deferred Finish composes with FinishAll.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// FinishAll closes the span and every still-open descendant at the same
// instant. It is the root's safety net: however a query ends — success,
// error, cancellation mid-deployment — the exposed tree has no orphan
// open spans.
func (s *Span) FinishAll() {
	if s == nil {
		return
	}
	now := time.Now()
	s.finishAllAt(now)
}

func (s *Span) finishAllAt(now time.Time) {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.finishAllAt(now)
	}
}

// Set attaches (or overwrites) a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetErr records the span's error outcome (nil clears nothing and is a
// no-op, so call sites can pass the error unconditionally).
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// AddRows adds to the span's row volume.
func (s *Span) AddRows(n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rows += n
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start returns when the span started.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// End returns when the span finished (zero while still open).
func (s *Span) End() time.Time {
	if s == nil {
		return time.Time{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// Duration returns the span's wall time; for a still-open span, the time
// elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// Err returns the recorded error message ("" when none).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Attr returns the value of one attribute ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Rows returns the span's recorded row volume.
func (s *Span) Rows() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Children returns a snapshot of the span's children in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Walk visits the span and its descendants depth-first, pre-order.
func (s *Span) Walk(fn func(depth int, sp *Span)) {
	if s == nil {
		return
	}
	s.walk(0, fn)
}

func (s *Span) walk(depth int, fn func(int, *Span)) {
	fn(depth, s)
	for _, c := range s.Children() {
		c.walk(depth+1, fn)
	}
}

// Count returns the number of spans in the tree whose name matches (all
// spans when name is empty).
func (s *Span) Count(name string) int {
	n := 0
	s.Walk(func(_ int, sp *Span) {
		if name == "" || sp.Name() == name {
			n++
		}
	})
	return n
}

// Find returns the first span in the tree with the given name (depth-
// first), or nil.
func (s *Span) Find(name string) *Span {
	var found *Span
	s.Walk(func(_ int, sp *Span) {
		if found == nil && sp.Name() == name {
			found = sp
		}
	})
	return found
}

// String renders the tree as a flame-style text profile: one line per
// span with its duration, share of the root's wall time, a proportional
// bar, and its attributes.
//
//	query                              5.2ms 100% ████████████████████
//	  prep                             1.1ms  21% ████
//	  annotate                         2.0ms  38% ███████  probes=4
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	const barWidth = 20
	root := s.Duration()
	if root <= 0 {
		root = 1
	}
	// First pass: measure the name column.
	nameWidth := 0
	s.Walk(func(depth int, sp *Span) {
		if w := 2*depth + len(sp.Name()); w > nameWidth {
			nameWidth = w
		}
	})
	var b strings.Builder
	s.Walk(func(depth int, sp *Span) {
		d := sp.Duration()
		share := float64(d) / float64(root)
		bar := int(share*barWidth + 0.5)
		if bar > barWidth {
			bar = barWidth
		}
		name := strings.Repeat("  ", depth) + sp.Name()
		fmt.Fprintf(&b, "%-*s %9s %3.0f%% %-*s", nameWidth, name,
			fmtDuration(d), share*100, barWidth, strings.Repeat("█", bar))
		var extras []string
		sp.mu.Lock()
		for _, a := range sp.attrs {
			extras = append(extras, a.Key+"="+a.Value)
		}
		rows, errMsg := sp.rows, sp.err
		open := sp.end.IsZero()
		sp.mu.Unlock()
		if rows > 0 {
			extras = append(extras, fmt.Sprintf("rows=%d", rows))
		}
		if errMsg != "" {
			extras = append(extras, "err="+errMsg)
		}
		if open {
			extras = append(extras, "OPEN")
		}
		if len(extras) > 0 {
			b.WriteString("  ")
			b.WriteString(strings.Join(extras, " "))
		}
		b.WriteByte('\n')
	})
	return b.String()
}

// fmtDuration rounds a duration to a readable precision.
func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// SpanJSON is the exported JSON shape of one span.
type SpanJSON struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationNS int64             `json:"duration_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Rows       int64             `json:"rows,omitempty"`
	Err        string            `json:"err,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// Export converts the tree into its JSON shape.
func (s *Span) Export() SpanJSON {
	if s == nil {
		return SpanJSON{}
	}
	s.mu.Lock()
	out := SpanJSON{
		Name:       s.name,
		Start:      s.start,
		Rows:       s.rows,
		Err:        s.err,
		DurationNS: int64(s.end.Sub(s.start)),
	}
	if s.end.IsZero() {
		out.DurationNS = int64(time.Since(s.start))
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Export())
	}
	return out
}

// JSON marshals the tree.
func (s *Span) JSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	return json.Marshal(s.Export())
}
