package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one harness-side span: a timed call into a layer, recorded
// around the call from the benchmark's own code. Nothing inside the
// program is touched, so the tree stops at the query.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	QID    int64  `json:"qid,omitempty"` // the program's query id, where one exists
	Start  int64  `json:"start_ns"`      // since the recorder was created
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part child spans cover
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, which is how the untraced rounds run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// finish closes the span, tagging it with the program's query id.
func (t *tracer) finish(id int, qid int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].QID = qid
	t.mu.Unlock()
}

// do records fn as a span and returns how long it took.
func (t *tracer) do(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent)
	begin := time.Now()
	fn()
	d := time.Since(begin)
	t.finish(id, 0)
	return d
}

// selfTimes fills every span's Self: its duration minus the union of its
// children's intervals (children of the round span overlap, one per
// client, so a plain sum would go negative).
func selfTimes(spans []span) {
	children := map[int][]int{}
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	for i := range spans {
		kids := children[spans[i].ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), spans[i].Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		spans[i].Self = spans[i].End - spans[i].Start - covered
	}
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
