package wire

import (
	"sync/atomic"
)

// Flow accounting attributes wire result streams to delegation-plan
// edges. Every stream the middleware cascade produces reads exactly one
// deployed xdb view — an FDW pull or an explicit-FT materialization fetch
// reads the producing task's view (xdb<qid>_t<task>), and the root fetch
// reads the root task's view — so parsing that one relation token out of
// the stream's SQL recovers (qid, task) with no protocol change. A stream
// is counted once, by the Client that receives it: the consumer knows
// both nodes and sees exactly the frames it read, so a stream it stops
// reading early has no end frame. Frames that carry no xdb token (consult
// probes, baseline systems, user traffic) are not flow events.
//
// The sink is process-wide and installed once by the core package; a nil
// sink (tests exercising wire alone, baseline mediators) reduces the
// whole layer to one atomic load per stream.

// FlowEvent is one received frame of an attributed result stream: a row
// batch with its row count, or the end frame (EOS set, Rows 0). Bytes is
// the frame's full wire size, header included.
type FlowEvent struct {
	QID   int64  // query id parsed from the xdb object name
	Task  int    // producing task id
	Rel   string // the parsed relation token, e.g. "xdb12_t3"
	From  string // producer node
	To    string // consumer node
	Rows  int64  // rows in this batch; 0 for the end frame
	Bytes int64  // wire bytes of this frame including the 5-byte header
	EOS   bool
}

// FlowSink receives flow events. Implementations must be safe for
// concurrent use and cheap: events fire on the row-streaming hot path.
type FlowSink interface {
	FlowEvent(FlowEvent)
}

type flowSinkBox struct{ sink FlowSink }

var flowSink atomic.Pointer[flowSinkBox]

// SetFlowSink installs the process-wide flow sink (nil uninstalls it).
// Later calls replace earlier ones; in-flight streams keep the sink they
// started with.
func SetFlowSink(s FlowSink) {
	if s == nil {
		flowSink.Store(nil)
		return
	}
	flowSink.Store(&flowSinkBox{sink: s})
}

func currentFlowSink() FlowSink {
	box := flowSink.Load()
	if box == nil {
		return nil
	}
	return box.sink
}

// ParseStreamRel extracts the first xdb<qid>_t<task> relation token from a
// query's SQL. ok is false when the SQL references no deployed xdb view
// (the stream is then unattributable and not flow-accounted).
func ParseStreamRel(sql string) (qid int64, task int, rel string, ok bool) {
	for i := 0; i+5 < len(sql); i++ {
		if sql[i] != 'x' || sql[i+1] != 'd' || sql[i+2] != 'b' {
			continue
		}
		if i > 0 && isIdentChar(sql[i-1]) {
			continue // inside a longer identifier, e.g. myxdb1_t2
		}
		j := i + 3
		start := j
		var q int64
		for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
			q = q*10 + int64(sql[j]-'0')
			j++
		}
		if j == start || j >= len(sql) || sql[j] != '_' {
			continue
		}
		j++
		if j >= len(sql) || sql[j] != 't' {
			continue
		}
		j++
		tstart := j
		t := 0
		for j < len(sql) && sql[j] >= '0' && sql[j] <= '9' {
			t = t*10 + int(sql[j]-'0')
			j++
		}
		if j == tstart {
			continue
		}
		if j < len(sql) && isIdentChar(sql[j]) {
			continue // trailing identifier chars: not one of ours
		}
		return q, t, sql[i:j], true
	}
	return 0, 0, "", false
}

func isIdentChar(b byte) bool {
	return b == '_' || b >= '0' && b <= '9' ||
		b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// streamFlow carries one stream's attribution so per-frame accounting is
// a copy of the template and an interface call. A nil *streamFlow is a
// no-op.
type streamFlow struct {
	sink FlowSink
	ev   FlowEvent // template: identity fields filled, counters zero
}

// newStreamFlow attributes a stream about to start, or returns nil when
// no sink is installed or the SQL references no xdb object.
func newStreamFlow(sql, from, to string) *streamFlow {
	sink := currentFlowSink()
	if sink == nil {
		return nil
	}
	qid, task, rel, ok := ParseStreamRel(sql)
	if !ok {
		return nil
	}
	return &streamFlow{sink: sink, ev: FlowEvent{
		QID: qid, Task: task, Rel: rel, From: from, To: to,
	}}
}

// frame records one received frame: a row batch, or the end frame.
func (f *streamFlow) frame(rows, wireBytes int, eos bool) {
	if f == nil {
		return
	}
	ev := f.ev
	ev.Rows = int64(rows)
	ev.Bytes = int64(wireBytes)
	ev.EOS = eos
	f.sink.FlowEvent(ev)
}
