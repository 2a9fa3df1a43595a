package wire

import (
	"context"
	"sync"
	"testing"

	"xdb/internal/engine"
)

func TestParseStreamRel(t *testing.T) {
	cases := []struct {
		sql  string
		qid  int64
		task int
		rel  string
		ok   bool
	}{
		{"SELECT * FROM xdb12_t3", 12, 3, "xdb12_t3", true},
		{"xdb1_t2", 1, 2, "xdb1_t2", true},
		{"SELECT a, b FROM xdb905_t17 WHERE a > 3", 905, 17, "xdb905_t17", true},
		// First token wins: a stream reading two views attributes to the
		// relation it scans first.
		{"SELECT * FROM xdb1_t2 JOIN xdb1_t3 ON x = y", 1, 2, "xdb1_t2", true},
		// A foreign table is read by its consumer's view, never streamed.
		{"SELECT COUNT(*) FROM xdb7_ft2", 0, 0, "", false},
		// Identifier-boundary rejections.
		{"SELECT * FROM myxdb1_t2", 0, 0, "", false},
		{"SELECT * FROM xdb1_t2x", 0, 0, "", false},
		{"SELECT * FROM xdb1_t2_extra", 0, 0, "", false},
		// Malformed tokens.
		{"SELECT * FROM t", 0, 0, "", false},
		{"SELECT * FROM xdb_t1", 0, 0, "", false},
		{"SELECT * FROM xdb5_x3", 0, 0, "", false},
		{"SELECT * FROM xdb3_t", 0, 0, "", false},
		{"", 0, 0, "", false},
		// A malformed candidate must not mask a later well-formed one.
		{"SELECT * FROM xdb_bad, xdb4_t1", 4, 1, "xdb4_t1", true},
	}
	for _, c := range cases {
		qid, task, rel, ok := ParseStreamRel(c.sql)
		if qid != c.qid || task != c.task || rel != c.rel || ok != c.ok {
			t.Errorf("ParseStreamRel(%q) = (%d, %d, %q, %v), want (%d, %d, %q, %v)",
				c.sql, qid, task, rel, ok, c.qid, c.task, c.rel, c.ok)
		}
	}
}

// collectSink records flow events for assertions.
type collectSink struct {
	mu  sync.Mutex
	evs []FlowEvent
}

func (c *collectSink) FlowEvent(ev FlowEvent) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *collectSink) forRel(rel string) []FlowEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []FlowEvent
	for _, ev := range c.evs {
		if ev.Rel == rel {
			out = append(out, ev)
		}
	}
	return out
}

// TestFlowAccountingBothEnds streams an attributed relation and checks
// that the client and server observe the same rows, frames, and wire
// bytes, each tagged with its own end.
func TestFlowAccountingBothEnds(t *testing.T) {
	sink := &collectSink{}
	SetFlowSink(sink)
	defer SetFlowSink(nil)

	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "xdb42_t7", 50000)
	c := NewClient("client", nil)
	_, it, err := c.Query(context.Background(), s.Addr(), "db1", "SELECT * FROM xdb42_t7")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 50000 {
		t.Fatalf("rows = %d", len(rows))
	}

	evs := sink.forRel("xdb42_t7")
	type side struct {
		rows, bytes, frames int64
		eosRows             int64
		eos                 bool
	}
	var recv, send side
	for _, ev := range evs {
		if ev.QID != 42 || ev.Task != 7 {
			t.Fatalf("misattributed event: %+v", ev)
		}
		sd := &recv
		if ev.End == FlowSend {
			sd = &send
		}
		sd.bytes += ev.Bytes
		sd.frames += ev.Frame
		if ev.EOS {
			sd.eos = true
			sd.eosRows = ev.Rows
		} else {
			sd.rows += ev.Rows
		}
	}
	for name, sd := range map[string]side{"recv": recv, "send": send} {
		if sd.rows != 50000 {
			t.Errorf("%s batch rows = %d, want 50000", name, sd.rows)
		}
		if !sd.eos || sd.eosRows != 50000 {
			t.Errorf("%s eos = %v rows %d, want total 50000", name, sd.eos, sd.eosRows)
		}
		if sd.frames < 3 { // several row batches plus the EOS frame
			t.Errorf("%s frames = %d, want multiple batches", name, sd.frames)
		}
	}
	// Both ends account the same frames at full wire size, so the byte
	// totals must agree exactly.
	if recv.bytes != send.bytes || recv.bytes == 0 {
		t.Errorf("wire bytes recv %d != send %d", recv.bytes, send.bytes)
	}
	// End-specific identity: the consumer knows both nodes, the producer
	// only itself.
	for _, ev := range evs {
		if ev.End == FlowRecv && (ev.From != "db1" || ev.To != "client") {
			t.Fatalf("recv event route = %s -> %s", ev.From, ev.To)
		}
		if ev.End == FlowSend && ev.From != "db1" {
			t.Fatalf("send event producer = %s", ev.From)
		}
	}
}

// TestFlowIgnoresUnattributedStreams checks that SQL without an xdb
// object produces no events even with a sink installed.
func TestFlowIgnoresUnattributedStreams(t *testing.T) {
	sink := &collectSink{}
	SetFlowSink(sink)
	defer SetFlowSink(nil)

	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "plain", 100)
	c := NewClient("client", nil)
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT * FROM plain"); err != nil {
		t.Fatal(err)
	}
	if evs := sink.forRel("plain"); len(evs) != 0 {
		t.Fatalf("unattributed stream produced %d events", len(evs))
	}
	sink.mu.Lock()
	n := len(sink.evs)
	sink.mu.Unlock()
	if n != 0 {
		t.Fatalf("expected no events at all, got %d", n)
	}
}
