package wire

import (
	"context"
	"sync"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
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

// TestFlowAccountingAtConsumer streams an attributed relation and checks
// that the receiving client reports every frame it read, once: the row
// batches sum to the stream's rows, the end frame comes last with no rows,
// and the frame bytes are what the stream received after its schema frame.
func TestFlowAccountingAtConsumer(t *testing.T) {
	sink := &collectSink{}
	SetFlowSink(sink)
	defer SetFlowSink(nil)

	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "xdb42_t7", 50000)
	c := NewClient("client", nil)
	schema, it, err := c.Query(context.Background(), s.Addr(), "db1", "SELECT * FROM xdb42_t7")
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
	// The server is done with the stream once Close has waited for its
	// connections, so any event it could emit has been emitted.
	s.Close()

	evs := sink.forRel("xdb42_t7")
	var batchRows, bytes int64
	for i, ev := range evs {
		if ev.QID != 42 || ev.Task != 7 || ev.From != "db1" || ev.To != "client" {
			t.Fatalf("misattributed event: %+v", ev)
		}
		if ev.EOS != (i == len(evs)-1) {
			t.Fatalf("event %d of %d: EOS=%v, want the end frame last and only there", i, len(evs), ev.EOS)
		}
		if ev.EOS && ev.Rows != 0 {
			t.Errorf("end frame carries %d rows, want 0", ev.Rows)
		}
		batchRows += ev.Rows
		bytes += ev.Bytes
	}
	if batchRows != 50000 {
		t.Errorf("batch rows = %d, want 50000", batchRows)
	}
	if len(evs) < 3 { // several row batches plus the end frame
		t.Errorf("frames = %d, want multiple batches", len(evs))
	}
	schemaFrame := int64(frameHeader + len(sqltypes.AppendSchema(nil, schema)))
	if want := ReceivedBytes(it) - schemaFrame; bytes != want {
		t.Errorf("flow bytes = %d, want the %d B the stream received after its schema frame", bytes, want)
	}
}

// TestFlowEarlyCloseReportsNoEnd reads one batch of a 3 000-row attributed
// stream and closes it. The flow is the consumer's one frame: nothing the
// server went on to send, and no end frame, so no one can take the stream
// for a drained one.
func TestFlowEarlyCloseReportsNoEnd(t *testing.T) {
	sink := &collectSink{}
	SetFlowSink(sink)
	defer SetFlowSink(nil)

	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "xdb42_t7", 3000)
	c := NewClient("client", nil)
	_, it, err := c.Query(context.Background(), s.Addr(), "db1", "SELECT * FROM xdb42_t7")
	if err != nil {
		t.Fatal(err)
	}
	b, err := it.Next()
	if err != nil {
		t.Fatal(err)
	}
	read := int64(len(b.Rows))
	if read == 0 || read >= 3000 {
		t.Fatalf("first batch has %d rows, want part of the stream", read)
	}
	it.Close()
	s.Close() // waits for the server's side of the stream

	evs := sink.forRel("xdb42_t7")
	if len(evs) != 1 || evs[0].EOS || evs[0].Rows != read {
		t.Fatalf("events %+v, want exactly the consumer's one frame of %d rows and no end frame", evs, read)
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
