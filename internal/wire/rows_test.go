package wire

import (
	"context"
	"net"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/sqltypes"
)

// TestRowsStreamShipsNoSchema: a rows-only stream (Client.Rows, what an
// FDW reads a foreign table with) is the schema-led stream less its schema
// frame, and its first frame settles the connection as a schema frame
// would: an error frame or an empty result's end frame leaves it pooled.
func TestRowsStreamShipsNoSchema(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 3000)
	topo := netsim.Unshaped("client", "db1")
	c := NewClient("client", topo)
	defer c.Close()
	ctx := context.Background()

	it, err := c.Rows(ctx, s.Addr(), "db1", "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := engine.Drain(it)
	if err != nil || len(rows) != 3000 || len(rows[0]) != 2 {
		t.Fatalf("%d rows, err %v", len(rows), err)
	}
	schema, led, err := c.Query(ctx, s.Addr(), "db1", "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Drain(led); err != nil {
		t.Fatal(err)
	}
	if extra := ReceivedBytes(led) - ReceivedBytes(it); extra != int64(frameHeader+len(sqltypes.AppendSchema(nil, schema))) {
		t.Errorf("the schema-led stream received %d B more than the rows-only one", extra)
	}
	if got := topo.Ledger().Between("db1", "client"); got != ReceivedBytes(it)+ReceivedBytes(led) {
		t.Errorf("ledger db1->client %d B, the two streams received %d B", got, ReceivedBytes(it)+ReceivedBytes(led))
	}

	if _, err := c.Rows(ctx, s.Addr(), "db1", "SELECT * FROM missing"); err == nil {
		t.Error("a rows-only stream of a missing table opened")
	}
	empty, err := c.Rows(ctx, s.Addr(), "db1", "SELECT * FROM t WHERE id < 0")
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := engine.Drain(empty); err != nil || len(rows) != 0 {
		t.Errorf("empty result: %d rows, err %v", len(rows), err)
	}
	if ts := c.Transport(); ts.Dials != 1 || ts.Reuses != 3 {
		t.Errorf("four streams took %d dials and %d reuses, want 1 and 3", ts.Dials, ts.Reuses)
	}
}

// TestRowsStreamCorruptFirstFrameDiscardsConn: a rows-only stream whose
// first frame does not decode fails its first Next and closes the
// connection instead of pooling it.
func TestRowsStreamCorruptFirstFrameDiscardsConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, err := readFrame(conn); err == nil {
			writeFrame(conn, msgRows, []byte{0x80}) // a truncated row count
			conn.Read(make([]byte, 1))              // held open: only the decode can fail
		}
	}()
	c := NewClient("client", nil)
	it, err := c.Rows(context.Background(), ln.Addr().String(), "db1", "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Drain(it); err == nil {
		t.Fatal("a corrupt first frame drained cleanly")
	}
	c.Close()
	if ts := c.Transport(); ts.Dials != 1 || ts.Closes != 1 || ts.Reuses != 0 {
		t.Errorf("dials %d, closes %d, reuses %d; want the one connection closed", ts.Dials, ts.Closes, ts.Reuses)
	}
}
