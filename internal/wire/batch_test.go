package wire

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/netsim"
)

// TestBatchRunsEveryItemInOrder: a batch is one frame each way, the server
// runs all of its items in order — a failing one does not stop the ones
// after it — and every item gets its own ordinary response.
func TestBatchRunsEveryItemInOrder(t *testing.T) {
	_, s := newServedEngine(t, "db1", engine.VendorTest)
	topo := netsim.Unshaped("client", "db1")
	c := NewClient("client", topo)
	defer c.Close()

	var b Batch
	b.Exec("CREATE TABLE b (a BIGINT)")
	b.Exec("DROP TABLE nosuch")
	b.Exec("INSERT INTO b VALUES (1), (2)")
	b.Stats("b")
	b.TableSchema("b")
	b.Cost(engine.CostScan, 100, 0, 0)
	b.Explain("SELECT * FROM b")
	b.Sample("b", "b", "", 10)
	b.add(msgQuery, []byte("\x00SELECT * FROM b")) // a client cannot say this; a hostile one can
	b.add(msgBatch, appendBatch(nil, nil))
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	led := topo.Ledger()
	out, in, reqs := led.FramesBetween("client", "db1"), led.FramesBetween("db1", "client"), c.Transport()
	replies, err := c.Do(context.Background(), s.Addr(), "db1", &b)
	if err != nil {
		t.Fatal(err)
	}
	after := c.Transport()
	if got := (after.Dials + after.Reuses) - (reqs.Dials + reqs.Reuses); got != 1 {
		t.Errorf("%d requests, want 1", got)
	}
	if o, i := led.FramesBetween("client", "db1")-out, led.FramesBetween("db1", "client")-in; o != 1 || i != 1 {
		t.Errorf("ledger frames out/in = %d/%d, want 1/1", o, i)
	}

	if err := replies[0].Err(); err != nil {
		t.Errorf("CREATE: %v", err)
	}
	if err := replies[1].Err(); err == nil || !strings.Contains(err.Error(), "remote db1") {
		t.Errorf("DROP of a missing table = %v, want the remote's error", err)
	}
	if err := replies[2].Err(); err != nil {
		t.Errorf("INSERT after the failed item: %v", err)
	}
	if st, err := replies[3].Stats(); err != nil || st.RowCount != 2 {
		t.Errorf("Stats = %+v, %v; want the 2 rows inserted by the item before it", st, err)
	}
	if sch, err := replies[4].TableSchema(); err != nil || sch.Len() != 1 {
		t.Errorf("TableSchema = %v, %v", sch, err)
	}
	single, err := c.Cost(context.Background(), s.Addr(), "db1", engine.CostScan, 100, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := replies[5].Cost(); err != nil || v != single {
		t.Errorf("Cost = %v, %v; alone it is %v", v, err, single)
	}
	if info, err := replies[6].Explain(); err != nil || info.Rows != 2 {
		t.Errorf("Explain = %+v, %v", info, err)
	}
	if res, err := replies[7].Sample(); err != nil || res.Scanned != 2 {
		t.Errorf("Sample = %+v, %v", res, err)
	}
	for _, i := range []int{8, 9} {
		if err := replies[i].Err(); err == nil || !strings.Contains(err.Error(), "cannot ride in a batch") {
			t.Errorf("item %d (a stream, a nested batch) = %v, want it refused", i, err)
		}
	}
	// An accessor for the wrong request reports the mismatch, not garbage.
	if _, err := replies[0].Cost(); err == nil {
		t.Error("an OK frame decoded as a cost")
	}
}

// TestBatchRetriesOnlyWhenIdempotent: the server takes the batch and drops
// the connection without answering. A batch of probes is retried like the
// probes it is made of; a batch holding one Exec is not — its statements
// may have run.
func TestBatchRetriesOnlyWhenIdempotent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var seen atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if typ, _, _, err := readFrame(conn); err == nil && typ == msgBatch {
					seen.Add(1)
				}
			}(conn)
		}
	}()
	c := NewClient("client", nil)
	defer c.Close()

	var probes Batch
	probes.Cost(engine.CostScan, 10, 0, 0)
	probes.Stats("t")
	if _, err := c.Do(context.Background(), ln.Addr().String(), "db1", &probes); err == nil {
		t.Fatal("a batch nobody answered succeeded")
	}
	if got := seen.Load(); got != 1+DefaultMaxRetries {
		t.Errorf("server saw the probe batch %d times, want %d (retried)", got, 1+DefaultMaxRetries)
	}

	seen.Store(0)
	var script Batch
	script.Stats("t")
	script.Exec("CREATE TABLE x (a BIGINT)")
	if _, err := c.Do(context.Background(), ln.Addr().String(), "db1", &script); err == nil {
		t.Fatal("a script nobody answered succeeded")
	}
	if got := seen.Load(); got != 1 {
		t.Errorf("server saw the script %d times, want exactly 1 (never retried)", got)
	}
}

// TestForeignTablePlansWithoutItsProducer: a view over a foreign table is
// created, explained and asked for statistics through the wire while the
// foreign server's address has nobody listening — planning uses the
// declared row estimate and the FDW dials nothing.
func TestForeignTablePlansWithoutItsProducer(t *testing.T) {
	e, s := newServedEngine(t, "db2", engine.VendorTest)
	fdw := NewClient("db2", nil)
	defer fdw.Close()
	e.SetRemote(&FDW{Client: fdw})
	c := NewClient("client", nil)
	defer c.Close()

	var b Batch
	b.Exec("CREATE SERVER gone FOREIGN DATA WRAPPER xdb OPTIONS (host '127.0.0.1', port '1', node 'db1')")
	b.Exec("CREATE FOREIGN TABLE ft (id BIGINT) SERVER gone OPTIONS (table_name 'xdb1_t1', rows '6696')")
	b.Exec("CREATE VIEW v AS SELECT f.id FROM ft f")
	b.Explain("SELECT * FROM v")
	b.Stats("ft")
	replies, err := c.Do(context.Background(), s.Addr(), "db2", &b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := replies[i].Err(); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}
	if info, err := replies[3].Explain(); err != nil || info.Rows != 6696 {
		t.Errorf("EXPLAIN = %+v, %v; want the declared 6696 rows", info, err)
	}
	if st, err := replies[4].Stats(); err != nil || st.RowCount != 6696 {
		t.Errorf("Stats = %+v, %v; want the declared 6696 rows", st, err)
	}
	if ts := fdw.Transport(); ts.Dials != 0 {
		t.Errorf("planning dialed the producer %d times", ts.Dials)
	}
	// Scanning is what binds it to the producer — and here fails on it.
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db2", "SELECT * FROM v"); err == nil {
		t.Error("scanning a foreign table of an unreachable server succeeded")
	}
}
