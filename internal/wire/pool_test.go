package wire

import (
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
)

// TestPoolReuse: serial RPCs against one server must share one connection.
func TestPoolReuse(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 100)
	c := NewClient("client", nil)
	defer c.Close()

	const n = 20
	for i := 0; i < n; i++ {
		if _, err := statsOne(c, context.Background(), s.Addr(), "db1", "t"); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Transport()
	if ts.Dials != 1 {
		t.Errorf("dials = %d, want 1 (stats: %v)", ts.Dials, ts)
	}
	if ts.Reuses != n-1 {
		t.Errorf("reuses = %d, want %d", ts.Reuses, n-1)
	}
}

// TestTransportByAddr: the per-address breakdown must partition the
// aggregate — two servers' traffic lands under their own dial addresses,
// and the summed per-addr counters reproduce Transport().
func TestTransportByAddr(t *testing.T) {
	e1, s1 := newServedEngine(t, "db1", engine.VendorTest)
	e2, s2 := newServedEngine(t, "db2", engine.VendorTest)
	loadNumbers(t, e1, "t", 200)
	loadNumbers(t, e2, "t", 200)
	c := NewClient("client", nil)
	defer c.Close()

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.QueryAll(ctx, s1.Addr(), "db1", "SELECT * FROM t"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.QueryAll(ctx, s2.Addr(), "db2", "SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}

	byAddr := c.TransportByAddr()
	if len(byAddr) != 2 {
		t.Fatalf("addrs = %d (%v), want 2", len(byAddr), byAddr)
	}
	a1, ok1 := byAddr[s1.Addr()]
	a2, ok2 := byAddr[s2.Addr()]
	if !ok1 || !ok2 {
		t.Fatalf("missing server addresses in %v", byAddr)
	}
	if a1.Dials != 1 || a1.Reuses != 4 {
		t.Errorf("s1 dials/reuses = %d/%d, want 1/4", a1.Dials, a1.Reuses)
	}
	if a2.Dials != 1 || a2.Reuses != 0 {
		t.Errorf("s2 dials/reuses = %d/%d, want 1/0", a2.Dials, a2.Reuses)
	}
	if a1.BytesReceived <= a2.BytesReceived {
		t.Errorf("s1 recv bytes %d should exceed s2's %d (5x the streams)", a1.BytesReceived, a2.BytesReceived)
	}
	var sum TransportStats
	for _, ts := range byAddr {
		sum = sum.Add(ts)
	}
	if total := c.Transport(); sum != total {
		t.Errorf("per-addr sum %+v != aggregate %+v", sum, total)
	}
}

// TestPoolReuseAcrossRPCKinds: mixed probe/exec/query traffic to one node
// still runs over one connection, including drained streams returning
// their connection to the pool.
func TestPoolReuseAcrossRPCKinds(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 500)
	c := NewClient("client", nil)
	defer c.Close()

	ctx := context.Background()
	if _, err := schemaOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := statsOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
		t.Fatal(err)
	}
	if err := execOne(c, ctx, s.Addr(), "db1", "CREATE VIEW v AS SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryAll(ctx, s.Addr(), "db1", "SELECT COUNT(*) FROM v"); err != nil {
		t.Fatal(err)
	}
	// An in-protocol error frame leaves the connection poolable too.
	if _, err := c.QueryAll(ctx, s.Addr(), "db1", "SELECT * FROM nosuch"); err == nil {
		t.Fatal("query of missing table succeeded")
	}
	if _, err := statsOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
		t.Fatal(err)
	}
	if ts := c.Transport(); ts.Dials != 1 {
		t.Errorf("dials = %d, want 1 (stats: %v)", ts.Dials, ts)
	}
}

// TestDisablePool preserves the pre-pool dial-per-request behavior.
func TestDisablePool(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 10)
	c := NewClientWith("client", nil, ClientConfig{DisablePool: true})
	defer c.Close()

	const n = 5
	for i := 0; i < n; i++ {
		if _, err := statsOne(c, context.Background(), s.Addr(), "db1", "t"); err != nil {
			t.Fatal(err)
		}
	}
	ts := c.Transport()
	if ts.Dials != n {
		t.Errorf("dials = %d, want %d", ts.Dials, n)
	}
	if ts.Reuses != 0 {
		t.Errorf("reuses = %d, want 0", ts.Reuses)
	}
	if ts.Closes != ts.Dials {
		t.Errorf("closes = %d != dials = %d", ts.Closes, ts.Dials)
	}
}

// TestPoolEvictionAfterRestart: a pooled connection to a dead-and-restarted
// server is stale; the client must evict it and transparently redial.
func TestPoolEvictionAfterRestart(t *testing.T) {
	e := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	loadNumbers(t, e, "t", 50)
	s, err := NewServer(e)
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	c := NewClient("client", nil)
	defer c.Close()

	if _, err := statsOne(c, context.Background(), addr, "db1", "t"); err != nil {
		t.Fatal(err)
	}
	// Kill the server; the parked connection is now stale.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServerOn(e, addr)
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()

	// The probe must succeed by evicting the stale connection and dialing
	// the restarted server.
	if _, err := statsOne(c, context.Background(), addr, "db1", "t"); err != nil {
		t.Fatalf("probe after restart: %v", err)
	}
	ts := c.Transport()
	if ts.Dials != 2 {
		t.Errorf("dials = %d, want 2 (stats: %v)", ts.Dials, ts)
	}
	if ts.Retries < 1 {
		t.Errorf("retries = %d, want >= 1", ts.Retries)
	}
	if ts.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", ts.Evictions)
	}
}

// TestExecNotRetriedAfterDelivery: once an Exec reaches the server, a
// transport failure must NOT be retried (it might have executed). We prove
// it with a server that executes the DDL, then kills the connection before
// answering: a retry would surface "already exists" on the second attempt
// or double-create; instead the client must report the transport error.
func TestExecNotRetriedAfterDelivery(t *testing.T) {
	e := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	execs := 0
	var mu sync.Mutex
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				typ, payload, _, err := readFrame(conn)
				if err != nil || typ != msgBatch {
					return
				}
				items, _ := decodeBatch(payload)
				for _, it := range items {
					if it.typ == msgExec {
						mu.Lock()
						execs++
						mu.Unlock()
						e.Exec(string(it.payload))
					}
				}
				// drop the connection without replying
			}(conn)
		}
	}()

	c := NewClient("client", nil)
	defer c.Close()
	err = execOne(c, context.Background(), ln.Addr().String(), "db1", "CREATE TABLE x (a BIGINT)")
	if err == nil {
		t.Fatal("Exec over dropped connection succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if execs != 1 {
		t.Errorf("server saw %d execs, want exactly 1 (no retry of DDL)", execs)
	}
}

// TestConcurrentCheckoutStress: many goroutines hammering one client must
// share a small set of connections without races or leaks (-race build).
func TestConcurrentCheckoutStress(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 200)
	c := NewClient("client", nil)

	const workers = 16
	const perWorker = 10
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					if _, err := statsOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := schemaOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
						errCh <- err
						return
					}
				default:
					if _, err := c.QueryAll(ctx, s.Addr(), "db1", "SELECT COUNT(*) FROM t"); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	ts := c.Transport()
	total := int64(workers * perWorker)
	if ts.Dials+ts.Reuses != total {
		t.Errorf("dials+reuses = %d, want %d", ts.Dials+ts.Reuses, total)
	}
	if ts.Dials > workers {
		t.Errorf("dials = %d > %d concurrent workers", ts.Dials, workers)
	}
	// After Close, every dialed connection must be accounted closed.
	c.Close()
	ts = c.Transport()
	if ts.Closes != ts.Dials {
		t.Errorf("leak: dials = %d, closes = %d (stats: %v)", ts.Dials, ts.Closes, ts)
	}
}

// TestDeadlineExceededAttribution: a server that accepts but never answers
// must produce a deadline error naming the target node, within the bound.
func TestDeadlineExceededAttribution(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) { // read forever, never reply
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()

	c := NewClientWith("client", nil, ClientConfig{RequestTimeout: 100 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	_, err = statsOne(c, context.Background(), ln.Addr().String(), "hungdb", "t")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("probe against hung server succeeded")
	}
	if !strings.Contains(err.Error(), "hungdb") || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("error must attribute the deadline to the node: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline took %v, want ~100ms", elapsed)
	}
	ts := c.Transport()
	if ts.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1 (timeouts are not retried)", ts.Timeouts)
	}

	// A context deadline shorter than RequestTimeout wins.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := statsOne(c, ctx, ln.Addr().String(), "hungdb", "t"); err == nil {
		t.Fatal("probe with expired ctx succeeded")
	}
	if e := time.Since(start); e > time.Second {
		t.Errorf("ctx deadline took %v", e)
	}
}

// stubStreamServer speaks just enough of the protocol to start a result
// stream and then inject a mid-stream fault.
func stubStreamServer(t *testing.T, fault func(conn net.Conn)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "id", Type: sqltypes.TypeInt})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, _, _, err := readFrame(conn); err != nil {
					return
				}
				if _, err := writeFrame(conn, msgSchema, sqltypes.AppendSchema(nil, schema)); err != nil {
					return
				}
				batch, typ := encodeRowBatch([]sqltypes.Row{{sqltypes.NewInt(1)}}, engine.EncodingBinary)
				if _, err := writeFrame(conn, typ, batch); err != nil {
					return
				}
				fault(conn)
			}(conn)
		}
	}()
	return ln
}

// TestQueryIterMidStreamCutDiscardsConn: the remote dying mid-stream must
// surface an error from Next and close (not pool) the connection, even when
// the caller never calls Close — the leak this PR fixes.
func TestQueryIterMidStreamCutDiscardsConn(t *testing.T) {
	ln := stubStreamServer(t, func(conn net.Conn) {}) // fault: return => close
	c := NewClient("client", nil)

	_, it, err := c.Query(context.Background(), ln.Addr().String(), "db1", "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for {
		b, err := it.Next()
		if err == io.EOF {
			t.Fatal("stream ended cleanly; stub should cut it")
		}
		if err != nil {
			break
		}
		rows += len(b.Rows)
	}
	if rows != 1 {
		t.Errorf("rows before cut = %d, want 1", rows)
	}
	// No Close() call on purpose: the terminal Next must have released the
	// connection already.
	c.Close()
	ts := c.Transport()
	if ts.Closes != ts.Dials {
		t.Errorf("leak: dials = %d, closes = %d", ts.Dials, ts.Closes)
	}
	if ts.Evictions < 1 {
		t.Errorf("cut connection was not evicted: %v", ts)
	}
	// Double Close after a terminal error is safe.
	if err := it.Close(); err != nil {
		t.Errorf("Close after terminal Next: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if ts2 := c.Transport(); ts2.Closes != ts.Closes {
		t.Errorf("idempotent Close changed counters: %v -> %v", ts, ts2)
	}
}

// TestQueryIterDecodeErrorDiscardsConn: a corrupt row batch must evict the
// connection (the stream position is lost) without leaking it.
func TestQueryIterDecodeErrorDiscardsConn(t *testing.T) {
	ln := stubStreamServer(t, func(conn net.Conn) {
		writeFrame(conn, msgRows, []byte{0xff, 0xff, 0xff}) // truncated batch
		// Hold the conn open so only decode (not EOF) can fail the stream.
		buf := make([]byte, 1)
		conn.Read(buf)
	})
	c := NewClient("client", nil)

	_, it, err := c.Query(context.Background(), ln.Addr().String(), "db1", "SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = engine.Drain(it)
	if err == nil {
		t.Fatal("corrupt stream drained cleanly")
	}
	c.Close()
	if ts := c.Transport(); ts.Closes != ts.Dials {
		t.Errorf("leak: dials = %d, closes = %d", ts.Dials, ts.Closes)
	}
}

// TestQueryIterAbandonedMidStream: Close before draining aborts the stream
// by discarding the connection; a fresh request then dials anew.
func TestQueryIterAbandonedMidStream(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 50000)
	c := NewClient("client", nil)

	_, it, err := c.Query(context.Background(), s.Addr(), "db1", "SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	it.Close() // abandon mid-stream: connection must not return to the pool
	if _, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT COUNT(*) FROM t"); err != nil {
		t.Fatal(err)
	}
	c.Close()
	ts := c.Transport()
	if ts.Dials != 2 {
		t.Errorf("dials = %d, want 2 (abandoned stream conn must not be pooled)", ts.Dials)
	}
	if ts.Closes != ts.Dials {
		t.Errorf("leak: dials = %d, closes = %d", ts.Dials, ts.Closes)
	}
}

// TestIdleReaping: a connection parked longer than IdleTimeout is reaped at
// the next checkout and replaced by a fresh dial.
func TestIdleReaping(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 10)
	c := NewClientWith("client", nil, ClientConfig{IdleTimeout: 20 * time.Millisecond})
	defer c.Close()

	ctx := context.Background()
	if _, err := statsOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, err := statsOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
		t.Fatal(err)
	}
	ts := c.Transport()
	if ts.Dials != 2 {
		t.Errorf("dials = %d, want 2 (expired idle conn must be reaped)", ts.Dials)
	}
	if ts.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", ts.Evictions)
	}
}

// TestPoolBound: MaxIdlePerHost bounds parked connections; the overflow is
// closed rather than pooled.
func TestPoolBound(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 1000)
	c := NewClientWith("client", nil, ClientConfig{MaxIdlePerHost: 2})

	// Hold several streams open concurrently to force parallel checkouts.
	const streams = 5
	iters := make([]engine.BatchIter, streams)
	for i := range iters {
		_, it, err := c.Query(context.Background(), s.Addr(), "db1", "SELECT * FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := it.Next(); err != nil {
			t.Fatal(err)
		}
		iters[i] = it
	}
	for _, it := range iters {
		if _, err := engine.Drain(it); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	parked := len(c.idle[s.Addr()])
	c.mu.Unlock()
	if parked > 2 {
		t.Errorf("parked = %d, want <= MaxIdlePerHost = 2", parked)
	}
	c.Close()
	if ts := c.Transport(); ts.Closes != ts.Dials {
		t.Errorf("leak: dials = %d, closes = %d", ts.Dials, ts.Closes)
	}
}

// TestRetryBudgetExhausted: against a dead address an idempotent probe
// retries MaxRetries times and then fails; Exec fails immediately.
func TestRetryBudgetExhausted(t *testing.T) {
	// Grab a port and close it so dials fail fast.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := NewClientWith("client", nil, ClientConfig{MaxRetries: 2, RetryBackoff: time.Millisecond})
	defer c.Close()
	if _, err := statsOne(c, context.Background(), addr, "db1", "t"); err == nil {
		t.Fatal("probe of dead address succeeded")
	}
	if ts := c.Transport(); ts.Retries != 2 {
		t.Errorf("retries = %d, want 2", ts.Retries)
	}
	if err := execOne(c, context.Background(), addr, "db1", "CREATE TABLE x (a BIGINT)"); err == nil {
		t.Fatal("exec against dead address succeeded")
	}
	if ts := c.Transport(); ts.Retries != 2 {
		t.Errorf("retries = %d after Exec, want still 2 (DDL not retried)", ts.Retries)
	}
}

// TestPooledConnsCarryNoStaleDeadline: a short-deadline request must not
// poison the pooled connection for the unbounded request after it.
func TestPooledConnsCarryNoStaleDeadline(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 10)
	c := NewClient("client", nil)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if _, err := statsOne(c, ctx, s.Addr(), "db1", "t"); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Outlive the first request's deadline, then reuse the parked conn.
	time.Sleep(1100 * time.Millisecond)
	if _, err := statsOne(c, context.Background(), s.Addr(), "db1", "t"); err != nil {
		t.Fatalf("reused conn inherited a stale deadline: %v", err)
	}
	if ts := c.Transport(); ts.Dials != 1 {
		t.Errorf("dials = %d, want 1", ts.Dials)
	}
}
