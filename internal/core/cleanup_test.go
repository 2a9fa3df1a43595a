package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xdb/internal/connector"
	"xdb/internal/engine"
	"xdb/internal/wire"
)

// hungListener accepts connections and reads them forever without ever
// answering — a node that is up at the TCP level but dead above it.
func hungListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				io.Copy(io.Discard, conn)
			}(conn)
		}
	}()
	return ln
}

// TestCleanupSweepsPastHungNode: a drop against a hung node must time out
// per CleanupTimeout and the sweep must still drop the survivors' objects.
func TestCleanupSweepsPastHungNode(t *testing.T) {
	live := engine.New(engine.Config{Name: "live", Vendor: engine.VendorTest})
	srv, err := wire.NewServer(live)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hung := hungListener(t)

	sys := NewSystem("m", "c", nil, Options{CleanupTimeout: 150 * time.Millisecond})
	defer sys.Close()
	client := wire.NewClient("m", nil)
	defer client.Close()
	sys.Register(connector.New("live", srv.Addr(), engine.VendorTest, client))
	sys.Register(connector.New("hung", hung.Addr().String(), engine.VendorTest, client))

	if err := live.Exec("CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	if err := live.Exec("CREATE VIEW xdb1_t1 AS SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := live.Exec("CREATE VIEW xdb1_t2 AS SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}

	// Reverse creation order puts the hung node's drop between the two
	// live drops: both sides of it must still execute.
	dep := &Deployment{cleanup: []cleanupItem{
		{node: "live", sql: "DROP VIEW xdb1_t1"},
		{node: "hung", sql: "DROP VIEW xdb1_x"},
		{node: "live", sql: "DROP VIEW xdb1_t2"},
	}}
	start := time.Now()
	err = sys.cleanupDeployment(context.Background(), dep)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cleanup reported success despite the hung node")
	}
	if !strings.Contains(err.Error(), "hung") {
		t.Errorf("cleanup error does not name the hung node: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cleanup took %v; each drop must be bounded by CleanupTimeout", elapsed)
	}
	// The sweep did not stop at the hung node: the survivor is clean.
	assertQuiescent(t, sys, map[string]*engine.Engine{"live": live}, "hung")
}

// TestCleanupUnboundedWithoutTimeouts: with no timeouts configured,
// cleanupCtx leaves drops unbounded (the paper configuration) — verify the
// context carries no deadline rather than hanging a real sweep.
func TestCleanupUnboundedWithoutTimeouts(t *testing.T) {
	sys := NewSystem("m", "c", nil, Options{})
	defer sys.Close()
	ctx, cancel := sys.cleanupCtx()
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("zero Options must leave cleanup unbounded")
	}
	// CleanupTimeout falls back to RequestTimeout when unset.
	sys2 := NewSystem("m", "c", nil, Options{RequestTimeout: time.Second})
	defer sys2.Close()
	ctx2, cancel2 := sys2.cleanupCtx()
	defer cancel2()
	if _, ok := ctx2.Deadline(); !ok {
		t.Error("cleanup must inherit RequestTimeout when CleanupTimeout is unset")
	}
}

// TestRegisterServerDedupes: concurrent registrations for one (consumer,
// producer) pair must run the create exactly once and share its outcome;
// distinct pairs must not be serialized into one.
func TestRegisterServerDedupes(t *testing.T) {
	dep := &Deployment{}
	var creates int
	var mu sync.Mutex
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := "db1\x00db2"
			if i%4 == 3 {
				key = "db3\x00db2" // a different consumer: its own registration
			}
			errs[i] = dep.registerServer(key, func() error {
				mu.Lock()
				creates++
				mu.Unlock()
				time.Sleep(10 * time.Millisecond) // widen the race window
				dep.addDDL(1)
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if creates != 2 {
		t.Errorf("create ran %d times, want 2 (one per distinct node pair)", creates)
	}
	if dep.DDLCount != 2 {
		t.Errorf("DDLCount = %d, want 2 — duplicate CREATE SERVER double-counted", dep.DDLCount)
	}

	// A failed registration is shared by every waiter for that key.
	dep2 := &Deployment{}
	failErr := fmt.Errorf("node down")
	var wg2 sync.WaitGroup
	errs2 := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			errs2[i] = dep2.registerServer("a\x00b", func() error {
				time.Sleep(5 * time.Millisecond)
				return failErr
			})
		}(i)
	}
	wg2.Wait()
	for i, err := range errs2 {
		if err != failErr {
			t.Errorf("worker %d: err = %v, want the shared failure", i, err)
		}
	}
}
