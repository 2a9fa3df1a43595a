package wire

import (
	"context"
	"errors"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/netsim"
)

// TestCrashedNodeFailsRequests: a netsim-crashed node must fail both fresh
// dials and requests riding pooled connections, without the server ever
// executing the statement — and recover cleanly after revival.
func TestCrashedNodeFailsRequests(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	topo := netsim.Unshaped("client", "db1")
	c := NewClient("client", topo)
	defer c.Close()

	// Warm the pool with a healthy request.
	if err := execOne(c, context.Background(), s.Addr(), "db1", "CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatal(err)
	}

	topo.CrashNode("db1")
	err := execOne(c, context.Background(), s.Addr(), "db1", "CREATE TABLE ghost (a BIGINT)")
	if err == nil {
		t.Fatal("Exec against crashed node succeeded")
	}
	var fe *netsim.FaultError
	if !errors.As(err, &fe) {
		t.Errorf("error does not carry the injected fault: %v", err)
	}
	// The crashed server must not have executed the statement.
	for _, name := range e.Catalog().TableNames() {
		if name == "ghost" {
			t.Error("crashed server executed the DDL")
		}
	}
	// Idempotent probes fail too (after burning their retries).
	if _, err := statsOne(c, context.Background(), s.Addr(), "db1", "t"); err == nil {
		t.Error("Stats against crashed node succeeded")
	}

	topo.ReviveNode("db1")
	if err := execOne(c, context.Background(), s.Addr(), "db1", "CREATE TABLE t2 (a BIGINT)"); err != nil {
		t.Fatalf("Exec after revive: %v", err)
	}
}

// TestPartitionFailsDialAndIsAttributed: traffic across a partition fails
// as a dial error naming the fault.
func TestPartitionFailsDialAndIsAttributed(t *testing.T) {
	_, s := newServedEngine(t, "db1", engine.VendorTest)
	topo := netsim.NewTopology()
	topo.AddNode("client", netsim.SiteCloud)
	topo.AddNode("db1", netsim.SiteOnPrem)
	c := NewClient("client", topo)
	defer c.Close()

	topo.PartitionSites(netsim.SiteCloud, netsim.SiteOnPrem)
	_, err := statsOne(c, context.Background(), s.Addr(), "db1", "t")
	if err == nil {
		t.Fatal("request across partition succeeded")
	}
	if !strings.Contains(err.Error(), "partition") {
		t.Errorf("error does not name the partition: %v", err)
	}
	topo.Heal()
	if err := execOne(c, context.Background(), s.Addr(), "db1", "CREATE TABLE t (a BIGINT)"); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestFlakyLinkRetriesIdempotentProbes: with a modest drop rate, the
// transport's retry budget rides out flake drops for idempotent RPCs, and
// the retry counter shows it worked for a living.
func TestFlakyLinkRetriesIdempotentProbes(t *testing.T) {
	e, s := newServedEngine(t, "db1", engine.VendorTest)
	loadNumbers(t, e, "t", 100)
	topo := netsim.Unshaped("client", "db1")
	topo.SetFaultSeed(7)
	topo.SetFlake(netsim.SiteOnPrem, netsim.SiteOnPrem, netsim.Flake{DropRate: 0.15})
	c := NewClientWith("client", topo, ClientConfig{MaxRetries: 6})
	defer c.Close()

	ok := 0
	for i := 0; i < 40; i++ {
		if _, err := statsOne(c, context.Background(), s.Addr(), "db1", "t"); err == nil {
			ok++
		}
	}
	if ok < 30 {
		t.Errorf("only %d/40 probes survived a 15%% flaky link with retries", ok)
	}
	if got := c.Transport().Retries; got == 0 {
		t.Error("no retries recorded — flake did not exercise the retry path")
	}

	// Mid-stream drops must not leak connections: Dials == Closes once
	// the client is closed.
	for i := 0; i < 20; i++ {
		res, err := c.QueryAll(context.Background(), s.Addr(), "db1", "SELECT id FROM t")
		if err == nil && len(res.Rows) != 100 {
			t.Fatalf("short read: %d rows", len(res.Rows))
		}
	}
	c.Close()
	st := c.Transport()
	if st.Dials != st.Closes {
		t.Errorf("connection leak under flake: dials=%d closes=%d", st.Dials, st.Closes)
	}
}
