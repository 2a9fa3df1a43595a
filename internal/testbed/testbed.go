// Package testbed assembles the reproduction's experimental environment:
// N emulated DBMS engines served over TCP on a simulated network topology,
// loaded with a TPC-H table distribution, and wired to the XDB middleware
// and to the baseline systems. It corresponds to the multi-node Docker
// testbed of Sec. VI-A.
package testbed

import (
	"fmt"

	"xdb/internal/connector"
	"xdb/internal/core"
	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
	"xdb/internal/wire"
)

// Node is one DBMS of the testbed.
type Node struct {
	Name   string
	Engine *engine.Engine
	Server *wire.Server
}

// Config configures a testbed.
type Config struct {
	// Scenario places the nodes (LAN for the runtime experiments, ONP/GEO
	// for the transfer-cost experiments). Empty means LAN.
	Scenario netsim.Scenario
	// Vendors maps node name to vendor; missing nodes use DefaultVendor.
	Vendors map[string]engine.Vendor
	// DefaultVendor is the vendor for unlisted nodes. Empty means
	// VendorPostgres; use engine.VendorTest for throttle-free unit tests.
	DefaultVendor engine.Vendor
	// Options tunes the XDB optimizer (ablations).
	Options core.Options
	// TimeScale divides all network shaping delays (see netsim).
	TimeScale float64
}

// The middleware and client node names used across experiments.
const (
	MiddlewareNode = "xdb"
	ClientNode     = "client"
)

// Testbed is a running set of DBMS nodes plus the XDB middleware.
type Testbed struct {
	Topo   *netsim.Topology
	Nodes  map[string]*Node
	Order  []string // node names in creation order
	System *core.System

	// clients are the wire clients the testbed created (one per engine's
	// FDW plus the middleware's), closed with the testbed so pooled
	// connections do not leak across tests.
	clients []*wire.Client
}

// New starts engines and wire servers for the named nodes and wires up the
// XDB middleware.
func New(nodeNames []string, cfg Config) (*Testbed, error) {
	if cfg.DefaultVendor == "" {
		cfg.DefaultVendor = engine.VendorPostgres
	}
	scenario := cfg.Scenario
	if scenario == "" {
		scenario = netsim.ScenarioLAN
	}
	topo := netsim.Build(scenario, nodeNames, MiddlewareNode, ClientNode)
	if cfg.TimeScale > 0 {
		topo.TimeScale = cfg.TimeScale
	}

	tb := &Testbed{
		Topo:  topo,
		Nodes: map[string]*Node{},
		Order: append([]string(nil), nodeNames...),
	}
	for _, name := range nodeNames {
		vendor := cfg.DefaultVendor
		if v, ok := cfg.Vendors[name]; ok {
			vendor = v
		}
		eng := engine.New(engine.Config{Name: name, Vendor: vendor})
		fdwClient := wire.NewClientWith(name, topo, cfg.Options.Wire)
		tb.clients = append(tb.clients, fdwClient)
		eng.SetRemote(&wire.FDW{Client: fdwClient})
		srv, err := wire.NewServer(eng)
		if err != nil {
			tb.Close()
			return nil, fmt.Errorf("testbed: start %s: %w", name, err)
		}
		tb.Nodes[name] = &Node{Name: name, Engine: eng, Server: srv}
	}

	sys := core.NewSystem(MiddlewareNode, ClientNode, topo, cfg.Options)
	mwClient := wire.NewClientWith(MiddlewareNode, topo, cfg.Options.Wire)
	tb.clients = append(tb.clients, mwClient)
	for _, name := range nodeNames {
		n := tb.Nodes[name]
		sys.Register(connector.New(name, n.Server.Addr(), n.Engine.Profile().Vendor, mwClient))
	}
	tb.System = sys
	return tb, nil
}

// Close shuts down all wire servers and drains every client's
// connection pool.
func (tb *Testbed) Close() {
	for _, n := range tb.Nodes {
		if n.Server != nil {
			n.Server.Close()
		}
	}
	for _, c := range tb.clients {
		c.Close()
	}
	if tb.System != nil {
		tb.System.Close()
	}
}

// LoadTable loads a table into a node's engine and registers it in XDB's
// global catalog.
func (tb *Testbed) LoadTable(node, table string, schema *sqltypes.Schema, rows []sqltypes.Row) error {
	n, ok := tb.Nodes[node]
	if !ok {
		return fmt.Errorf("testbed: unknown node %q", node)
	}
	if err := n.Engine.LoadTable(table, schema, rows); err != nil {
		return err
	}
	return tb.System.RegisterTable(table, node)
}

// LoadTPCH generates TPC-H data at the scale factor and distributes it per
// the table distribution.
func (tb *Testbed) LoadTPCH(td tpch.Distribution, sf float64, seed uint64) error {
	gen := tpch.NewGenerator(sf, seed)
	data := gen.GenAll()
	for _, table := range tpch.TableNames {
		node, ok := td[table]
		if !ok {
			return fmt.Errorf("testbed: distribution does not place table %q", table)
		}
		schema, err := tpch.Schema(table)
		if err != nil {
			return err
		}
		if err := tb.LoadTable(node, table, schema, data[table]); err != nil {
			return err
		}
	}
	return nil
}

// NewTPCH is the one-call constructor most experiments use: a testbed for
// the distribution's nodes with TPC-H data loaded.
func NewTPCH(tdName string, sf float64, cfg Config) (*Testbed, error) {
	td, err := tpch.TD(tdName)
	if err != nil {
		return nil, err
	}
	tb, err := New(td.Nodes(), cfg)
	if err != nil {
		return nil, err
	}
	if err := tb.LoadTPCH(td, sf, 42); err != nil {
		tb.Close()
		return nil, err
	}
	return tb, nil
}

// ResetTransfers clears the transfer ledger (between experiment runs).
func (tb *Testbed) ResetTransfers() { tb.Topo.Ledger().Reset() }

// SkewStats distorts the statistics the owning engine reports for a
// table (RowCount and distinct counts scaled by factor) while scans keep
// returning the true rows — the stale-ANALYZE condition the
// estimate-correction experiments inject. A factor of 1 removes the
// distortion. The table is resolved through XDB's catalog, so it must
// already be registered (LoadTable).
func (tb *Testbed) SkewStats(table string, factor float64) error {
	info, ok := tb.System.Catalog().Lookup(table)
	if !ok {
		return fmt.Errorf("testbed: table %q not in catalog", table)
	}
	n, ok := tb.Nodes[info.Node]
	if !ok {
		return fmt.Errorf("testbed: catalog places %q on unknown node %q", table, info.Node)
	}
	return n.Engine.SkewStats(table, factor)
}

// Connectors returns the system's connectors keyed by node, for the
// baseline systems which share XDB's access paths to the DBMSes.
func (tb *Testbed) Connectors() map[string]*connector.Connector {
	out := map[string]*connector.Connector{}
	for _, name := range tb.Order {
		if c, ok := tb.System.Connector(name); ok {
			out[name] = c
		}
	}
	return out
}
