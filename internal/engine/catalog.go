package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// Table is a base relation stored row-wise in memory with per-column
// statistics maintained at load time.
type Table struct {
	Name   string
	Schema *sqltypes.Schema
	Rows   []sqltypes.Row
	Stats  *TableStats
}

// View is a named stored query. Views are the workhorse of XDB's delegation
// phase: every task becomes a view on its home DBMS.
type View struct {
	Name  string
	Query *sqlparser.Select
	// Schema is the output schema, computed when the view is created.
	Schema *sqltypes.Schema
}

// ForeignTable is a SQL/MED foreign table: a local name for a relation
// served by a remote DBMS.
type ForeignTable struct {
	Name        string
	Schema      *sqltypes.Schema
	Server      string
	RemoteTable string
	// Materialize makes the engine fetch and store the remote relation on
	// first access instead of streaming it per scan. XDB's delegation
	// engine sets this for explicit data movements: the consuming DBMS
	// materializes the producing task's output locally during execution,
	// enabling local optimizations at the cost of pipeline parallelism.
	Materialize bool
	// Rows is the remote relation's declared row estimate (0: none was
	// declared). Scans of the foreign table are planned from it, so
	// planning never leaves the engine; see estRows.
	Rows int64

	mu     sync.Mutex
	cached []sqltypes.Row
	filled bool
}

// defaultForeignRows is the planner's guess for a foreign table declared
// without a row estimate.
const defaultForeignRows = 1000

// estRows is the row estimate scans of the foreign table are planned with.
func (f *ForeignTable) estRows() float64 {
	if f.Rows > 0 {
		return float64(f.Rows)
	}
	return defaultForeignRows
}

// Server is a SQL/MED foreign server registration.
type Server struct {
	Name    string
	Wrapper string
	Addr    string // host:port of the remote engine's wire listener
	// Node is the remote node's name in the network topology; used for
	// transfer accounting.
	Node string
}

// Catalog holds an engine's relations. All lookups are case-insensitive.
// It is safe for concurrent use; reads take a shared lock so that the
// pipelined cascade (one engine serving another mid-query) works.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	views   map[string]*View
	foreign map[string]*ForeignTable
	servers map[string]*Server
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables:  make(map[string]*Table),
		views:   make(map[string]*View),
		foreign: make(map[string]*ForeignTable),
		servers: make(map[string]*Server),
	}
}

func key(name string) string { return strings.ToLower(name) }

// Table returns the named base table.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[key(name)]
	return t, ok
}

// View returns the named view.
func (c *Catalog) View(name string) (*View, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// Foreign returns the named foreign table.
func (c *Catalog) Foreign(name string) (*ForeignTable, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.foreign[key(name)]
	return f, ok
}

// Server returns the named foreign server.
func (c *Catalog) Server(name string) (*Server, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.servers[key(name)]
	return s, ok
}

// Has reports whether any relation (table, view, or foreign table) exists
// under the name.
func (c *Catalog) Has(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	k := key(name)
	_, t := c.tables[k]
	_, v := c.views[k]
	_, f := c.foreign[k]
	return t || v || f
}

// PutTable installs a base table, replacing any previous relation of the
// same name.
func (c *Catalog) PutTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("engine: %q already exists as a view", t.Name)
	}
	if _, ok := c.foreign[k]; ok {
		return fmt.Errorf("engine: %q already exists as a foreign table", t.Name)
	}
	c.tables[k] = t
	return nil
}

// PutView installs a view. With replace set an existing view is
// overwritten.
func (c *Catalog) PutView(v *View, replace bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(v.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("engine: %q already exists as a table", v.Name)
	}
	if _, ok := c.foreign[k]; ok {
		return fmt.Errorf("engine: %q already exists as a foreign table", v.Name)
	}
	if _, ok := c.views[k]; ok && !replace {
		return fmt.Errorf("engine: view %q already exists", v.Name)
	}
	c.views[k] = v
	return nil
}

// PutForeign installs a foreign table.
func (c *Catalog) PutForeign(f *ForeignTable) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(f.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("engine: %q already exists as a table", f.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("engine: %q already exists as a view", f.Name)
	}
	c.foreign[k] = f
	return nil
}

// PutServer registers a foreign server.
func (c *Catalog) PutServer(s *Server) {
	c.mu.Lock()
	c.servers[key(s.Name)] = s
	c.mu.Unlock()
}

// Drop removes the named object of the given kind ("TABLE" also drops
// foreign tables, matching the DDL the dialects emit). It reports whether
// anything was dropped.
func (c *Catalog) Drop(kind, name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	switch kind {
	case "TABLE":
		if _, ok := c.tables[k]; ok {
			delete(c.tables, k)
			return true
		}
		if _, ok := c.foreign[k]; ok {
			delete(c.foreign, k)
			return true
		}
	case "VIEW":
		if _, ok := c.views[k]; ok {
			delete(c.views, k)
			return true
		}
	case "SERVER":
		if _, ok := c.servers[k]; ok {
			delete(c.servers, k)
			return true
		}
	}
	return false
}

// TableNames returns the base-table names in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// ViewNames returns the view names in sorted order.
func (c *Catalog) ViewNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v.Name)
	}
	sort.Strings(out)
	return out
}
