// Package dialect renders the DDL and queries the delegation engine sends
// to each DBMS in that DBMS's own SQL dialect. The paper's testbed mixes
// PostgreSQL, MariaDB, and Hive, whose SQL/MED spellings differ materially:
// Postgres uses CREATE FOREIGN TABLE ... SERVER, MariaDB's federated engine
// uses CREATE TABLE ... ENGINE=FEDERATED CONNECTION='server/table', and
// Hive uses external tables with a storage handler. XDB's connectors pick
// the dialect by vendor so that every engine receives DDL it understands
// natively.
package dialect

import (
	"fmt"
	"strings"

	"xdb/internal/engine"
	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// Dialect renders SQL for one vendor.
type Dialect interface {
	// Vendor names the dialect's product.
	Vendor() engine.Vendor
	// QuoteIdent quotes an identifier.
	QuoteIdent(name string) string
	// CreateServer renders the SQL/MED server registration for a remote
	// engine at addr whose topology node is node.
	CreateServer(name, addr, node string) string
	// CreateForeignTable renders the foreign-table declaration for
	// remoteTable on server, exposing the given columns locally as name.
	// materialize requests fetch-and-store semantics (explicit movement);
	// rows, when positive, declares the remote relation's row estimate, so
	// the DBMS plans over the foreign table without asking the remote.
	CreateForeignTable(name string, cols []sqltypes.Column, server, remoteTable string, materialize bool, rows int64) string
	// CreateView renders a view over the query.
	CreateView(name string, query *sqlparser.Select) string
	// CreateTableAs renders the explicit materialization of a query.
	CreateTableAs(name string, query *sqlparser.Select) string
	// DropView, DropTable, DropServer render cleanup DDL.
	DropView(name string) string
	DropTable(name string) string
	DropServer(name string) string
	// TypeName renders a column type.
	TypeName(t sqltypes.Type) string
}

// ForVendor returns the dialect for a vendor (the test vendor gets the
// Postgres dialect).
func ForVendor(v engine.Vendor) Dialect {
	switch v {
	case engine.VendorMariaDB:
		return MariaDB{}
	case engine.VendorHive:
		return Hive{}
	default:
		return Postgres{}
	}
}

func splitAddr(addr string) (host, port string) {
	host, port, ok := strings.Cut(addr, ":")
	if !ok {
		return addr, ""
	}
	return host, port
}

func renderColumnDefs(d Dialect, cols []sqltypes.Column) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = d.QuoteIdent(c.Name) + " " + d.TypeName(c.Type)
	}
	return strings.Join(parts, ", ")
}

// standard spells the statements every vendor writes the same way: views,
// CREATE TABLE AS and the cleanup DDL. Each dialect embeds it and carries
// only what differs — identifier quoting, type names, the server's wrapper
// and the foreign-table form.
type standard struct{}

// CreateView implements Dialect.
func (standard) CreateView(name string, query *sqlparser.Select) string {
	return fmt.Sprintf("CREATE VIEW %s AS %s", name, query)
}

// CreateTableAs implements Dialect.
func (standard) CreateTableAs(name string, query *sqlparser.Select) string {
	return fmt.Sprintf("CREATE TABLE %s AS %s", name, query)
}

// DropView implements Dialect.
func (standard) DropView(name string) string { return "DROP VIEW IF EXISTS " + name }

// DropTable implements Dialect.
func (standard) DropTable(name string) string { return "DROP TABLE IF EXISTS " + name }

// DropServer implements Dialect.
func (standard) DropServer(name string) string { return "DROP SERVER IF EXISTS " + name }

// Postgres is the PostgreSQL dialect: double-quoted identifiers and
// standard SQL/MED DDL.
type Postgres struct{ standard }

// Vendor implements Dialect.
func (Postgres) Vendor() engine.Vendor { return engine.VendorPostgres }

// QuoteIdent implements Dialect.
func (Postgres) QuoteIdent(name string) string { return `"` + name + `"` }

// TypeName implements Dialect.
func (Postgres) TypeName(t sqltypes.Type) string {
	switch t {
	case sqltypes.TypeInt:
		return "BIGINT"
	case sqltypes.TypeFloat:
		return "DOUBLE PRECISION"
	case sqltypes.TypeString:
		return "TEXT"
	case sqltypes.TypeDate:
		return "DATE"
	case sqltypes.TypeBool:
		return "BOOLEAN"
	default:
		return "TEXT"
	}
}

// CreateServer implements Dialect.
func (Postgres) CreateServer(name, addr, node string) string {
	host, port := splitAddr(addr)
	return fmt.Sprintf("CREATE SERVER %s FOREIGN DATA WRAPPER xdb OPTIONS (host %s, port %s, node %s)",
		name, sqltypes.QuoteString(host), sqltypes.QuoteString(port), sqltypes.QuoteString(node))
}

// CreateForeignTable implements Dialect.
func (d Postgres) CreateForeignTable(name string, cols []sqltypes.Column, server, remoteTable string, materialize bool, rows int64) string {
	opts := ""
	if materialize {
		opts = ", materialize 'true'"
	}
	if rows > 0 {
		opts += fmt.Sprintf(", rows '%d'", rows)
	}
	return fmt.Sprintf("CREATE FOREIGN TABLE %s (%s) SERVER %s OPTIONS (table_name %s%s)",
		name, renderColumnDefs(d, cols), server, sqltypes.QuoteString(remoteTable), opts)
}

// MariaDB is the MariaDB dialect: backtick identifiers and the federated
// storage engine in place of SQL/MED foreign tables.
type MariaDB struct{ standard }

// Vendor implements Dialect.
func (MariaDB) Vendor() engine.Vendor { return engine.VendorMariaDB }

// QuoteIdent implements Dialect.
func (MariaDB) QuoteIdent(name string) string { return "`" + name + "`" }

// TypeName implements Dialect.
func (MariaDB) TypeName(t sqltypes.Type) string {
	switch t {
	case sqltypes.TypeInt:
		return "BIGINT"
	case sqltypes.TypeFloat:
		return "DOUBLE"
	case sqltypes.TypeString:
		return "VARCHAR(255)"
	case sqltypes.TypeDate:
		return "DATE"
	case sqltypes.TypeBool:
		return "BOOLEAN"
	default:
		return "VARCHAR(255)"
	}
}

// CreateServer implements Dialect. MariaDB's federated engine embeds the
// endpoint in each table's CONNECTION string, but a server registration
// keeps the address resolvable; we emit the standard form, which the engine
// accepts for any vendor.
func (MariaDB) CreateServer(name, addr, node string) string {
	host, port := splitAddr(addr)
	return fmt.Sprintf("CREATE SERVER %s FOREIGN DATA WRAPPER federated OPTIONS (host %s, port %s, node %s)",
		name, sqltypes.QuoteString(host), sqltypes.QuoteString(port), sqltypes.QuoteString(node))
}

// CreateForeignTable implements Dialect.
func (d MariaDB) CreateForeignTable(name string, cols []sqltypes.Column, server, remoteTable string, materialize bool, rows int64) string {
	var opts []string
	if materialize {
		opts = append(opts, "materialize=1")
	}
	if rows > 0 {
		opts = append(opts, fmt.Sprintf("rows=%d", rows))
	}
	query := ""
	if len(opts) > 0 {
		query = "?" + strings.Join(opts, "&")
	}
	return fmt.Sprintf("CREATE TABLE %s (%s) ENGINE=FEDERATED CONNECTION='%s/%s%s'",
		name, renderColumnDefs(d, cols), server, remoteTable, query)
}

// Hive is the Hive dialect: external tables with a JDBC-style storage
// handler in place of SQL/MED foreign tables.
type Hive struct{ standard }

// Vendor implements Dialect.
func (Hive) Vendor() engine.Vendor { return engine.VendorHive }

// QuoteIdent implements Dialect.
func (Hive) QuoteIdent(name string) string { return "`" + name + "`" }

// TypeName implements Dialect.
func (Hive) TypeName(t sqltypes.Type) string {
	switch t {
	case sqltypes.TypeInt:
		return "BIGINT"
	case sqltypes.TypeFloat:
		return "DOUBLE"
	case sqltypes.TypeString:
		return "STRING"
	case sqltypes.TypeDate:
		return "DATE"
	case sqltypes.TypeBool:
		return "BOOLEAN"
	default:
		return "STRING"
	}
}

// CreateServer implements Dialect.
func (Hive) CreateServer(name, addr, node string) string {
	host, port := splitAddr(addr)
	return fmt.Sprintf("CREATE SERVER %s FOREIGN DATA WRAPPER jdbc OPTIONS (host %s, port %s, node %s)",
		name, sqltypes.QuoteString(host), sqltypes.QuoteString(port), sqltypes.QuoteString(node))
}

// CreateForeignTable implements Dialect.
func (d Hive) CreateForeignTable(name string, cols []sqltypes.Column, server, remoteTable string, materialize bool, rows int64) string {
	props := ""
	if materialize {
		props = ", 'materialize' 'true'"
	}
	if rows > 0 {
		props += fmt.Sprintf(", 'rows' '%d'", rows)
	}
	return fmt.Sprintf("CREATE EXTERNAL TABLE %s (%s) STORED BY 'xdb' TBLPROPERTIES ('server' '%s', 'table' '%s'%s)",
		name, renderColumnDefs(d, cols), server, remoteTable, props)
}
