package sqlparser

import (
	"strings"

	"xdb/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	// String renders the statement back to SQL in the neutral dialect.
	String() string
}

// Select is a SELECT statement. JOIN ... ON syntax is normalized during
// parsing into the From list plus conjuncts in Where, matching how the
// cross-database optimizer consumes queries (a join graph over base
// relations).
type Select struct {
	Distinct    bool
	Projections []SelectExpr
	From        []TableRef
	Where       Expr // nil when absent
	GroupBy     []Expr
	Having      Expr // nil when absent
	OrderBy     []OrderItem
	Limit       int64 // -1 when absent
}

func (*Select) stmt() {}

// SelectExpr is one projection: an expression with an optional alias, or a
// star (optionally qualified: t.*).
type SelectExpr struct {
	Expr  Expr   // nil for star
	Alias string // optional
	Star  bool
	// StarTable qualifies a star projection (t.*); empty for a bare star.
	StarTable string
}

// TableRef names a relation in FROM. DB is an optional database/schema
// qualifier used in cross-database queries (e.g. CDB.Citizen).
type TableRef struct {
	DB    string
	Name  string
	Alias string
}

// EffectiveAlias returns the name the relation is referenced by.
func (t TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// ColumnDef declares a column in CREATE TABLE and CREATE FOREIGN TABLE.
type ColumnDef struct {
	Name string
	Type sqltypes.Type
}

// CreateTable is CREATE TABLE t (cols) or CREATE TABLE t AS SELECT ...
// (when As is non-nil). The MariaDB-style federated form (ENGINE=FEDERATED
// CONNECTION='server/table') parses into a CreateForeignTable instead.
type CreateTable struct {
	Name    string
	Columns []ColumnDef
	As      *Select
}

func (*CreateTable) stmt() {}

// CreateView is CREATE [OR REPLACE] VIEW v AS SELECT ...
type CreateView struct {
	Name      string
	OrReplace bool
	Query     *Select
}

func (*CreateView) stmt() {}

// CreateForeignTable is the SQL/MED foreign table declaration in any of the
// vendor dialect spellings:
//
//	CREATE FOREIGN TABLE t (cols) SERVER s OPTIONS (table_name 'x', rows '9')  -- postgres
//	CREATE TABLE t (cols) ENGINE=FEDERATED CONNECTION='s/x?rows=9'             -- mariadb
//	CREATE EXTERNAL TABLE t (cols) STORED BY 'xdb' TBLPROPERTIES (...)         -- hive
type CreateForeignTable struct {
	Name    string
	Columns []ColumnDef
	Server  string
	// RemoteTable is the name of the relation on the remote server.
	RemoteTable string
	// Materialize requests that the DBMS fetch and store the remote
	// relation on first access instead of streaming it per scan — the
	// engine-level mechanism behind XDB's explicit data movement.
	Materialize bool
	// Rows is the declared row-count estimate of the remote relation (the
	// rows option; 0 when absent). The DBMS plans scans of the foreign
	// table from it instead of asking the remote at plan time.
	Rows int64
}

func (*CreateForeignTable) stmt() {}

// CreateServer is CREATE SERVER s FOREIGN DATA WRAPPER w OPTIONS
// (host '...', port '...'), registering a remote DBMS endpoint for
// SQL/MED.
type CreateServer struct {
	Name    string
	Wrapper string
	Options map[string]string
}

func (*CreateServer) stmt() {}

// Drop is DROP TABLE/VIEW/SERVER [IF EXISTS] name.
type Drop struct {
	Kind     string // "TABLE", "VIEW", "SERVER"
	Name     string
	IfExists bool
}

func (*Drop) stmt() {}

// Insert is INSERT INTO t VALUES (...), (...) or INSERT INTO t SELECT ...
type Insert struct {
	Table string
	Rows  [][]Expr // literal rows; nil when Query is set
	Query *Select
}

func (*Insert) stmt() {}

// Explain wraps a statement for cost/plan inspection without execution.
type Explain struct {
	Stmt Statement
}

func (*Explain) stmt() {}

// Expr is any scalar expression.
type Expr interface {
	expr()
	// String renders the expression back to SQL in the neutral dialect.
	String() string
}

// ColumnRef references a (possibly qualified) column.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

func (*ColumnRef) expr() {}

// Literal is a constant value.
type Literal struct {
	Val sqltypes.Value
}

func (*Literal) expr() {}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpConcat
	OpMod
)

var binaryOpNames = map[BinaryOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*",
	OpDiv: "/", OpConcat: "||", OpMod: "%",
}

// String returns the SQL spelling of the operator.
func (op BinaryOp) String() string { return binaryOpNames[op] }

// IsComparison reports whether the operator is a comparison.
func (op BinaryOp) IsComparison() bool { return op <= OpGe }

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinaryOp
	L, R Expr
}

func (*BinaryExpr) expr() {}

// NotExpr is logical negation.
type NotExpr struct {
	E Expr
}

func (*NotExpr) expr() {}

// NegExpr is arithmetic negation.
type NegExpr struct {
	E Expr
}

func (*NegExpr) expr() {}

// FuncCall is a scalar or aggregate function application. Aggregates are
// COUNT/SUM/AVG/MIN/MAX; COUNT(*) is represented with Star=true. Scalar
// functions include EXTRACT (normalized to EXTRACT with a part argument),
// SUBSTRING, UPPER, LOWER.
type FuncCall struct {
	Name     string // upper case
	Args     []Expr
	Distinct bool
	Star     bool
	// Part carries the EXTRACT field (YEAR, MONTH, DAY).
	Part string
}

func (*FuncCall) expr() {}

// IsAggregate reports whether the call is one of the aggregate functions.
func (f *FuncCall) IsAggregate() bool {
	switch f.Name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []When
	Else  Expr // nil when absent
}

// When is one WHEN cond THEN result arm.
type When struct {
	Cond   Expr
	Result Expr
}

func (*CaseExpr) expr() {}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	E      Expr
	Lo, Hi Expr
	Not    bool
}

func (*BetweenExpr) expr() {}

// InExpr is x [NOT] IN (v1, v2, ...).
type InExpr struct {
	E    Expr
	List []Expr
	Not  bool
}

func (*InExpr) expr() {}

// LikeExpr is x [NOT] LIKE pattern.
type LikeExpr struct {
	E       Expr
	Pattern Expr
	Not     bool
}

func (*LikeExpr) expr() {}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

func (*IsNullExpr) expr() {}

// IntervalExpr is INTERVAL 'n' YEAR/MONTH/DAY, used in date arithmetic.
type IntervalExpr struct {
	N    int64
	Unit string // "YEAR", "MONTH", "DAY"
}

func (*IntervalExpr) expr() {}

// SplitConjuncts flattens nested ANDs into a list of conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// JoinConjuncts rebuilds a conjunction from a list (nil for empty).
func JoinConjuncts(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: e}
		}
	}
	return out
}

// ColumnEquality returns the two sides of a column = column predicate,
// the shape a join can use as an equi key.
func ColumnEquality(e Expr) (l, r *ColumnRef, ok bool) {
	be, isBin := e.(*BinaryExpr)
	if !isBin || be.Op != OpEq {
		return nil, nil, false
	}
	l, lok := be.L.(*ColumnRef)
	r, rok := be.R.(*ColumnRef)
	return l, r, lok && rok
}

// ColumnsIn collects every column reference in the expression tree.
func ColumnsIn(e Expr) []*ColumnRef {
	var out []*ColumnRef
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*ColumnRef); ok {
			out = append(out, c)
		}
	})
	return out
}

// WalkExpr invokes fn on e and every sub-expression.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *NotExpr:
		WalkExpr(x.E, fn)
	case *NegExpr:
		WalkExpr(x.E, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *CaseExpr:
		for _, w := range x.Whens {
			WalkExpr(w.Cond, fn)
			WalkExpr(w.Result, fn)
		}
		WalkExpr(x.Else, fn)
	case *BetweenExpr:
		WalkExpr(x.E, fn)
		WalkExpr(x.Lo, fn)
		WalkExpr(x.Hi, fn)
	case *InExpr:
		WalkExpr(x.E, fn)
		for _, v := range x.List {
			WalkExpr(v, fn)
		}
	case *LikeExpr:
		WalkExpr(x.E, fn)
		WalkExpr(x.Pattern, fn)
	case *IsNullExpr:
		WalkExpr(x.E, fn)
	}
}

// HasAggregate reports whether the expression contains an aggregate call.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && f.IsAggregate() {
			found = true
		}
	})
	return found
}

// CloneExpr deep-copies an expression tree.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ColumnRef:
		c := *x
		return &c
	case *Literal:
		c := *x
		return &c
	case *IntervalExpr:
		c := *x
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *NotExpr:
		return &NotExpr{E: CloneExpr(x.E)}
	case *NegExpr:
		return &NegExpr{E: CloneExpr(x.E)}
	case *FuncCall:
		f := &FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Part: x.Part}
		for _, a := range x.Args {
			f.Args = append(f.Args, CloneExpr(a))
		}
		return f
	case *CaseExpr:
		c := &CaseExpr{Else: CloneExpr(x.Else)}
		for _, w := range x.Whens {
			c.Whens = append(c.Whens, When{Cond: CloneExpr(w.Cond), Result: CloneExpr(w.Result)})
		}
		return c
	case *BetweenExpr:
		return &BetweenExpr{E: CloneExpr(x.E), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Not: x.Not}
	case *InExpr:
		c := &InExpr{E: CloneExpr(x.E), Not: x.Not}
		for _, v := range x.List {
			c.List = append(c.List, CloneExpr(v))
		}
		return c
	case *LikeExpr:
		return &LikeExpr{E: CloneExpr(x.E), Pattern: CloneExpr(x.Pattern), Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{E: CloneExpr(x.E), Not: x.Not}
	default:
		panic("sqlparser: CloneExpr: unknown expression type")
	}
}

// ExprString is a nil-safe Expr.String.
func ExprString(e Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

// upper is a tiny helper used across the package.
func upper(s string) string { return strings.ToUpper(s) }
