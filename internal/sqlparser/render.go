package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"xdb/internal/sqltypes"
)

// This file renders AST nodes back to SQL in the neutral dialect (only
// keywords used as names are quoted, DATE '...' literals). Vendor-specific
// rendering — quoting style, foreign-table DDL syntax — lives in
// internal/dialect and builds on these renderers. Whatever parses renders
// to text that parses back to the same rendering (FuzzParse).

// ident renders a name so that it lexes back as the same name: a keyword
// is double-quoted, anything else is written as is.
func ident(name string) string {
	if isKeyword(name) {
		return `"` + name + `"`
	}
	return name
}

// alias renders a projection alias; one that is no identifier (the parser
// accepts string-literal aliases) renders as a string literal.
func alias(name string) string {
	if !isIdent(name) {
		return sqltypes.QuoteString(name)
	}
	return ident(name)
}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, p := range s.Projections {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case p.Star && p.StarTable != "":
			b.WriteString(p.StarTable + ".*")
		case p.Star:
			b.WriteString("*")
		default:
			b.WriteString(p.Expr.String())
			if p.Alias != "" {
				b.WriteString(" AS " + alias(p.Alias))
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			if t.DB != "" {
				b.WriteString(ident(t.DB) + ".")
			}
			b.WriteString(ident(t.Name))
			if t.Alias != "" && !strings.EqualFold(t.Alias, t.Name) {
				b.WriteString(" " + ident(t.Alias))
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT " + strconv.FormatInt(s.Limit, 10))
	}
	return b.String()
}

func (c *CreateTable) String() string {
	if c.As != nil {
		return fmt.Sprintf("CREATE TABLE %s AS %s", ident(c.Name), c.As)
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", ident(c.Name), renderColumnDefs(c.Columns))
}

func (c *CreateView) String() string {
	or := ""
	if c.OrReplace {
		or = "OR REPLACE "
	}
	return fmt.Sprintf("CREATE %sVIEW %s AS %s", or, ident(c.Name), c.Query)
}

func (c *CreateForeignTable) String() string {
	opts := ""
	if c.Materialize {
		opts = ", materialize 'true'"
	}
	if c.Rows > 0 {
		opts += fmt.Sprintf(", rows '%d'", c.Rows)
	}
	return fmt.Sprintf("CREATE FOREIGN TABLE %s (%s) SERVER %s OPTIONS (table_name %s%s)",
		ident(c.Name), renderColumnDefs(c.Columns), ident(c.Server), sqltypes.QuoteString(c.RemoteTable), opts)
}

func (c *CreateServer) String() string {
	var opts []string
	for _, k := range sortedKeys(c.Options) {
		key := k
		if !isIdent(k) {
			key = sqltypes.QuoteString(k)
		}
		opts = append(opts, key+" "+sqltypes.QuoteString(c.Options[k]))
	}
	s := fmt.Sprintf("CREATE SERVER %s FOREIGN DATA WRAPPER %s", ident(c.Name), ident(c.Wrapper))
	if len(opts) > 0 {
		s += " OPTIONS (" + strings.Join(opts, ", ") + ")"
	}
	return s
}

func (d *Drop) String() string {
	ife := ""
	if d.IfExists {
		ife = "IF EXISTS "
	}
	return fmt.Sprintf("DROP %s %s%s", d.Kind, ife, ident(d.Name))
}

func (i *Insert) String() string {
	if i.Query != nil {
		return fmt.Sprintf("INSERT INTO %s %s", ident(i.Table), i.Query)
	}
	var rows []string
	for _, r := range i.Rows {
		var vals []string
		for _, e := range r {
			vals = append(vals, e.String())
		}
		rows = append(rows, "("+strings.Join(vals, ", ")+")")
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", ident(i.Table), strings.Join(rows, ", "))
}

func (e *Explain) String() string { return "EXPLAIN " + e.Stmt.String() }

// renderColumnDefs renders a DDL column list.
func renderColumnDefs(cols []ColumnDef) string {
	var parts []string
	for _, c := range cols {
		parts = append(parts, ident(c.Name)+" "+c.Type.String())
	}
	return strings.Join(parts, ", ")
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func (c *ColumnRef) String() string {
	if c.Table == "" {
		return ident(c.Name)
	}
	return ident(c.Table) + "." + ident(c.Name)
}

func (l *Literal) String() string { return l.Val.SQL() }

func (b *BinaryExpr) String() string {
	if b.Op == OpAnd || b.Op == OpOr {
		return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
	}
	return fmt.Sprintf("%s %s %s", parenIfBool(b.L), b.Op, parenIfBool(b.R))
}

// parenIfBool parenthesizes operands that are themselves binary
// expressions or predicates, so the rendered SQL re-parses with identical
// structure (the grammar allows only one predicate suffix per operand).
func parenIfBool(e Expr) string { return parenIfPredicate(e) }

// parenIfPredicate parenthesizes operands that are themselves predicates
// (the grammar allows only one predicate suffix per operand, so
// "a IN (1) BETWEEN x AND y" must render as "(a IN (1)) BETWEEN x AND y").
func parenIfPredicate(e Expr) string {
	switch x := e.(type) {
	case *BetweenExpr, *InExpr, *LikeExpr, *IsNullExpr, *NotExpr:
		return "(" + e.String() + ")"
	case *BinaryExpr:
		_ = x
		return "(" + e.String() + ")"
	}
	return e.String()
}

func (n *NotExpr) String() string { return "NOT (" + n.E.String() + ")" }

func (n *NegExpr) String() string { return "-(" + n.E.String() + ")" }

func (f *FuncCall) String() string {
	switch {
	case f.Name == "EXTRACT":
		return fmt.Sprintf("EXTRACT(%s FROM %s)", f.Part, f.Args[0])
	case f.Name == "SUBSTRING" && len(f.Args) == 2:
		return fmt.Sprintf("SUBSTRING(%s FROM %s)", f.Args[0], f.Args[1])
	case f.Name == "SUBSTRING" && len(f.Args) == 3:
		return fmt.Sprintf("SUBSTRING(%s FROM %s FOR %s)", f.Args[0], f.Args[1], f.Args[2])
	}
	if f.Star {
		return f.Name + "(*)"
	}
	var args []string
	for _, a := range f.Args {
		args = append(args, a.String())
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return fmt.Sprintf("%s(%s%s)", f.Name, d, strings.Join(args, ", "))
}

func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&b, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&b, " ELSE %s", c.Else)
	}
	b.WriteString(" END")
	return b.String()
}

func (x *BetweenExpr) String() string {
	not := ""
	if x.Not {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sBETWEEN %s AND %s", parenIfPredicate(x.E), not, parenIfPredicate(x.Lo), parenIfPredicate(x.Hi))
}

func (x *InExpr) String() string {
	not := ""
	if x.Not {
		not = "NOT "
	}
	var vals []string
	for _, v := range x.List {
		vals = append(vals, v.String())
	}
	return fmt.Sprintf("%s %sIN (%s)", parenIfPredicate(x.E), not, strings.Join(vals, ", "))
}

func (x *LikeExpr) String() string {
	not := ""
	if x.Not {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sLIKE %s", parenIfPredicate(x.E), not, parenIfPredicate(x.Pattern))
}

func (x *IsNullExpr) String() string {
	if x.Not {
		return fmt.Sprintf("%s IS NOT NULL", parenIfPredicate(x.E))
	}
	return fmt.Sprintf("%s IS NULL", parenIfPredicate(x.E))
}

func (x *IntervalExpr) String() string {
	return fmt.Sprintf("INTERVAL '%d' %s", x.N, x.Unit)
}
