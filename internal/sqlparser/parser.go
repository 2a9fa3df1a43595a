package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"xdb/internal/sqltypes"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.skip(";")
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, nil
}

// ParseSelect parses a statement that must be a SELECT.
func ParseSelect(src string) (*Select, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*Select)
	if !ok {
		return nil, fmt.Errorf("sqlparser: expected SELECT statement, got %T", stmt)
	}
	return sel, nil
}

// ParseExpr parses a standalone scalar expression.
func ParseExpr(src string) (Expr, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("unexpected %s after expression", p.peek())
	}
	return e, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: %s", fmt.Sprintf(format, args...))
}

// kw reports whether the next token is the given keyword.
func (p *parser) kw(word string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == word
}

// acceptKw consumes the keyword if present.
func (p *parser) acceptKw(word string) bool {
	if p.kw(word) {
		p.advance()
		return true
	}
	return false
}

// expectKw consumes the keyword or fails.
func (p *parser) expectKw(word string) error {
	if !p.acceptKw(word) {
		return p.errf("expected %s, found %s", word, p.peek())
	}
	return nil
}

// op reports whether the next token is the given operator.
func (p *parser) op(text string) bool {
	t := p.peek()
	return t.kind == tokOp && t.text == text
}

// skip consumes the operator if present.
func (p *parser) skip(text string) bool {
	if p.op(text) {
		p.advance()
		return true
	}
	return false
}

// expectOp consumes the operator or fails.
func (p *parser) expectOp(text string) error {
	if !p.skip(text) {
		return p.errf("expected %q, found %s", text, p.peek())
	}
	return nil
}

// nonReserved lists keywords that may double as identifiers (the paper's
// motivating schema has a column literally named "date").
var nonReserved = map[string]bool{
	"DATE": true, "YEAR": true, "MONTH": true, "DAY": true, "DATA": true,
	"SERVER": true, "OPTIONS": true, "ENGINE": true, "CONNECTION": true,
}

// ident consumes an identifier (quoted or not). Non-reserved keywords are
// accepted as identifiers.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent || t.kind == tokQIdent || (t.kind == tokKeyword && nonReserved[t.text]) {
		p.advance()
		return t.text, nil
	}
	return "", p.errf("expected identifier, found %s", t)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.kw("SELECT"):
		return p.parseSelect()
	case p.kw("CREATE"):
		return p.parseCreate()
	case p.kw("DROP"):
		return p.parseDrop()
	case p.kw("INSERT"):
		return p.parseInsert()
	case p.kw("EXPLAIN"):
		p.advance()
		// Tolerate EXPLAIN (ANALYZE|VERBOSE) modifiers.
		for p.acceptKw("ANALYZE") || p.acceptKw("VERBOSE") {
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &Explain{Stmt: inner}, nil
	default:
		return nil, p.errf("expected statement, found %s", p.peek())
	}
}

func (p *parser) parseSelect() (*Select, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	sel.Distinct = p.acceptKw("DISTINCT")
	p.acceptKw("ALL")

	for {
		proj, err := p.parseSelectExpr()
		if err != nil {
			return nil, err
		}
		sel.Projections = append(sel.Projections, proj)
		if !p.skip(",") {
			break
		}
	}

	if p.acceptKw("FROM") {
		var joinConds []Expr
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, ref)
		for {
			if p.skip(",") {
				ref, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, ref)
				continue
			}
			// [INNER|LEFT] JOIN t ON cond — normalized into the comma list.
			// LEFT JOIN is accepted but treated as inner (the reproduction's
			// workload never depends on outer-join semantics).
			if p.kw("JOIN") || p.kw("INNER") || p.kw("LEFT") {
				p.acceptKw("INNER")
				p.acceptKw("LEFT")
				if err := p.expectKw("JOIN"); err != nil {
					return nil, err
				}
				ref, err := p.parseTableRef()
				if err != nil {
					return nil, err
				}
				sel.From = append(sel.From, ref)
				if err := p.expectKw("ON"); err != nil {
					return nil, err
				}
				cond, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				joinConds = append(joinConds, cond)
				continue
			}
			break
		}
		if len(joinConds) > 0 {
			all := joinConds
			if sel.Where != nil {
				all = append(all, sel.Where)
			}
			sel.Where = JoinConjuncts(all)
		}
	}

	if p.acceptKw("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if sel.Where != nil {
			sel.Where = &BinaryExpr{Op: OpAnd, L: sel.Where, R: w}
		} else {
			sel.Where = w
		}
	}

	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.skip(",") {
				break
			}
		}
	}

	if p.acceptKw("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}

	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.skip(",") {
				break
			}
		}
	}

	if p.acceptKw("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT, found %s", t)
		}
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT value %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectExpr() (SelectExpr, error) {
	if p.skip("*") {
		return SelectExpr{Star: true}, nil
	}
	// Qualified star: ident '.' '*'
	if p.peek().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokOp && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokOp && p.toks[p.pos+2].text == "*" {
		table := p.advance().text
		p.advance() // .
		p.advance() // *
		return SelectExpr{Star: true, StarTable: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectExpr{}, err
	}
	proj := SelectExpr{Expr: e}
	if p.acceptKw("AS") {
		alias, err := p.parseAlias()
		if err != nil {
			return SelectExpr{}, err
		}
		proj.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent || t.kind == tokQIdent {
		p.advance()
		proj.Alias = t.text
	}
	return proj, nil
}

// parseAlias accepts identifiers and quoted identifiers; string literals
// are tolerated as aliases (the paper's example query uses 'age_group').
func (p *parser) parseAlias() (string, error) {
	t := p.peek()
	if t.kind == tokIdent || t.kind == tokQIdent || t.kind == tokString {
		p.advance()
		return t.text, nil
	}
	return "", p.errf("expected alias, found %s", t)
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.skip(".") {
		n2, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.DB, ref.Name = name, n2
	}
	if p.acceptKw("AS") {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if t := p.peek(); t.kind == tokIdent || t.kind == tokQIdent {
		p.advance()
		ref.Alias = t.text
	}
	return ref, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	orReplace := false
	if p.acceptKw("OR") {
		if err := p.expectKw("REPLACE"); err != nil {
			return nil, err
		}
		orReplace = true
	}
	switch {
	case p.acceptKw("VIEW"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AS"); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateView{Name: name, OrReplace: orReplace, Query: q}, nil

	case p.acceptKw("FOREIGN"):
		// Postgres-style: CREATE FOREIGN TABLE t (cols) SERVER s OPTIONS (...)
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols, err := p.parseColumnDefs()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("SERVER"); err != nil {
			return nil, err
		}
		server, err := p.ident()
		if err != nil {
			return nil, err
		}
		ft := &CreateForeignTable{Name: name, Columns: cols, Server: server, RemoteTable: name}
		if p.acceptKw("OPTIONS") {
			opts, err := p.parseOptions()
			if err != nil {
				return nil, err
			}
			if v, ok := opts["table_name"]; ok {
				ft.RemoteTable = v
			}
			ft.Materialize = isTrueOption(opts["materialize"])
			if ft.Rows, err = p.rowsOption(opts["rows"]); err != nil {
				return nil, err
			}
		}
		return ft, nil

	case p.acceptKw("EXTERNAL"):
		// Hive-style: CREATE EXTERNAL TABLE t (cols) STORED BY 'xdb'
		// TBLPROPERTIES ('server' '...', 'table' '...').
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols, err := p.parseColumnDefs()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("STORED"); err != nil {
			return nil, err
		}
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		if t := p.peek(); t.kind == tokString || t.kind == tokIdent {
			p.advance()
		} else {
			return nil, p.errf("expected storage handler after STORED BY, found %s", t)
		}
		ft := &CreateForeignTable{Name: name, Columns: cols, RemoteTable: name}
		if p.acceptKw("TBLPROPERTIES") {
			opts, err := p.parseOptions()
			if err != nil {
				return nil, err
			}
			if v, ok := opts["server"]; ok {
				ft.Server = v
			}
			if v, ok := opts["table"]; ok {
				ft.RemoteTable = v
			}
			ft.Materialize = isTrueOption(opts["materialize"])
			if ft.Rows, err = p.rowsOption(opts["rows"]); err != nil {
				return nil, err
			}
		}
		if !isIdent(ft.Server) {
			return nil, p.errf("external table %s: 'server' property %q is not an identifier", name, ft.Server)
		}
		return ft, nil

	case p.acceptKw("SERVER"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("FOREIGN"); err != nil {
			return nil, err
		}
		if err := p.expectKw("DATA"); err != nil {
			return nil, err
		}
		if err := p.expectKw("WRAPPER"); err != nil {
			return nil, err
		}
		wrapper, err := p.ident()
		if err != nil {
			return nil, err
		}
		srv := &CreateServer{Name: name, Wrapper: wrapper, Options: map[string]string{}}
		if p.acceptKw("OPTIONS") {
			opts, err := p.parseOptions()
			if err != nil {
				return nil, err
			}
			srv.Options = opts
		}
		return srv, nil

	case p.acceptKw("TABLE"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.acceptKw("AS") {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			return &CreateTable{Name: name, As: q}, nil
		}
		cols, err := p.parseColumnDefs()
		if err != nil {
			return nil, err
		}
		// MariaDB federated form: ENGINE=FEDERATED CONNECTION='server/table'.
		if p.acceptKw("ENGINE") {
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			engine, err := p.ident()
			if err != nil {
				return nil, err
			}
			if !strings.EqualFold(engine, "FEDERATED") {
				return &CreateTable{Name: name, Columns: cols}, nil
			}
			if err := p.expectKw("CONNECTION"); err != nil {
				return nil, err
			}
			if err := p.expectOp("="); err != nil {
				return nil, err
			}
			t := p.peek()
			if t.kind != tokString {
				return nil, p.errf("expected connection string, found %s", t)
			}
			p.advance()
			server, remote, ok := strings.Cut(t.text, "/")
			if !ok || !isIdent(server) {
				return nil, p.errf("bad federated connection %q: want 'server/table'", t.text)
			}
			// The query suffix carries the options: "materialize=1" requests
			// fetch-and-store semantics (explicit movement), "rows=N"
			// declares the remote relation's row estimate.
			remote, query, _ := strings.Cut(remote, "?")
			ft := &CreateForeignTable{Name: name, Columns: cols, Server: server, RemoteTable: remote}
			for _, opt := range strings.Split(query, "&") {
				switch k, v, _ := strings.Cut(opt, "="); k {
				case "materialize":
					ft.Materialize = isTrueOption(v)
				case "rows":
					if ft.Rows, err = p.rowsOption(v); err != nil {
						return nil, err
					}
				}
			}
			return ft, nil
		}
		// CREATE TABLE t (cols) AS SELECT — used by explicit materialization.
		if p.acceptKw("AS") {
			q, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			return &CreateTable{Name: name, Columns: cols, As: q}, nil
		}
		return &CreateTable{Name: name, Columns: cols}, nil

	default:
		return nil, p.errf("expected VIEW, TABLE, FOREIGN TABLE, or SERVER after CREATE, found %s", p.peek())
	}
}

func (p *parser) parseColumnDefs() ([]ColumnDef, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		// The type name may be an identifier or a keyword (DATE).
		t := p.peek()
		var typeName string
		switch t.kind {
		case tokIdent, tokKeyword:
			p.advance()
			typeName = t.text
		default:
			return nil, p.errf("expected type name for column %s, found %s", name, t)
		}
		// Two-token type names: DOUBLE PRECISION.
		if strings.EqualFold(typeName, "DOUBLE") {
			if n := p.peek(); n.kind == tokIdent && strings.EqualFold(n.text, "PRECISION") {
				p.advance()
			}
		}
		// Optional (n) or (n,m) length suffix.
		if p.skip("(") {
			for !p.skip(")") {
				if p.atEOF() {
					return nil, p.errf("unterminated type length")
				}
				p.advance()
			}
		}
		typ, err := sqltypes.ParseType(typeName)
		if err != nil {
			return nil, p.errf("column %s: %v", name, err)
		}
		cols = append(cols, ColumnDef{Name: name, Type: typ})
		if p.skip(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return cols, nil
	}
}

// parseOptions parses (key 'value', key 'value', ...), also accepting
// Hive's ('key' 'value', ...) and key='value' spellings.
func (p *parser) parseOptions() (map[string]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	opts := map[string]string{}
	for {
		var key string
		t := p.peek()
		switch t.kind {
		case tokIdent, tokQIdent, tokString, tokKeyword:
			p.advance()
			key = strings.ToLower(t.text)
		default:
			return nil, p.errf("expected option key, found %s", t)
		}
		p.skip("=")
		v := p.peek()
		if v.kind != tokString && v.kind != tokNumber && v.kind != tokIdent {
			return nil, p.errf("expected option value for %q, found %s", key, v)
		}
		p.advance()
		opts[key] = v.text
		if p.skip(",") {
			continue
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return opts, nil
	}
}

func isTrueOption(v string) bool { return v == "true" || v == "1" }

// rowsOption parses a foreign table's declared row estimate; absent, it is
// 0.
func (p *parser) rowsOption(v string) (int64, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, p.errf("bad rows option %q: want a non-negative integer", v)
	}
	return n, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	var kind string
	switch {
	case p.acceptKw("TABLE"):
		kind = "TABLE"
	case p.acceptKw("VIEW"):
		kind = "VIEW"
	case p.acceptKw("SERVER"):
		kind = "SERVER"
	case p.acceptKw("FOREIGN"):
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		kind = "TABLE"
	default:
		return nil, p.errf("expected TABLE, VIEW, or SERVER after DROP, found %s", p.peek())
	}
	ifExists := false
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		ifExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	return &Drop{Kind: kind, Name: name, IfExists: ifExists}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.kw("SELECT") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &Insert{Table: table, Query: q}, nil
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.skip(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.skip(",") {
			return ins, nil
		}
	}
}

// Expression grammar, precedence climbing:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := addExpr [cmp addExpr | BETWEEN .. | IN (..) | LIKE .. | IS [NOT] NULL]
//	addExpr := mulExpr (('+'|'-'|'||') mulExpr)*
//	mulExpr := unary (('*'|'/'|'%') unary)*
//	unary   := '-' unary | primary

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.kw("AND") {
		p.advance()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.parsePredicate()
}

var cmpOps = map[string]BinaryOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.advance()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	not := false
	if p.kw("NOT") {
		// Lookahead: NOT BETWEEN / NOT IN / NOT LIKE.
		next := p.toks[p.pos+1]
		if next.kind == tokKeyword && (next.text == "BETWEEN" || next.text == "IN" || next.text == "LIKE") {
			p.advance()
			not = true
		}
	}
	switch {
	case p.acceptKw("BETWEEN"):
		lo, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.acceptKw("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var list []Expr
		for {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, v)
			if p.skip(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: not}, nil
	case p.acceptKw("LIKE"):
		pat, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: l, Pattern: pat, Not: not}, nil
	case p.acceptKw("IS"):
		isNot := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: isNot}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.skip("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpAdd, L: l, R: r}
		case p.skip("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpSub, L: l, R: r}
		case p.skip("||"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpConcat, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.skip("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMul, L: l, R: r}
		case p.skip("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpDiv, L: l, R: r}
		case p.skip("%"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: OpMod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.skip("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			switch lit.Val.T {
			case sqltypes.TypeInt:
				return &Literal{Val: sqltypes.NewInt(-lit.Val.I())}, nil
			case sqltypes.TypeFloat:
				// 0 - f, not -f: a literal has no negative zero, which
				// would render as "-0" and parse back as the integer 0.
				return &Literal{Val: sqltypes.NewFloat(0 - lit.Val.F)}, nil
			}
		}
		return &NegExpr{E: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return &Literal{Val: sqltypes.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: sqltypes.NewInt(n)}, nil

	case tokString:
		p.advance()
		return &Literal{Val: sqltypes.NewString(t.text)}, nil

	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return &Literal{Val: sqltypes.Null}, nil
		case "TRUE":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(true)}, nil
		case "FALSE":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(false)}, nil
		case "DATE":
			p.advance()
			lit := p.peek()
			if lit.kind != tokString {
				// Not a DATE literal: treat the keyword as a bare column
				// reference named "date" (non-reserved).
				return &ColumnRef{Name: "date"}, nil
			}
			p.advance()
			v, err := sqltypes.ParseDate(lit.text)
			if err != nil {
				return nil, p.errf("%v", err)
			}
			return &Literal{Val: v}, nil
		case "INTERVAL":
			p.advance()
			lit := p.peek()
			var n int64
			var err error
			switch lit.kind {
			case tokString:
				n, err = strconv.ParseInt(lit.text, 10, 64)
			case tokNumber:
				n, err = strconv.ParseInt(lit.text, 10, 64)
			default:
				return nil, p.errf("expected interval quantity, found %s", lit)
			}
			if err != nil {
				return nil, p.errf("bad interval quantity %q", lit.text)
			}
			p.advance()
			u := p.peek()
			if u.kind != tokKeyword || (u.text != "YEAR" && u.text != "MONTH" && u.text != "DAY") {
				return nil, p.errf("expected YEAR, MONTH, or DAY, found %s", u)
			}
			p.advance()
			return &IntervalExpr{N: n, Unit: u.text}, nil
		case "EXTRACT":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			part := p.peek()
			if part.kind != tokKeyword || (part.text != "YEAR" && part.text != "MONTH" && part.text != "DAY") {
				return nil, p.errf("expected YEAR, MONTH, or DAY in EXTRACT, found %s", part)
			}
			p.advance()
			if err := p.expectKw("FROM"); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: "EXTRACT", Part: part.text, Args: []Expr{arg}}, nil
		case "CASE":
			return p.parseCase()
		case "SUBSTRING":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("FROM"); err != nil {
				return nil, err
			}
			from, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args := []Expr{arg, from}
			if p.acceptKw("FOR") {
				n, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, n)
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: "SUBSTRING", Args: args}, nil
		case "CAST":
			p.advance()
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("AS"); err != nil {
				return nil, err
			}
			typeName := p.peek()
			if typeName.kind != tokIdent && typeName.kind != tokKeyword {
				return nil, p.errf("expected type name in CAST, found %s", typeName)
			}
			p.advance()
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &FuncCall{Name: "CAST_" + upper(typeName.text), Args: []Expr{arg}}, nil
		}
		return nil, p.errf("unexpected keyword %s in expression", t.text)

	case tokIdent, tokQIdent:
		p.advance()
		name := t.text
		// Function call?
		if p.op("(") && t.kind == tokIdent {
			return p.parseFuncCall(name)
		}
		// Qualified column?
		if p.skip(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: name, Name: col}, nil
		}
		return &ColumnRef{Name: name}, nil

	case tokOp:
		if t.text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	f := &FuncCall{Name: upper(name)}
	if p.skip("*") {
		f.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.skip(")") {
		return f, nil
	}
	f.Distinct = p.acceptKw("DISTINCT")
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, a)
		if p.skip(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKw("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.acceptKw("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("THEN"); err != nil {
			return nil, err
		}
		res, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Result: res})
	}
	if len(c.Whens) == 0 {
		return nil, p.errf("CASE requires at least one WHEN arm")
	}
	if p.acceptKw("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKw("END"); err != nil {
		return nil, err
	}
	return c, nil
}
