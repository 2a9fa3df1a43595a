package engine

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// compiledExpr is an expression bound to a concrete input schema: column
// references have been resolved to positional indexes, so evaluation is a
// tree walk with no name lookups.
type compiledExpr func(row sqltypes.Row) (sqltypes.Value, error)

// compileExpr binds e against the schema.
func compileExpr(e sqlparser.Expr, schema *sqltypes.Schema) (compiledExpr, error) {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		idx, err := schema.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, err
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			return row[idx], nil
		}, nil

	case *sqlparser.Literal:
		v := x.Val
		return func(sqltypes.Row) (sqltypes.Value, error) { return v, nil }, nil

	case *sqlparser.BinaryExpr:
		return compileBinary(x, schema)

	case *sqlparser.NotExpr:
		inner, err := compileExpr(x.E, schema)
		if err != nil {
			return nil, err
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			v, err := inner(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(!v.Bool()), nil
		}, nil

	case *sqlparser.NegExpr:
		inner, err := compileExpr(x.E, schema)
		if err != nil {
			return nil, err
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			v, err := inner(row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			switch v.T {
			case sqltypes.TypeInt:
				return sqltypes.NewInt(-v.I()), nil
			case sqltypes.TypeFloat:
				return sqltypes.NewFloat(-v.F), nil
			}
			return sqltypes.Null, fmt.Errorf("engine: cannot negate %v", v.T)
		}, nil

	case *sqlparser.FuncCall:
		return compileFunc(x, schema)

	case *sqlparser.CaseExpr:
		type arm struct {
			cond   compiledPred
			result compiledExpr
		}
		arms := make([]arm, len(x.Whens))
		for i, w := range x.Whens {
			c, err := compilePred(w.Cond, schema)
			if err != nil {
				return nil, err
			}
			r, err := compileExpr(w.Result, schema)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{cond: c, result: r}
		}
		var elseFn compiledExpr
		if x.Else != nil {
			var err error
			elseFn, err = compileExpr(x.Else, schema)
			if err != nil {
				return nil, err
			}
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			for _, a := range arms {
				ok, err := a.cond(row)
				if err != nil {
					return sqltypes.Null, err
				}
				if ok {
					return a.result(row)
				}
			}
			if elseFn != nil {
				return elseFn(row)
			}
			return sqltypes.Null, nil
		}, nil

	case *sqlparser.BetweenExpr:
		v, err := compileExpr(x.E, schema)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(x.Lo, schema)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(x.Hi, schema)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			val, err := v(row)
			if err != nil || val.IsNull() {
				return sqltypes.Null, err
			}
			loV, err := lo(row)
			if err != nil {
				return sqltypes.Null, err
			}
			hiV, err := hi(row)
			if err != nil {
				return sqltypes.Null, err
			}
			c1, err := sqltypes.Compare(val, loV)
			if err != nil {
				return sqltypes.Null, err
			}
			c2, err := sqltypes.Compare(val, hiV)
			if err != nil {
				return sqltypes.Null, err
			}
			in := c1 >= 0 && c2 <= 0
			return sqltypes.NewBool(in != not), nil
		}, nil

	case *sqlparser.InExpr:
		v, err := compileExpr(x.E, schema)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(x.List))
		for i, it := range x.List {
			items[i], err = compileExpr(it, schema)
			if err != nil {
				return nil, err
			}
		}
		not := x.Not
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			val, err := v(row)
			if err != nil || val.IsNull() {
				return sqltypes.Null, err
			}
			for _, it := range items {
				iv, err := it(row)
				if err != nil {
					return sqltypes.Null, err
				}
				if c, err := sqltypes.Compare(val, iv); err == nil && c == 0 {
					return sqltypes.NewBool(!not), nil
				}
			}
			return sqltypes.NewBool(not), nil
		}, nil

	case *sqlparser.LikeExpr:
		v, err := compileExpr(x.E, schema)
		if err != nil {
			return nil, err
		}
		p, err := compileExpr(x.Pattern, schema)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			val, err := v(row)
			if err != nil || val.IsNull() {
				return sqltypes.Null, err
			}
			pat, err := p(row)
			if err != nil || pat.IsNull() {
				return sqltypes.Null, err
			}
			m := likeMatch(val.String(), pat.String())
			return sqltypes.NewBool(m != not), nil
		}, nil

	case *sqlparser.IsNullExpr:
		v, err := compileExpr(x.E, schema)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			val, err := v(row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(val.IsNull() != not), nil
		}, nil

	case *sqlparser.IntervalExpr:
		return nil, fmt.Errorf("engine: INTERVAL is only valid in date arithmetic")

	default:
		return nil, fmt.Errorf("engine: cannot compile expression %T", e)
	}
}

// compiledPred is a condition bound to an input schema and evaluated for
// its truth only. NULL counts as false, which is all a WHERE, HAVING, CASE
// or join condition asks, so no boolean Value is ever built.
type compiledPred func(row sqltypes.Row) (bool, error)

// compilePred binds a condition. AND, OR and comparisons of a column with a
// literal get kernels of their own; every other expression is evaluated by
// compileExpr and tested for truth. (One difference from evaluating AND as
// a value: a NULL left side short-circuits like a false one, so the right
// side is not evaluated for its errors.)
func compilePred(e sqlparser.Expr, schema *sqltypes.Schema) (compiledPred, error) {
	if x, ok := e.(*sqlparser.BinaryExpr); ok {
		switch {
		case x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr:
			l, err := compilePred(x.L, schema)
			if err != nil {
				return nil, err
			}
			r, err := compilePred(x.R, schema)
			if err != nil {
				return nil, err
			}
			stop := x.Op == sqlparser.OpOr // the left result that decides alone
			return func(row sqltypes.Row) (bool, error) {
				if ok, err := l(row); err != nil || ok == stop {
					return ok, err
				}
				return r(row)
			}, nil
		case x.Op.IsComparison():
			col, lcol := x.L.(*sqlparser.ColumnRef)
			lit, rlit := x.R.(*sqlparser.Literal)
			op := x.Op
			if !lcol || !rlit {
				// literal <op> column reads as column <flipped op> literal
				col, lcol = x.R.(*sqlparser.ColumnRef)
				lit, rlit = x.L.(*sqlparser.Literal)
				op = flipComparison(op)
			}
			if lcol && rlit {
				idx, err := schema.Resolve(col.Table, col.Name)
				if err != nil {
					return nil, err
				}
				return compareColumnLiteral(idx, comparisonTable(op), lit.Val), nil
			}
		}
	}
	fn, err := compileExpr(e, schema)
	if err != nil {
		return nil, err
	}
	return func(row sqltypes.Row) (bool, error) {
		v, err := fn(row)
		return v.Bool(), err
	}, nil
}

// comparisonTable maps Compare(l, r) + 1 to whether l <op> r holds.
func comparisonTable(op sqlparser.BinaryOp) [3]bool {
	switch op {
	case sqlparser.OpEq:
		return [3]bool{false, true, false}
	case sqlparser.OpNe:
		return [3]bool{true, false, true}
	case sqlparser.OpLt:
		return [3]bool{true, false, false}
	case sqlparser.OpLe:
		return [3]bool{true, true, false}
	case sqlparser.OpGt:
		return [3]bool{false, false, true}
	default: // OpGe
		return [3]bool{false, true, true}
	}
}

func flipComparison(op sqlparser.BinaryOp) sqlparser.BinaryOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	}
	return op
}

// compareColumnLiteral tests row[idx] <op> lit. The kernel is picked from
// the literal's type and checks the column value's type per row: values of
// the literal's own family are compared on their payloads, anything else
// (NULL, a type Compare rejects) takes the general path.
func compareColumnLiteral(idx int, holds [3]bool, lit sqltypes.Value) compiledPred {
	general := func(v sqltypes.Value) (bool, error) {
		if v.IsNull() || lit.IsNull() {
			return false, nil
		}
		c, err := sqltypes.Compare(v, lit)
		if err != nil {
			return false, err
		}
		return holds[c+1], nil
	}
	switch {
	case intFamily(lit):
		li := lit.I()
		return func(row sqltypes.Row) (bool, error) {
			if v := row[idx]; intFamily(v) {
				return holds[cmp.Compare(v.I(), li)+1], nil
			}
			return general(row[idx])
		}
	case lit.T == sqltypes.TypeFloat:
		return func(row sqltypes.Row) (bool, error) {
			switch v := row[idx]; v.T {
			case sqltypes.TypeFloat:
				return holds[sqltypes.CompareFloat(v.F, lit.F)+1], nil
			case sqltypes.TypeInt:
				return holds[sqltypes.CompareFloat(float64(v.I()), lit.F)+1], nil
			}
			return general(row[idx])
		}
	case lit.T == sqltypes.TypeString:
		ls := lit.Str()
		return func(row sqltypes.Row) (bool, error) {
			if v := row[idx]; v.T == sqltypes.TypeString {
				return holds[cmp.Compare(v.Str(), ls)+1], nil
			}
			return general(row[idx])
		}
	}
	return func(row sqltypes.Row) (bool, error) { return general(row[idx]) }
}

func compileBinary(x *sqlparser.BinaryExpr, schema *sqltypes.Schema) (compiledExpr, error) {
	// Date +/- INTERVAL is special-cased before compiling the right side.
	if iv, ok := x.R.(*sqlparser.IntervalExpr); ok && (x.Op == sqlparser.OpAdd || x.Op == sqlparser.OpSub) {
		l, err := compileExpr(x.L, schema)
		if err != nil {
			return nil, err
		}
		n := iv.N
		if x.Op == sqlparser.OpSub {
			n = -n
		}
		unit := iv.Unit
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			v, err := l(row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			if v.T != sqltypes.TypeDate {
				return sqltypes.Null, fmt.Errorf("engine: INTERVAL arithmetic on %v", v.T)
			}
			t := v.Time()
			switch unit {
			case "YEAR":
				t = t.AddDate(int(n), 0, 0)
			case "MONTH":
				t = t.AddDate(0, int(n), 0)
			default:
				t = t.AddDate(0, 0, int(n))
			}
			return sqltypes.NewDate(t.Unix() / 86400), nil
		}, nil
	}

	l, err := compileExpr(x.L, schema)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(x.R, schema)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch op {
	case sqlparser.OpAnd:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := l(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if !lv.IsNull() && !lv.Bool() {
				return sqltypes.NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if !rv.IsNull() && !rv.Bool() {
				return sqltypes.NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(true), nil
		}, nil
	case sqlparser.OpOr:
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := l(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.Bool() {
				return sqltypes.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if rv.Bool() {
				return sqltypes.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(false), nil
		}, nil
	}

	if op.IsComparison() {
		holds := comparisonTable(op)
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := l(row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			c, err := sqltypes.Compare(lv, rv)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(holds[c+1]), nil
		}, nil
	}

	if op == sqlparser.OpConcat {
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			lv, err := l(row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewString(lv.String() + rv.String()), nil
		}, nil
	}

	// Arithmetic.
	return func(row sqltypes.Row) (sqltypes.Value, error) {
		lv, err := l(row)
		if err != nil {
			return sqltypes.Null, err
		}
		rv, err := r(row)
		if err != nil {
			return sqltypes.Null, err
		}
		if lv.IsNull() || rv.IsNull() {
			return sqltypes.Null, nil
		}
		return arith(op, lv, rv)
	}, nil
}

func arith(op sqlparser.BinaryOp, a, b sqltypes.Value) (sqltypes.Value, error) {
	// A string is no number (its payload is its length), as in PostgreSQL.
	if a.T == sqltypes.TypeString || b.T == sqltypes.TypeString {
		return sqltypes.Null, fmt.Errorf("engine: cannot compute %v %v %v", a.T, op, b.T)
	}
	// Date arithmetic with integer day offsets.
	if a.T == sqltypes.TypeDate && b.T == sqltypes.TypeInt {
		switch op {
		case sqlparser.OpAdd:
			return sqltypes.NewDate(a.I() + b.I()), nil
		case sqlparser.OpSub:
			return sqltypes.NewDate(a.I() - b.I()), nil
		}
	}
	intOp := a.T == sqltypes.TypeInt && b.T == sqltypes.TypeInt
	switch op {
	case sqlparser.OpAdd:
		if intOp {
			return sqltypes.NewInt(a.I() + b.I()), nil
		}
		return sqltypes.NewFloat(a.Float() + b.Float()), nil
	case sqlparser.OpSub:
		if intOp {
			return sqltypes.NewInt(a.I() - b.I()), nil
		}
		return sqltypes.NewFloat(a.Float() - b.Float()), nil
	case sqlparser.OpMul:
		if intOp {
			return sqltypes.NewInt(a.I() * b.I()), nil
		}
		return sqltypes.NewFloat(a.Float() * b.Float()), nil
	case sqlparser.OpDiv:
		if b.Float() == 0 {
			return sqltypes.Null, fmt.Errorf("engine: division by zero")
		}
		return sqltypes.NewFloat(a.Float() / b.Float()), nil
	case sqlparser.OpMod:
		if !intOp {
			return sqltypes.Null, fmt.Errorf("engine: %% requires integers")
		}
		if b.I() == 0 {
			return sqltypes.Null, fmt.Errorf("engine: division by zero")
		}
		return sqltypes.NewInt(a.I() % b.I()), nil
	}
	return sqltypes.Null, fmt.Errorf("engine: unsupported arithmetic operator %v", op)
}

func compileFunc(x *sqlparser.FuncCall, schema *sqltypes.Schema) (compiledExpr, error) {
	if x.IsAggregate() {
		return nil, fmt.Errorf("engine: aggregate %s outside of aggregation context", x.Name)
	}
	switch x.Name {
	case "EXTRACT":
		arg, err := compileExpr(x.Args[0], schema)
		if err != nil {
			return nil, err
		}
		part := x.Part
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			v, err := arg(row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			if v.T != sqltypes.TypeDate {
				return sqltypes.Null, fmt.Errorf("engine: EXTRACT from %v", v.T)
			}
			t := v.Time()
			switch part {
			case "YEAR":
				return sqltypes.NewInt(int64(t.Year())), nil
			case "MONTH":
				return sqltypes.NewInt(int64(t.Month())), nil
			default:
				return sqltypes.NewInt(int64(t.Day())), nil
			}
		}, nil

	case "SUBSTRING":
		if len(x.Args) < 2 {
			return nil, fmt.Errorf("engine: SUBSTRING needs at least 2 arguments")
		}
		args := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			var err error
			args[i], err = compileExpr(a, schema)
			if err != nil {
				return nil, err
			}
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			s, err := args[0](row)
			if err != nil || s.IsNull() {
				return sqltypes.Null, err
			}
			from, err := args[1](row)
			if err != nil || from.IsNull() {
				return sqltypes.Null, err
			}
			str := s.String()
			start, err := position(from)
			if err != nil {
				return sqltypes.Null, err
			}
			start-- // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(str) {
				start = len(str)
			}
			end := len(str)
			if len(args) == 3 {
				n, err := args[2](row)
				if err != nil || n.IsNull() {
					return sqltypes.Null, err
				}
				count, err := position(n)
				if err != nil {
					return sqltypes.Null, err
				}
				if e := start + count; e < end {
					end = e
				}
				if end < start {
					end = start
				}
			}
			return sqltypes.NewString(str[start:end]), nil
		}, nil

	case "UPPER", "LOWER":
		arg, err := compileExpr(x.Args[0], schema)
		if err != nil {
			return nil, err
		}
		up := x.Name == "UPPER"
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			v, err := arg(row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			if up {
				return sqltypes.NewString(strings.ToUpper(v.String())), nil
			}
			return sqltypes.NewString(strings.ToLower(v.String())), nil
		}, nil

	case "COALESCE":
		args := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			var err error
			args[i], err = compileExpr(a, schema)
			if err != nil {
				return nil, err
			}
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			for _, a := range args {
				v, err := a(row)
				if err != nil {
					return sqltypes.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return sqltypes.Null, nil
		}, nil
	}

	if strings.HasPrefix(x.Name, "CAST_") {
		arg, err := compileExpr(x.Args[0], schema)
		if err != nil {
			return nil, err
		}
		target, err := sqltypes.ParseType(strings.TrimPrefix(x.Name, "CAST_"))
		if err != nil {
			return nil, err
		}
		return func(row sqltypes.Row) (sqltypes.Value, error) {
			v, err := arg(row)
			if err != nil || v.IsNull() {
				return sqltypes.Null, err
			}
			return castValue(v, target)
		}, nil
	}

	return nil, fmt.Errorf("engine: unknown function %s", x.Name)
}

// position reads SUBSTRING's start or length. A string is no number (its
// payload is its length), as in PostgreSQL.
func position(v sqltypes.Value) (int, error) {
	if v.T == sqltypes.TypeString {
		return 0, fmt.Errorf("engine: cannot compute SUBSTRING at a %v position", v.T)
	}
	return int(v.Int()), nil
}

func castValue(v sqltypes.Value, target sqltypes.Type) (sqltypes.Value, error) {
	switch target {
	case sqltypes.TypeInt:
		switch v.T {
		case sqltypes.TypeInt, sqltypes.TypeFloat, sqltypes.TypeBool, sqltypes.TypeDate:
			return sqltypes.NewInt(v.Int()), nil
		}
	case sqltypes.TypeFloat:
		switch v.T {
		case sqltypes.TypeInt, sqltypes.TypeFloat:
			return sqltypes.NewFloat(v.Float()), nil
		}
	case sqltypes.TypeString:
		return sqltypes.NewString(v.String()), nil
	case sqltypes.TypeDate:
		if v.T == sqltypes.TypeString {
			return sqltypes.ParseDate(v.Str())
		}
		if v.T == sqltypes.TypeDate {
			return v, nil
		}
	}
	return sqltypes.Null, fmt.Errorf("engine: cannot cast %v to %v", v.T, target)
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	// Dynamic programming over the pattern; iterative two-pointer with
	// backtracking on the last %.
	var si, pi int
	star, matchIdx := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			matchIdx = si
			pi++
		case star >= 0:
			pi = star + 1
			matchIdx++
			si = matchIdx
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// inferType computes the static result type of an expression against a
// schema, used to build view and projection schemas.
func inferType(e sqlparser.Expr, schema *sqltypes.Schema) sqltypes.Type {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		if idx, err := schema.Resolve(x.Table, x.Name); err == nil {
			return schema.Columns[idx].Type
		}
		return sqltypes.TypeNull
	case *sqlparser.Literal:
		return x.Val.T
	case *sqlparser.BinaryExpr:
		if x.Op.IsComparison() || x.Op == sqlparser.OpAnd || x.Op == sqlparser.OpOr {
			return sqltypes.TypeBool
		}
		if x.Op == sqlparser.OpConcat {
			return sqltypes.TypeString
		}
		lt, rt := inferType(x.L, schema), inferType(x.R, schema)
		if _, ok := x.R.(*sqlparser.IntervalExpr); ok {
			return lt
		}
		if lt == sqltypes.TypeDate && rt == sqltypes.TypeInt {
			return sqltypes.TypeDate
		}
		if x.Op == sqlparser.OpDiv {
			return sqltypes.TypeFloat
		}
		if lt == sqltypes.TypeFloat || rt == sqltypes.TypeFloat {
			return sqltypes.TypeFloat
		}
		return sqltypes.TypeInt
	case *sqlparser.NotExpr, *sqlparser.BetweenExpr, *sqlparser.InExpr,
		*sqlparser.LikeExpr, *sqlparser.IsNullExpr:
		return sqltypes.TypeBool
	case *sqlparser.NegExpr:
		return inferType(x.E, schema)
	case *sqlparser.CaseExpr:
		for _, w := range x.Whens {
			if t := inferType(w.Result, schema); t != sqltypes.TypeNull {
				return t
			}
		}
		if x.Else != nil {
			return inferType(x.Else, schema)
		}
		return sqltypes.TypeNull
	case *sqlparser.FuncCall:
		switch x.Name {
		case "COUNT":
			return sqltypes.TypeInt
		case "AVG":
			return sqltypes.TypeFloat
		case "SUM":
			if len(x.Args) == 1 && inferType(x.Args[0], schema) == sqltypes.TypeInt {
				return sqltypes.TypeInt
			}
			return sqltypes.TypeFloat
		case "MIN", "MAX":
			if len(x.Args) == 1 {
				return inferType(x.Args[0], schema)
			}
			return sqltypes.TypeNull
		case "EXTRACT":
			return sqltypes.TypeInt
		case "SUBSTRING", "UPPER", "LOWER":
			return sqltypes.TypeString
		case "COALESCE":
			for _, a := range x.Args {
				if t := inferType(a, schema); t != sqltypes.TypeNull {
					return t
				}
			}
			return sqltypes.TypeNull
		}
		if strings.HasPrefix(x.Name, "CAST_") {
			if t, err := sqltypes.ParseType(strings.TrimPrefix(x.Name, "CAST_")); err == nil {
				return t
			}
		}
		return sqltypes.TypeNull
	default:
		return sqltypes.TypeNull
	}
}

// evalConstExpr evaluates an expression with no column references, used for
// INSERT ... VALUES rows.
func evalConstExpr(e sqlparser.Expr) (sqltypes.Value, error) {
	empty := sqltypes.NewSchema()
	fn, err := compileExpr(e, empty)
	if err != nil {
		return sqltypes.Null, err
	}
	return fn(nil)
}

// timeNow is a seam for tests; production code always uses time.Now.
var timeNow = time.Now
