package engine

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"xdb/internal/sqlparser"
	"xdb/internal/sqltypes"
)

// evalOn compiles and evaluates an expression against a one-row schema.
func evalOn(t *testing.T, expr string, schema *sqltypes.Schema, row sqltypes.Row) sqltypes.Value {
	t.Helper()
	e, err := sqlparser.ParseExpr(expr)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	fn, err := compileExpr(e, schema)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	v, err := fn(row)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func evalConst(t *testing.T, expr string) sqltypes.Value {
	t.Helper()
	return evalOn(t, expr, sqltypes.NewSchema(), nil)
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want sqltypes.Value
	}{
		{"1 + 2", sqltypes.NewInt(3)},
		{"7 - 10", sqltypes.NewInt(-3)},
		{"6 * 7", sqltypes.NewInt(42)},
		{"7 / 2", sqltypes.NewFloat(3.5)},
		{"7 % 3", sqltypes.NewInt(1)},
		{"1.5 + 2", sqltypes.NewFloat(3.5)},
		{"2 * 1.5", sqltypes.NewFloat(3)},
		{"1 - 0.5", sqltypes.NewFloat(0.5)},
		{"-(3 + 4)", sqltypes.NewInt(-7)},
		{"'a' || 'b'", sqltypes.NewString("ab")},
		{"1 || 'x'", sqltypes.NewString("1x")},
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr); !sqltypes.Equal(got, c.want) || got.T != c.want.T {
			t.Errorf("%s = %+v, want %+v", c.expr, got, c.want)
		}
	}
}

func TestArithmeticErrors(t *testing.T) {
	for _, expr := range []string{"1 / 0", "1.0 / 0", "1 % 0", "1.5 % 2", "-'x'"} {
		e, err := sqlparser.ParseExpr(expr)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := compileExpr(e, sqltypes.NewSchema())
		if err != nil {
			continue // compile-time rejection also acceptable
		}
		if _, err := fn(nil); err == nil {
			t.Errorf("%s evaluated without error", expr)
		}
	}
}

// TestStringsAreNotNumbers checks that arithmetic, SUM/AVG and SUBSTRING's
// positions refuse a VARCHAR operand, as PostgreSQL does, instead of
// reading its payload (a string's length) as a number, while COUNT, MIN
// and MAX still take one.
func TestStringsAreNotNumbers(t *testing.T) {
	e := New(Config{Name: "db1", Vendor: VendorTest})
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "s", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "i", Type: sqltypes.TypeInt},
	)
	rows := []sqltypes.Row{
		{sqltypes.NewString("abc"), sqltypes.NewInt(1)},
		{sqltypes.NewString("hello"), sqltypes.NewInt(2)},
		{sqltypes.NewString(""), sqltypes.NewInt(3)},
	}
	if err := e.LoadTable("t", schema, rows); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT SUM(s) FROM t",
		"SELECT AVG(s) FROM t",
		"SELECT SUM(DISTINCT s) FROM t",
		"SELECT s + 1 FROM t",
		"SELECT 1 - s FROM t",
		"SELECT s * i FROM t",
		"SELECT i / s FROM t",
		"SELECT SUBSTRING(s FROM s) FROM t",
		"SELECT SUBSTRING(s FROM 1 FOR s) FROM t",
	} {
		res, err := e.QueryAll(q)
		if err == nil {
			t.Errorf("%s = %v, want an error", q, res.Rows)
		} else if !strings.Contains(err.Error(), "VARCHAR") {
			t.Errorf("%s: error %q names no VARCHAR", q, err)
		}
	}
	for q, want := range map[string]string{
		"SELECT COUNT(s), MIN(s), MAX(s) FROM t":  "3||hello",
		"SELECT SUM(i), AVG(i) FROM t":            "6|2",
		"SELECT SUBSTRING(s FROM i FOR i) FROM t": "a",
	} {
		res, err := e.QueryAll(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		var got []string
		for _, v := range res.Rows[0] {
			got = append(got, v.String())
		}
		if g := strings.Join(got, "|"); g != want {
			t.Errorf("%s = %s, want %s", q, g, want)
		}
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	truthy := []string{
		"1 < 2", "2 <= 2", "3 > 2", "3 >= 3", "1 = 1", "1 <> 2", "1 != 2",
		"'a' < 'b'", "TRUE", "NOT FALSE", "TRUE AND TRUE", "FALSE OR TRUE",
		"1 BETWEEN 0 AND 2", "3 NOT BETWEEN 0 AND 2",
		"2 IN (1, 2, 3)", "5 NOT IN (1, 2)",
		"'hello' LIKE 'h%'", "'hello' NOT LIKE 'x%'",
		"NULL IS NULL", "1 IS NOT NULL",
		"CASE WHEN 1 = 1 THEN TRUE ELSE FALSE END",
	}
	for _, expr := range truthy {
		if got := evalConst(t, expr); !got.Bool() {
			t.Errorf("%s = %v, want true", expr, got)
		}
	}
	falsy := []string{
		"2 < 1", "1 = 2", "FALSE AND TRUE", "FALSE OR FALSE",
		"5 BETWEEN 0 AND 2", "5 IN (1, 2)", "'x' LIKE 'y%'", "1 IS NULL",
	}
	for _, expr := range falsy {
		if got := evalConst(t, expr); got.Bool() {
			t.Errorf("%s = %v, want false", expr, got)
		}
	}
}

// TestStringEqualityMatchesCompare holds the string kernel's = and <> to
// sqltypes.Compare over generated strings: the empty string, prefix pairs,
// non-ASCII bytes, and column values that are NULL (never true) or not
// strings (Compare's error), with the literal on either side.
func TestStringEqualityMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"", "a", "b", "ab", "é", "日本", "\xff", " ", "'"}
	gen := func() string {
		var b strings.Builder
		for n := rng.Intn(4); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	var strs []string
	for i := 0; i < 40; i++ {
		s := gen()
		strs = append(strs, s, s+gen(), s+"é")
	}
	schema := sqltypes.NewSchema(sqltypes.Column{Name: "c", Type: sqltypes.TypeString})
	values := []sqltypes.Value{sqltypes.Null, sqltypes.NewInt(1), sqltypes.NewFloat(1)}
	for _, s := range strs {
		values = append(values, sqltypes.NewString(s))
	}
	for _, lit := range strs[:30] {
		for _, op := range []string{"=", "<>"} {
			for _, sql := range []string{"c " + op + " " + sqltypes.QuoteString(lit), sqltypes.QuoteString(lit) + " " + op + " c"} {
				e, err := sqlparser.ParseExpr(sql)
				if err != nil {
					t.Fatalf("parse %q: %v", sql, err)
				}
				pred, err := compilePred(e, schema)
				if err != nil {
					t.Fatalf("compile %q: %v", sql, err)
				}
				for _, v := range values {
					got, gotErr := pred(sqltypes.Row{v})
					c, err := sqltypes.Compare(v, sqltypes.NewString(lit))
					want := err == nil && !v.IsNull() && (c == 0) == (op == "=")
					if got != want || (gotErr != nil) != (err != nil) {
						t.Errorf("%s with c = %v: %v (err %v), Compare says %v (err %v)", sql, v, got, gotErr, want, err)
					}
				}
			}
		}
	}
}

func TestNullSemantics(t *testing.T) {
	// Three-valued logic.
	nulls := []string{
		"NULL + 1", "NULL = 1", "NULL AND TRUE", "NULL OR FALSE",
		"NOT NULL", "NULL BETWEEN 1 AND 2", "NULL IN (1)", "NULL LIKE 'x'",
		"CASE WHEN FALSE THEN 1 END",
	}
	for _, expr := range nulls {
		if got := evalConst(t, expr); !got.IsNull() {
			t.Errorf("%s = %v, want NULL", expr, got)
		}
	}
	// Short-circuit cases that are NOT null.
	if got := evalConst(t, "FALSE AND NULL"); got.Bool() || got.IsNull() {
		t.Errorf("FALSE AND NULL = %v, want false", got)
	}
	if got := evalConst(t, "TRUE OR NULL"); !got.Bool() {
		t.Errorf("TRUE OR NULL = %v, want true", got)
	}
	if got := evalConst(t, "COALESCE(NULL, 5)"); got.Int() != 5 {
		t.Errorf("COALESCE = %v", got)
	}
}

func TestDateFunctions(t *testing.T) {
	if got := evalConst(t, "EXTRACT(YEAR FROM DATE '1995-06-17')"); got.Int() != 1995 {
		t.Errorf("year = %v", got)
	}
	if got := evalConst(t, "EXTRACT(MONTH FROM DATE '1995-06-17')"); got.Int() != 6 {
		t.Errorf("month = %v", got)
	}
	if got := evalConst(t, "EXTRACT(DAY FROM DATE '1995-06-17')"); got.Int() != 17 {
		t.Errorf("day = %v", got)
	}
	if got := evalConst(t, "DATE '1994-01-01' + INTERVAL '1' YEAR"); got.String() != "1995-01-01" {
		t.Errorf("+1 year = %v", got)
	}
	if got := evalConst(t, "DATE '1994-01-31' + INTERVAL '1' MONTH"); got.String() != "1994-03-03" {
		// Go's AddDate normalizes Feb 31 -> Mar 3; document the behaviour.
		t.Errorf("+1 month = %v", got)
	}
	if got := evalConst(t, "DATE '1994-01-01' - INTERVAL '1' DAY"); got.String() != "1993-12-31" {
		t.Errorf("-1 day = %v", got)
	}
	if got := evalConst(t, "DATE '1994-01-01' + 30"); got.String() != "1994-01-31" {
		t.Errorf("+30 days = %v", got)
	}
	if got := evalConst(t, "DATE '1995-01-01' > DATE '1994-12-31'"); !got.Bool() {
		t.Error("date comparison failed")
	}
}

func TestStringFunctions(t *testing.T) {
	cases := []struct {
		expr, want string
	}{
		{"SUBSTRING('abcdef' FROM 2 FOR 3)", "bcd"},
		{"SUBSTRING('abcdef' FROM 4)", "def"},
		{"SUBSTRING('ab' FROM 5 FOR 2)", ""},
		{"UPPER('mixed')", "MIXED"},
		{"LOWER('MiXeD')", "mixed"},
	}
	for _, c := range cases {
		if got := evalConst(t, c.expr); got.String() != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}

func TestCast(t *testing.T) {
	if got := evalConst(t, "CAST('2020-05-06' AS DATE)"); got.String() != "2020-05-06" {
		t.Errorf("cast date = %v", got)
	}
	if got := evalConst(t, "CAST(3.9 AS BIGINT)"); got.Int() != 3 {
		t.Errorf("cast int = %v", got)
	}
	if got := evalConst(t, "CAST(42 AS VARCHAR)"); got.String() != "42" {
		t.Errorf("cast string = %v", got)
	}
	e, _ := sqlparser.ParseExpr("CAST('abc' AS DATE)")
	fn, err := compileExpr(e, sqltypes.NewSchema())
	if err == nil {
		if _, err := fn(nil); err == nil {
			t.Error("bad cast succeeded")
		}
	}
}

func TestColumnReferences(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "a", Table: "t", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "b", Table: "t", Type: sqltypes.TypeString},
	)
	row := sqltypes.Row{sqltypes.NewInt(10), sqltypes.NewString("xy")}
	if got := evalOn(t, "t.a * 2", schema, row); got.Int() != 20 {
		t.Errorf("t.a*2 = %v", got)
	}
	if got := evalOn(t, "b || '!'", schema, row); got.String() != "xy!" {
		t.Errorf("b||'!' = %v", got)
	}
	e, _ := sqlparser.ParseExpr("t.nosuch")
	if _, err := compileExpr(e, schema); err == nil {
		t.Error("unknown column compiled")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "_", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"abc", "%a%b%c%", true},
		{"abc", "a_c", true},
		{"abc", "ab", false},
		{"abc", "abcd", false},
		{"forest green metallic", "%green%", true},
		{"aaa", "a%a", true},
		{"ab", "b%", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestLikeMatchProperties(t *testing.T) {
	// Property 1: any string matches its own literal pattern.
	self := func(s string) bool { return likeMatch(s, s) || strings.ContainsAny(s, "%_") }
	if err := quick.Check(self, nil); err != nil {
		t.Error(err)
	}
	// Property 2: "%" matches everything; "prefix%" matches any extension.
	r := rand.New(rand.NewSource(3))
	letters := "abcxyz"
	randStr := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = letters[r.Intn(len(letters))]
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		s := randStr(r.Intn(12))
		if !likeMatch(s, "%") {
			t.Fatalf("%%%% failed on %q", s)
		}
		cut := 0
		if len(s) > 0 {
			cut = r.Intn(len(s))
		}
		if !likeMatch(s, s[:cut]+"%") {
			t.Fatalf("prefix%% failed on %q cut %d", s, cut)
		}
		if !likeMatch(s, "%"+s[cut:]) {
			t.Fatalf("%%suffix failed on %q cut %d", s, cut)
		}
	}
}

func TestInferType(t *testing.T) {
	schema := sqltypes.NewSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.TypeInt},
		sqltypes.Column{Name: "f", Type: sqltypes.TypeFloat},
		sqltypes.Column{Name: "s", Type: sqltypes.TypeString},
		sqltypes.Column{Name: "d", Type: sqltypes.TypeDate},
	)
	cases := []struct {
		expr string
		want sqltypes.Type
	}{
		{"i + 1", sqltypes.TypeInt},
		{"i + f", sqltypes.TypeFloat},
		{"i / 2", sqltypes.TypeFloat},
		{"i = 1", sqltypes.TypeBool},
		{"s || 'x'", sqltypes.TypeString},
		{"d + INTERVAL '1' YEAR", sqltypes.TypeDate},
		{"d + 3", sqltypes.TypeDate},
		{"EXTRACT(YEAR FROM d)", sqltypes.TypeInt},
		{"COUNT(*)", sqltypes.TypeInt},
		{"SUM(i)", sqltypes.TypeInt},
		{"SUM(f)", sqltypes.TypeFloat},
		{"AVG(i)", sqltypes.TypeFloat},
		{"MIN(s)", sqltypes.TypeString},
		{"CASE WHEN i = 1 THEN 'a' ELSE 'b' END", sqltypes.TypeString},
		{"i BETWEEN 1 AND 2", sqltypes.TypeBool},
		{"SUBSTRING(s FROM 1 FOR 2)", sqltypes.TypeString},
		{"COALESCE(i, 0)", sqltypes.TypeInt},
	}
	for _, c := range cases {
		e, err := sqlparser.ParseExpr(c.expr)
		if err != nil {
			t.Fatal(err)
		}
		if got := inferType(e, schema); got != c.want {
			t.Errorf("inferType(%s) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestEvalConstExpr(t *testing.T) {
	e, _ := sqlparser.ParseExpr("2 * 21")
	v, err := evalConstExpr(e)
	if err != nil || v.Int() != 42 {
		t.Errorf("evalConstExpr = %v, %v", v, err)
	}
	e, _ = sqlparser.ParseExpr("missing_col")
	if _, err := evalConstExpr(e); err == nil {
		t.Error("column ref in const context succeeded")
	}
}
