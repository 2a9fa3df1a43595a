package sqltypes

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestValueLayout pins the layout: a Value is a tag, one 8-byte payload and
// a pointer (24 bytes with 8-byte pointers, 16 with 4-byte ones), and it is
// not comparable, so no == and no map keyed by Value compiles. It keeps at
// most four fields, the blank one included: the compiler keeps a struct of
// at most four fields in registers, and a prototype with a fifth (the
// string length as a uint32 beside T, the same 24 bytes) ran warm-raw
// about a fifth slower (qps medians 155.7 against 120.7, 3 alternations).
func TestValueLayout(t *testing.T) {
	want := uintptr(24)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		want = 16
	}
	if got := unsafe.Sizeof(Value{}); got != want {
		t.Errorf("Value is %d bytes, want %d", got, want)
	}
	if n := reflect.TypeOf(Value{}).NumField(); n > 4 {
		t.Errorf("Value has %d fields, want at most 4", n)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable")
	}
}

// TestIntPayloadInF checks that every int64 payload survives F: the
// extremes, values whose bits are a NaN's or a negative zero's, and dates
// before 1970.
func TestIntPayloadInF(t *testing.T) {
	for _, i := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64,
		int64(math.Float64bits(math.NaN())), int64(math.Float64bits(math.Copysign(0, -1))), -1<<52 | 1, 0x7ff0000000000001} {
		for _, v := range []Value{NewInt(i), NewDate(i)} {
			if v.I() != i || v.Int() != i {
				t.Errorf("%v: I() = %d, Int() = %d, want %d", v.T, v.I(), v.Int(), i)
			}
			if got, _, err := DecodeValue(AppendValue(nil, v)); err != nil || got.T != v.T || got.I() != i {
				t.Errorf("%v %d: round trip %v %d, err %v", v.T, i, got.T, got.I(), err)
			}
		}
	}
	if NewBool(true).I() != 1 || NewBool(false).I() != 0 || Null.I() != 0 {
		t.Error("bool or NULL payload")
	}
	for _, s := range []string{"", "x", "hello"} {
		if v := NewString(s); v.I() != int64(len(s)) {
			t.Errorf("a string's I() is %d, want its length %d", v.I(), len(s))
		}
	}
}

// TestStringPayloadOutlivesItsSource checks that a string Value keeps its
// bytes alive by its pointer alone: values made by NewString over a built
// string and over a substring of one, and decoded from binary and text
// frames and a lone value, still read their bytes once every source is
// dropped, collected and its memory reused. Str of every other type is "".
func TestStringPayloadOutlivesItsSource(t *testing.T) {
	long := strings.Repeat("payload-", 8) // longer than MaxRefString: a literal
	want := []string{long, "ad-payl", "", "x", "nation", "nation", long, "nation", "nation", long, "", "x"}
	got := stringsFromDroppedSources(t, long)
	for range 3 {
		runtime.GC()
		junk := make([][]byte, 0, 1<<12)
		for i := range cap(junk) {
			junk = append(junk, bytes.Repeat([]byte{0xFF}, 1+i%128))
		}
		runtime.KeepAlive(junk)
	}
	if len(got) != len(want) {
		t.Fatalf("%d values, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v.T != TypeString || v.Str() != want[i] || v.I() != int64(len(want[i])) {
			t.Errorf("value %d: %v %q (I %d), want VARCHAR %q", i, v.T, v.Str(), v.I(), want[i])
		}
	}
	for _, v := range []Value{Null, {}, NewInt(5), NewInt(-1), NewFloat(2.5), NewFloat(math.NaN()), NewDate(3), NewBool(true), NewBool(false)} {
		if v.Str() != "" {
			t.Errorf("%v %v: Str() = %q, want \"\"", v.T, v, v.Str())
		}
	}
}

// stringsFromDroppedSources returns string values whose sources (built
// strings, frame payloads, decode batches) are unreachable once it returns.
func stringsFromDroppedSources(t *testing.T, long string) []Value {
	t.Helper()
	built := strings.Clone(long)
	sub := strings.Clone(long)[5:12]
	out := []Value{NewString(built), NewString(sub), NewString(strings.Clone("")), NewString(strings.Repeat("x", 1))}
	rows := []Row{
		{NewString(strings.Clone("nation")), NewInt(1)},
		{NewString(strings.Clone("nation")), NewInt(2)}, // a reference in a binary frame
		{NewString(strings.Clone(long)), NewInt(3)},
	}
	for _, text := range []bool{false, true} {
		f := NewFrame(text)
		for _, r := range rows {
			f.Fits(r)
			f.Add(r)
		}
		payload := bytes.Clone(f.Finish())
		var b Batch
		if err := b.DecodeFrame(payload, text); err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Rows {
			out = append(out, r[0])
		}
	}
	for _, s := range []string{"", "x"} {
		v, _, err := DecodeValue(AppendValue(nil, NewString(strings.Clone(s))))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// TestValueIdentity holds the two identities apart over the pairs where
// they differ: Equal (Compare's, PostgreSQL's float8 rules) merges -0 with
// +0, NaN with NaN, and one number across int, float and date, and hashes
// what it merges alike; Same (the encodings') is type, payload bits and
// string.
func TestValueIdentity(t *testing.T) {
	nan, negZero := NewFloat(math.NaN()), NewFloat(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b        Value
		equal, same bool
	}{
		{nan, nan, true, true},
		{nan, NewFloat(math.Float64frombits(0x7ff8000000000abc)), true, false},
		{nan, NewFloat(math.Inf(1)), false, false},
		{nan, NewInt(0), false, false},
		{negZero, NewFloat(0), true, false},
		{negZero, NewInt(0), true, false},
		{NewInt(1), NewFloat(1), true, false},
		{NewInt(1), NewDate(1), true, false},
		{NewInt(-1), NewDate(-1), true, false},
		{NewDate(1), NewFloat(1), false, false},
		{NewInt(math.MaxInt64), NewFloat(1 << 63), true, false},
		{NewInt(0), Null, false, false},
		{NewBool(false), Null, false, false},
		{NewBool(false), NewInt(0), false, false},
		{NewString(""), Null, false, false},
		{NewInt(math.MinInt64), NewInt(math.MinInt64), true, true},
		{NewString("a"), NewString("a"), true, true},
		{Null, Null, true, true},
	} {
		if got := Equal(c.a, c.b); got != c.equal {
			t.Errorf("Equal(%v %v, %v %v) = %v, want %v", c.a.T, c.a, c.b.T, c.b, got, c.equal)
		}
		if got := Same(c.a, c.b); got != c.same {
			t.Errorf("Same(%v %v, %v %v) = %v, want %v", c.a.T, c.a, c.b.T, c.b, got, c.same)
		}
		if c.equal && Hash(c.a) != Hash(c.b) {
			t.Errorf("%v %v and %v %v are equal but hash apart", c.a.T, c.a, c.b.T, c.b)
		}
	}
}

// fuzzValue is a value of any type from fuzzed parts: t picks the type,
// bits is an int64's or a float64's payload, s a string's.
func fuzzValue(t uint8, bits uint64, s string) Value {
	switch Type(t % 6) {
	case TypeInt:
		return NewInt(int64(bits))
	case TypeFloat:
		return NewFloat(math.Float64frombits(bits))
	case TypeString:
		return NewString(s)
	case TypeDate:
		return NewDate(int64(bits))
	case TypeBool:
		return NewBool(bits&1 != 0)
	}
	return Null
}

// FuzzValueOrder holds Compare, Equal and Hash to one identity: Compare is
// antisymmetric and reflexive, Equal is Compare == 0, and equal values hash
// alike. Compare is transitive over any three values it can order, except
// where a float meets an int beyond 2^53: several such ints convert to the
// same float, so int 2^53+1 = float 2^53 = int 2^53 while the two ints
// differ (the join's scanAll rule).
func FuzzValueOrder(f *testing.F) {
	nan, negZero := math.Float64bits(math.NaN()), math.Float64bits(math.Copysign(0, -1))
	inf, one, big := math.Float64bits(math.Inf(1)), math.Float64bits(1), math.Float64bits(1<<53)
	f.Add(uint8(TypeFloat), nan, uint8(TypeFloat), nan|7, uint8(TypeFloat), inf, "")
	f.Add(uint8(TypeFloat), negZero, uint8(TypeFloat), uint64(0), uint8(TypeInt), uint64(0), "")
	f.Add(uint8(TypeInt), uint64(1), uint8(TypeFloat), one, uint8(TypeDate), uint64(1), "")
	f.Add(uint8(TypeInt), uint64(math.MaxUint64), uint8(TypeDate), uint64(math.MaxUint64), uint8(TypeNull), uint64(0), "")
	f.Add(uint8(TypeInt), uint64(1<<53+1), uint8(TypeFloat), big, uint8(TypeInt), uint64(1<<53), "")
	f.Add(uint8(TypeString), uint64(0), uint8(TypeString), uint64(0), uint8(TypeString), uint64(0), "ab")
	f.Add(uint8(TypeBool), uint64(1), uint8(TypeBool), uint64(0), uint8(TypeInt), uint64(1), "")
	f.Fuzz(func(t *testing.T, ta uint8, a uint64, tb uint8, b uint64, tc uint8, c uint64, s string) {
		vals := []Value{fuzzValue(ta, a, s), fuzzValue(tb, b, s[:len(s)/2]), fuzzValue(tc, c, s[len(s)/2:])}
		var order [3][3]int
		comparable := true
		for i, x := range vals {
			if cx, err := Compare(x, x); err != nil || cx != 0 || !Equal(x, x) {
				t.Fatalf("%v %v: Compare with itself %d, %v; Equal %v", x.T, x, cx, err, Equal(x, x))
			}
			for j, y := range vals {
				cxy, err := Compare(x, y)
				cyx, errR := Compare(y, x)
				if (err == nil) != (errR == nil) || cxy != -cyx {
					t.Fatalf("%v %v vs %v %v: Compare %d, %v one way and %d, %v the other", x.T, x, y.T, y, cxy, err, cyx, errR)
				}
				if Equal(x, y) != (err == nil && cxy == 0) {
					t.Fatalf("%v %v vs %v %v: Equal %v, Compare %d, %v", x.T, x, y.T, y, Equal(x, y), cxy, err)
				}
				if Equal(x, y) && Hash(x) != Hash(y) {
					t.Fatalf("%v %v and %v %v are equal but hash apart", x.T, x, y.T, y)
				}
				order[i][j], comparable = cxy, comparable && err == nil
			}
		}
		var float, bigInt bool
		for _, v := range vals {
			float = float || v.T == TypeFloat
			bigInt = bigInt || v.T == TypeInt && (v.I() > 1<<53 || v.I() < -1<<53)
		}
		if !comparable || float && bigInt {
			return
		}
		for i := range vals {
			for j := range vals {
				for k := range vals {
					if order[i][j] <= 0 && order[j][k] <= 0 && order[i][k] > 0 ||
						order[i][j] == 0 && order[j][k] == 0 && order[i][k] != 0 {
						t.Fatalf("not transitive: %v %v, %v %v, %v %v", vals[i].T, vals[i], vals[j].T, vals[j], vals[k].T, vals[k])
					}
				}
			}
		}
	})
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeNull: "NULL", TypeInt: "BIGINT", TypeFloat: "DOUBLE",
		TypeString: "VARCHAR", TypeDate: "DATE", TypeBool: "BOOLEAN",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"BIGINT", TypeInt}, {"int", TypeInt}, {"Integer", TypeInt},
		{"DOUBLE", TypeFloat}, {"decimal(15,2)", TypeFloat}, {"REAL", TypeFloat},
		{"VARCHAR(25)", TypeString}, {"text", TypeString}, {"CHAR(1)", TypeString},
		{"date", TypeDate}, {"BOOLEAN", TypeBool}, {"bool", TypeBool},
	}
	for _, c := range cases {
		got, err := ParseType(c.in)
		if err != nil {
			t.Errorf("ParseType(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseType(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("ParseType(BLOB) succeeded, want error")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.Int() != 42 || v.T != TypeInt {
		t.Errorf("NewInt(42) = %+v", v)
	}
	if v := NewFloat(2.5); v.Float() != 2.5 || v.T != TypeFloat {
		t.Errorf("NewFloat(2.5) = %+v", v)
	}
	if v := NewString("abc"); v.Str() != "abc" || v.T != TypeString {
		t.Errorf("NewString = %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Error("NewBool(true).Bool() = false")
	}
	if v := NewBool(false); v.Bool() {
		t.Error("NewBool(false).Bool() = true")
	}
	if !Null.IsNull() {
		t.Error("Null.IsNull() = false")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value is not NULL")
	}
	// Numeric coercion.
	if NewFloat(3.9).Int() != 3 {
		t.Errorf("NewFloat(3.9).Int() = %d, want 3", NewFloat(3.9).Int())
	}
	if NewInt(3).Float() != 3.0 {
		t.Errorf("NewInt(3).Float() = %v, want 3", NewInt(3).Float())
	}
}

func TestDates(t *testing.T) {
	v, err := ParseDate("1995-03-15")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.String(); got != "1995-03-15" {
		t.Errorf("date round trip = %q", got)
	}
	if v.Year() != 1995 {
		t.Errorf("Year() = %d, want 1995", v.Year())
	}
	if v2 := DateFromYMD(1995, time.March, 15); !Same(v2, v) {
		t.Errorf("DateFromYMD = %+v, want %+v", v2, v)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("ParseDate accepted garbage")
	}
	// Epoch sanity: 1970-01-01 is day 0.
	if d := DateFromYMD(1970, time.January, 1); d.I() != 0 {
		t.Errorf("1970-01-01 = day %d, want 0", d.I())
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(1.5), "1.5"},
		{NewString("hi"), "hi"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{DateFromYMD(2020, 2, 29), "2020-02-29"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueSQL(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(7), "7"},
		{NewString("o'brien"), "'o''brien'"},
		{DateFromYMD(1998, 12, 1), "DATE '1998-12-01'"},
	}
	for _, c := range cases {
		if got := c.v.SQL(); got != c.want {
			t.Errorf("%+v.SQL() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		c, err := Compare(a, b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", a, b, err)
		}
		if c >= 0 {
			t.Errorf("Compare(%v,%v) = %d, want < 0", a, b, c)
		}
		c, err = Compare(b, a)
		if err != nil || c <= 0 {
			t.Errorf("Compare(%v,%v) = %d,%v, want > 0", b, a, c, err)
		}
	}
	lt(NewInt(1), NewInt(2))
	lt(NewFloat(1.5), NewInt(2))
	lt(NewInt(1), NewFloat(1.5))
	lt(NewString("a"), NewString("b"))
	lt(NewBool(false), NewBool(true))
	lt(DateFromYMD(1995, 1, 1), DateFromYMD(1995, 1, 2))
	lt(Null, NewInt(0)) // NULL sorts first

	if c, err := Compare(Null, Null); err != nil || c != 0 {
		t.Errorf("Compare(NULL,NULL) = %d,%v", c, err)
	}
	if _, err := Compare(NewString("a"), NewInt(1)); err == nil {
		t.Error("Compare(string,int) succeeded, want error")
	}
}

func TestEqualAndHashConsistency(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("int 3 != float 3")
	}
	if Hash(NewInt(3)) != Hash(NewFloat(3)) {
		t.Error("hash(int 3) != hash(float 3) but values are Equal")
	}
	if Equal(NewInt(3), NewInt(4)) {
		t.Error("3 == 4")
	}
	if !Equal(Null, Null) {
		t.Error("NULL grouping equality failed")
	}
	if Hash(NewString("abc")) == Hash(NewString("abd")) {
		t.Error("suspicious string hash collision on near-identical input")
	}
}

func TestHashEqualProperty(t *testing.T) {
	// Property: Equal(a,b) implies Hash(a) == Hash(b).
	gen := func(r *rand.Rand) Value {
		switch r.Intn(5) {
		case 0:
			return Null
		case 1:
			return NewInt(int64(r.Intn(10)))
		case 2:
			return NewFloat(float64(r.Intn(10)))
		case 3:
			return NewString(string(rune('a' + r.Intn(4))))
		default:
			return NewBool(r.Intn(2) == 0)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b := gen(r), gen(r)
		if Equal(a, b) && Hash(a) != Hash(b) {
			t.Fatalf("Equal(%v,%v) but hashes differ", a, b)
		}
	}
}

func TestQuoteString(t *testing.T) {
	if got := QuoteString("it's"); got != "'it''s'" {
		t.Errorf("QuoteString = %q", got)
	}
	if got := QuoteString(""); got != "''" {
		t.Errorf("QuoteString empty = %q", got)
	}
}

func TestEncodedSize(t *testing.T) {
	// EncodedSize must match what the codec actually produces.
	vals := []Value{
		Null, NewInt(12345), NewFloat(3.25), NewString("hello world"),
		NewBool(true), DateFromYMD(1992, 6, 1),
	}
	for _, v := range vals {
		enc := AppendValue(nil, v)
		if len(enc) != v.EncodedSize() {
			t.Errorf("%v: EncodedSize=%d, actual encoding=%d bytes", v, v.EncodedSize(), len(enc))
		}
	}
}

func TestCompareAntisymmetryProperty(t *testing.T) {
	f := func(a, b int64) bool {
		c1, err1 := Compare(NewInt(a), NewInt(b))
		c2, err2 := Compare(NewInt(b), NewInt(a))
		return err1 == nil && err2 == nil && sign(c1) == -sign(c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}
