package sqltypes

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// TestValueLayout pins the layout: a Value is a tag, one 8-byte payload and
// a string (32 bytes with 8-byte pointers), and it is not comparable, so
// no == and no map keyed by Value compiles.
func TestValueLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Value{}) != 32 {
		t.Errorf("Value is %d bytes, want 32", unsafe.Sizeof(Value{}))
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
	if NewBool(true).I() != 1 || NewBool(false).I() != 0 || NewString("x").I() != 0 || Null.I() != 0 {
		t.Error("bool, string or NULL payload")
	}
}

// TestValueKey holds Key to the struct equality of the layout with a field
// per payload: NaN's key differs from itself, -0's equals +0's, int 1 and
// float 1.0 and date 1 differ, and so do int -1 and date -1.
func TestValueKey(t *testing.T) {
	nan := NewFloat(math.NaN())
	same := []struct {
		a, b Value
		want bool
	}{
		{nan, nan, false},
		{NewFloat(math.Copysign(0, -1)), NewFloat(0), true},
		{NewInt(1), NewFloat(1), false},
		{NewInt(1), NewDate(1), false},
		{NewInt(-1), NewDate(-1), false},
		{NewInt(0), NewFloat(0), false},
		{NewInt(0), Null, false},
		{NewBool(false), Null, false},
		{NewString(""), Null, false},
		{NewInt(math.MinInt64), NewInt(math.MinInt64), true},
		{NewString("a"), NewString("a"), true},
		{Null, Null, true},
	}
	for _, c := range same {
		if got := c.a.Key() == c.b.Key(); got != c.want {
			t.Errorf("%v %v vs %v %v: same key %v, want %v", c.a.T, c.a, c.b.T, c.b, got, c.want)
		}
	}
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
	if v := NewString("abc"); v.S != "abc" || v.T != TypeString {
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
	if v2 := DateFromYMD(1995, time.March, 15); v2.Key() != v.Key() {
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
