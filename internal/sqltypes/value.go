// Package sqltypes defines the value, row, and schema layer shared by every
// component of the XDB reproduction: the per-DBMS engines, the wire
// protocol, the XDB optimizer, and the mediator baselines.
//
// Values are a small closed set of SQL types sufficient for TPC-H and the
// paper's motivating workload: 64-bit integers, 64-bit floats, strings,
// dates (days since the Unix epoch), booleans, and NULL. A Value is a plain
// struct (no interfaces, no boxing) so that rows can be processed and hashed
// without allocation in the hot paths of the batch executor.
package sqltypes

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"time"
	"unsafe"
)

// Type identifies the SQL type of a value or column.
type Type uint8

// The supported SQL types.
const (
	TypeNull Type = iota
	TypeInt
	TypeFloat
	TypeString
	TypeDate
	TypeBool
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeDate:
		return "DATE"
	case TypeBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// ParseType parses a SQL type name as produced by Type.String, accepting the
// usual synonyms found across the vendor dialects.
func ParseType(s string) (Type, error) {
	switch normalizeTypeName(s) {
	case "NULL":
		return TypeNull, nil
	case "BIGINT", "INT", "INTEGER", "SMALLINT":
		return TypeInt, nil
	case "DOUBLE", "FLOAT", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return TypeString, nil
	case "DATE":
		return TypeDate, nil
	case "BOOLEAN", "BOOL":
		return TypeBool, nil
	default:
		return TypeNull, fmt.Errorf("sqltypes: unknown type name %q", s)
	}
}

func normalizeTypeName(s string) string {
	// Strip a parenthesized length such as VARCHAR(25) or DECIMAL(15,2).
	for i := 0; i < len(s); i++ {
		if s[i] == '(' {
			s = s[:i]
			break
		}
	}
	b := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		b[i] = c
	}
	return string(b)
}

// Value is a single SQL value. The zero Value is SQL NULL.
//
// A Value is 24 bytes on 64-bit platforms (16 where pointers are 4 bytes):
// a tag, one 8-byte payload and a pointer. F holds a float as itself and
// an int, a date or a bool as the bits of its int64 (I reads them back). A
// string is its bytes at p and its length as F's bits (Str reads it back),
// so a row of TPC-H values is a quarter smaller than with a string header
// beside F. Only NewString and setString write p, so p is nil for every
// other type. Two Values whose payloads are the same bits are not always
// the same SQL value (-0 beside +0, int 1 beside float 1.0), so Value is
// not comparable: Compare, Equal and Hash are the one rule by which every
// operator tells values apart, and Same is the identity of their
// encodings. reflect.DeepEqual of two strings compares only their lengths
// and first bytes.
//
// Value keeps exactly four fields, the blank one included: the compiler
// keeps a struct of at most four fields in registers, and a fifth (a
// string length beside T, the same 24 bytes) made warm queries about a
// fifth slower.
type Value struct {
	_ [0]func() // no ==: compare with Equal or Same
	// T is the type tag. For TypeNull the remaining fields are unused.
	T Type
	// F holds the TypeFloat payload, and the int64 of TypeInt, TypeDate
	// (days since epoch) and TypeBool (0 or 1) and the length of a
	// TypeString as its bits.
	F float64
	// p is a TypeString's bytes; nil for every other type.
	p *byte
}

// payload is the F of an int64 payload.
func payload(i int64) float64 { return math.Float64frombits(uint64(i)) }

// I returns the int64 payload of a TypeInt, TypeDate or TypeBool value:
// the bits F holds. Of a float it is the float's bits, of a string its
// length, of NULL 0.
func (v Value) I() int64 { return int64(math.Float64bits(v.F)) }

// Str returns the payload of a TypeString value, and "" of any other.
func (v Value) Str() string {
	if v.T != TypeString {
		return ""
	}
	return unsafe.String(v.p, int(math.Float64bits(v.F)))
}

// Null is the SQL NULL value.
var Null = Value{T: TypeNull}

// NewInt returns a BIGINT value.
func NewInt(v int64) Value { return Value{T: TypeInt, F: payload(v)} }

// NewFloat returns a DOUBLE value.
func NewFloat(v float64) Value { return Value{T: TypeFloat, F: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value {
	return Value{T: TypeString, F: payload(int64(len(v))), p: unsafe.StringData(v)}
}

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	if v {
		return Value{T: TypeBool, F: payload(1)}
	}
	return Value{T: TypeBool}
}

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{T: TypeDate, F: payload(days)} }

// DateFromYMD returns a DATE value for the given calendar day (UTC).
func DateFromYMD(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// ParseDate parses a YYYY-MM-DD date literal.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("sqltypes: bad date literal %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// Bool returns the boolean payload. It is false for any non-TypeBool value.
func (v Value) Bool() bool { return v.T == TypeBool && v.I() != 0 }

// Int returns the integer payload, coercing floats by truncation. Of a
// string it is the length: callers check the type first.
func (v Value) Int() int64 {
	if v.T == TypeFloat {
		return int64(v.F)
	}
	return v.I()
}

// Float returns the numeric payload as a float64. Of a string it is the
// length: callers check the type first.
func (v Value) Float() float64 {
	if v.T == TypeFloat {
		return v.F
	}
	return float64(v.I())
}

// Time returns the DATE payload as a UTC time.
func (v Value) Time() time.Time { return time.Unix(v.I()*86400, 0).UTC() }

// Year returns the calendar year of a DATE value.
func (v Value) Year() int { return v.Time().Year() }

// String renders the value the way the engines print result rows.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I(), 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeString:
		return v.Str()
	case TypeDate:
		return v.Time().Format("2006-01-02")
	case TypeBool:
		if v.I() != 0 {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("?%d", uint8(v.T))
	}
}

// SQL renders the value as a SQL literal suitable for embedding into a query
// sent to another DBMS (used by the delegation engine and the baselines).
func (v Value) SQL() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeString:
		return QuoteString(v.Str())
	case TypeDate:
		return "DATE '" + v.Time().Format("2006-01-02") + "'"
	default:
		return v.String()
	}
}

// QuoteString renders s as a single-quoted SQL string literal, doubling
// embedded quotes.
func QuoteString(s string) string {
	b := make([]byte, 0, len(s)+2)
	b = append(b, '\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			b = append(b, '\'')
		}
		b = append(b, s[i])
	}
	b = append(b, '\'')
	return string(b)
}

// numericKind reports whether the type participates in numeric comparison
// and arithmetic.
func numericKind(t Type) bool { return t == TypeInt || t == TypeFloat }

// comparableKinds reports whether two values of the given types can be
// compared with each other.
func comparableKinds(a, b Type) bool {
	if a == b {
		return true
	}
	if numericKind(a) && numericKind(b) {
		return true
	}
	// Dates compare against ints (days) for convenience in tests.
	if (a == TypeDate && b == TypeInt) || (a == TypeInt && b == TypeDate) {
		return true
	}
	return false
}

// Compare orders two values, returning -1, 0 or +1. NULL sorts before every
// non-NULL value. Floats, and ints beside floats, order as PostgreSQL's
// float8 does (CompareFloat): -0 equals +0, and NaN equals NaN and sorts
// after every other number. Dates compare with ints by their days.
// Comparing incomparable types (e.g. a string with an int) returns an error.
func Compare(a, b Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if !comparableKinds(a.T, b.T) {
		return 0, fmt.Errorf("sqltypes: cannot compare %v with %v", a.T, b.T)
	}
	switch {
	case a.T == TypeString:
		return cmp.Compare(a.Str(), b.Str()), nil
	case a.T == TypeFloat || b.T == TypeFloat:
		return CompareFloat(a.Float(), b.Float()), nil
	default:
		return cmp.Compare(a.I(), b.I()), nil
	}
}

// CompareFloat orders two floats as PostgreSQL's float8 does: -0 equals
// +0, and NaN equals NaN and sorts after every other float, +Inf too.
func CompareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b, a != a && b != b:
		return 0
	case a != a:
		return 1
	}
	return -1
}

// Equal reports whether Compare finds two values equal, with NULL equal to
// NULL (the grouping rule); comparisons that are type errors report false.
// Values of one type take a shortcut that Compare would agree with.
func Equal(a, b Value) bool {
	if a.T == b.T {
		switch a.T {
		case TypeNull:
			return true
		case TypeString:
			return a.Str() == b.Str()
		case TypeFloat:
			return a.F == b.F || a.F != a.F && b.F != b.F
		}
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Same reports whether a and b are the same value: the same type and the
// same payload bits, as their encodings are the same bytes. It is not
// Equal: NaNs of two payloads differ, -0 is not +0, and int 1 is not float
// 1.0. It is for codec round trips and for telling a report decoded again
// from the same bytes from a changed one (engine.TableStats.Same).
func Same(a, b Value) bool {
	return a.T == b.T && math.Float64bits(a.F) == math.Float64bits(b.F) && a.Str() == b.Str()
}

// Hash returns a 64-bit hash of the value, consistent with Equal: values
// that compare equal hash identically (ints, dates and floats holding the
// same number hash the same, -0 as +0, every NaN alike). The hash is
// stable within one process only.
func Hash(v Value) uint64 {
	switch v.T {
	case TypeNull:
		return 0
	case TypeString:
		return maphash.String(hashSeed, v.Str())
	case TypeBool:
		return mix64(uint64(v.I()&1) + 1)
	}
	// Numeric family: hash the number as a float64 so that NewInt(3) and
	// NewFloat(3) collide, matching Equal.
	f := v.Float()
	switch {
	case f == 0:
		f = 0
	case f != f:
		f = math.NaN()
	}
	return mix64(math.Float64bits(f))
}

var hashSeed = maphash.MakeSeed()

// mix64 is the splitmix64 finalizer: every input bit reaches every output
// bit, so consecutive keys spread over a power-of-two table.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EncodedSize returns the number of bytes AppendValue uses for the value:
// an upper bound on its size in a row-batch frame, where a declared
// column's value has no tag and a repeated short string is a shorter
// reference (Row.EncodedSize).
func (v Value) EncodedSize() int {
	switch v.T {
	case TypeNull:
		return 1
	case TypeString:
		s := v.Str()
		return 1 + uvarintLen(uint64(len(s))) + len(s)
	case TypeBool:
		return 2
	case TypeFloat:
		return 1 + 8
	default: // TypeInt, TypeDate
		return 1 + uvarintLen(zigzag(v.I()))
	}
}
