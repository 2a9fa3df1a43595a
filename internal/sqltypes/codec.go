package sqltypes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"unsafe"
)

// The binary row codec used on the wire between DBMSes. The format is the
// "binary transfer protocol" of the reproduction: a compact, typed encoding.
// A row on its own (AppendRow, DecodeRow) is a uvarint column count
// followed by its values; a value (AppendValue, DecodeValue) is a type tag
// byte and its payload — a zigzag varint for TypeInt and TypeDate, a
// uvarint length and the bytes for TypeString, 8 little-endian bytes for
// TypeFloat, one byte for TypeBool, nothing for TypeNull. Row.EncodedSize
// is that row's size. A result stream ships rows in row-batch frames
// (frame.go), which write the column count once, declare each column's
// type once and send the other values without their tags, a decimal float
// as one varint and a repeated short string as a reference; a frame is
// never longer than its rows' frame-less encodings and row count, plus one
// byte per mixed column, so EncodedSize bounds what a row costs there.
// Statistics replies carry their bounds as AppendValue values. Per the
// paper's observation that Presto's JDBC-based connectors are more
// expensive than PostgreSQL's binary protocol, the presto baseline layers
// a text encoding (AppendRowText) on top of the same framing, which costs
// more bytes and more CPU per row.

// AppendValue appends the binary encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.T))
	switch v.T {
	case TypeNull:
	case TypeBool:
		dst = append(dst, boolByte(v.I()))
	case TypeString:
		dst = appendString(dst, v.Str())
	case TypeFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	default: // TypeInt, TypeDate
		dst = appendUvarint(dst, zigzag(v.I()))
	}
	return dst
}

func zigzag(i int64) uint64 { return uint64(i<<1) ^ uint64(i>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// boolByte is a bool's payload byte: 1 for true, 0 for false.
func boolByte(i int64) byte {
	if i != 0 {
		return 1
	}
	return 0
}

// boolOf is the payload of a bool's byte: any byte but 0 is true.
func boolOf(c byte) int64 {
	if c != 0 {
		return 1
	}
	return 0
}

// appendUvarint is binary.AppendUvarint, inlined for the one-byte case.
func appendUvarint(dst []byte, x uint64) []byte {
	if x < 1<<7 {
		return append(dst, byte(x))
	}
	return binary.AppendUvarint(dst, x)
}

// uvarintLen is the length appendUvarint produces for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// bytestr is the decoders' input: a []byte decodes into strings of their
// own, a string into substrings of itself — the wire client copies a frame
// payload to a string once and every string value of the frame aliases it.
type bytestr interface{ ~[]byte | ~string }

func le32[B bytestr](b B) uint32 {
	_ = b[3] // one bounds check, so the loads combine
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64[B bytestr](b B) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

var errVarint = errors.New("sqltypes: truncated varint or one overflowing 64 bits")

// uvarint reads a uvarint from the front of b and returns it with its
// length, inlined for the one-byte case.
func uvarint[B bytestr](b B) (uint64, int, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1, nil
	}
	return uvarintSlow(b)
}

// uvarintSlow is binary.Uvarint for either input type. A varint that ends
// past its tenth byte, or whose tenth byte carries more than the 64th bit,
// is an error.
func uvarintSlow[B bytestr](b B) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			if i == binary.MaxVarintLen64-1 && b[i] > 1 {
				break
			}
			return x, i + 1, nil
		}
	}
	return 0, 0, errVarint
}

// The setters write every field of v a field at a time, so that the write
// barrier of a whole-Value store is paid only for the pointer.

// setInt writes a value whose payload is an int64: TypeInt, TypeDate or
// TypeBool, or TypeNull with 0.
func (v *Value) setInt(t Type, i int64) { v.T, v.F, v.p = t, payload(i), nil }

// setFloat writes a TypeFloat value.
func (v *Value) setFloat(f float64) { v.T, v.F, v.p = TypeFloat, f, nil }

// setString writes a TypeString value, as NewString does.
func (v *Value) setString(s string) {
	v.T, v.F, v.p = TypeString, payload(int64(len(s))), unsafe.StringData(s)
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	var v Value
	n, err := decodeValue(b, &v)
	return v, n, err
}

// decodeValue decodes the value at the front of b into v and returns the
// number of bytes consumed.
func decodeValue[B bytestr](b B, v *Value) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("sqltypes: truncated value")
	}
	t := Type(b[0])
	switch t {
	case TypeNull:
		v.setInt(TypeNull, 0)
		return 1, nil
	case TypeBool:
		if len(b) < 2 {
			return 0, fmt.Errorf("sqltypes: truncated bool")
		}
		v.setInt(TypeBool, boolOf(b[1]))
		return 2, nil
	case TypeString:
		s, n, err := decodeString(b[1:])
		if err != nil {
			return 0, err
		}
		v.setString(s)
		return 1 + n, nil
	case TypeFloat:
		if len(b) < 9 {
			return 0, fmt.Errorf("sqltypes: truncated float")
		}
		v.setFloat(math.Float64frombits(le64(b[1:])))
		return 9, nil
	case TypeInt, TypeDate:
		u, k, err := uvarint(b[1:])
		if err != nil {
			return 0, err
		}
		v.setInt(t, unzigzag(u))
		return 1 + k, nil
	default:
		return 0, fmt.Errorf("sqltypes: unknown value tag %d", b[0])
	}
}

// AppendRow appends the binary encoding of r to dst: a uvarint column count
// followed by each value.
func AppendRow(dst []byte, r Row) []byte {
	dst = appendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// rowHeader reads a binary row's column count and returns it with the
// header's length. Every encoded value takes at least one byte, so a count
// beyond the bytes that follow is a corrupt or hostile header; rejecting it
// here bounds what the decoders allocate.
func rowHeader[B bytestr](b B) (int, int, error) {
	n, k, err := uvarint(b)
	if err != nil {
		return 0, 0, fmt.Errorf("row header: %w", err)
	}
	if n > uint64(len(b)-k) {
		return 0, 0, fmt.Errorf("sqltypes: row header claims %d columns in %d bytes", n, len(b)-k)
	}
	return int(n), k, nil
}

// textRowHeader is rowHeader for the text encoding's 4-byte count.
func textRowHeader[B bytestr](b B) (int, int, error) {
	if len(b) < 4 {
		return 0, 0, fmt.Errorf("sqltypes: truncated row header")
	}
	n := le32(b)
	if uint64(n) > uint64(len(b)-4) {
		return 0, 0, fmt.Errorf("sqltypes: row header claims %d columns in %d bytes", n, len(b)-4)
	}
	return int(n), 4, nil
}

// decodeRow fills row from the binary values that follow a row header.
func decodeRow[B bytestr](b B, row Row) (int, error) {
	off := 0
	for i := range row {
		sz, err := decodeValue(b[off:], &row[i])
		if err != nil {
			return 0, fmt.Errorf("column %d: %w", i, err)
		}
		off += sz
	}
	return off, nil
}

// DecodeRow decodes one row from b, returning the row and bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	return decodeOne(b, rowHeader[[]byte], decodeRow[[]byte])
}

// DecodeRowText decodes a row encoded with AppendRowText, parsing each
// value back from its text rendering.
func DecodeRowText(b []byte) (Row, int, error) {
	return decodeOne(b, textRowHeader[[]byte], decodeRowText[[]byte])
}

func decodeOne(b []byte, header func([]byte) (int, int, error), values func([]byte, Row) (int, error)) (Row, int, error) {
	n, k, err := header(b)
	if err != nil {
		return nil, 0, err
	}
	row := make(Row, n)
	used, err := values(b[k:], row)
	if err != nil {
		return nil, 0, err
	}
	return row, k + used, nil
}

// DecodeRowText decodes one text row from src into a row carved from the
// batch's slab and returns the bytes consumed. String values alias src.
func (b *Batch) DecodeRowText(src string) (int, error) {
	n, k, err := textRowHeader(src)
	if err != nil {
		return 0, err
	}
	used, err := decodeRowText(src[k:], b.NewRow(n))
	if err != nil {
		b.Rows = b.Rows[:len(b.Rows)-1]
		return 0, err
	}
	return k + used, nil
}

// AppendRowText appends the "JDBC-style" text encoding of the row: a 4-byte
// column count, then every value as a type tag, a 4-byte length and its
// rendering as Value.String prints it (NULL as the empty string). It costs
// more bytes and more CPU than the binary codec for numeric-heavy rows —
// the source of the connector overhead the paper attributes to Presto's
// JDBC connectors (Sec. VI-B).
func AppendRowText(dst []byte, r Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.T), 0, 0, 0, 0)
		start := len(dst)
		dst = appendText(dst, v)
		binary.LittleEndian.PutUint32(dst[start-4:], uint32(len(dst)-start))
	}
	return dst
}

// appendText appends v.String() to dst without allocating; NULL appends
// nothing. (v.String() of a string or a bool allocates nothing either.)
func appendText(dst []byte, v Value) []byte {
	switch v.T {
	case TypeNull:
		return dst
	case TypeInt:
		return strconv.AppendInt(dst, v.I(), 10)
	case TypeFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case TypeDate:
		return appendDate(dst, v.I())
	}
	return append(dst, v.String()...)
}

// appendDate appends the YYYY-MM-DD rendering of a day count, as
// Value.String prints it.
func appendDate(dst []byte, days int64) []byte {
	t := NewDate(days).Time()
	y, m, d := t.Date()
	if y < 0 || y > 9999 {
		return t.AppendFormat(dst, "2006-01-02")
	}
	return append(dst, byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d/10), byte('0'+d%10))
}

// decodeRowText fills row from the text values that follow a row header.
func decodeRowText[B bytestr](b B, row Row) (int, error) {
	off := 0
	for i := range row {
		if len(b)-off < 5 {
			return 0, fmt.Errorf("sqltypes: truncated text value header")
		}
		t := Type(b[off])
		u := le32(b[off+1:])
		off += 5
		// Compared unsigned before the conversion: where int is 32 bits,
		// a length of 2^31 or more would convert to a negative int.
		if uint64(u) > uint64(len(b)-off) {
			return 0, fmt.Errorf("sqltypes: truncated text value payload")
		}
		n := int(u)
		v, err := parseTextValue(t, string(b[off:off+n]))
		if err != nil {
			return 0, fmt.Errorf("column %d: %w", i, err)
		}
		row[i] = v
		off += n
	}
	return off, nil
}

func parseTextValue(t Type, s string) (Value, error) {
	switch t {
	case TypeNull:
		return Null, nil
	case TypeInt:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, err
		}
		return NewInt(n), nil
	case TypeFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, err
		}
		return NewFloat(f), nil
	case TypeString:
		return NewString(s), nil
	case TypeDate:
		return ParseDate(s)
	case TypeBool:
		return NewBool(s == "true"), nil
	default:
		return Null, fmt.Errorf("sqltypes: unknown text value tag %d", t)
	}
}

// AppendSchema appends the binary encoding of a schema to dst: a uvarint
// column count, then each column's name and table (uvarint length and
// bytes) and type byte.
func AppendSchema(dst []byte, s *Schema) []byte {
	dst = appendUvarint(dst, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		dst = appendString(dst, c.Name)
		dst = appendString(dst, c.Table)
		dst = append(dst, byte(c.Type))
	}
	return dst
}

// DecodeSchema decodes a schema from b, returning bytes consumed.
func DecodeSchema(b []byte) (*Schema, int, error) {
	n, off, err := uvarint(b)
	if err != nil {
		return nil, 0, fmt.Errorf("schema header: %w", err)
	}
	if n > uint64((len(b)-off)/3) { // two length prefixes and a type byte per column
		return nil, 0, fmt.Errorf("sqltypes: schema header claims %d columns in %d bytes", n, len(b)-off)
	}
	s := &Schema{Columns: make([]Column, n)}
	for i := range s.Columns {
		name, sz, err := decodeString(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += sz
		table, sz, err := decodeString(b[off:])
		if err != nil {
			return nil, 0, err
		}
		off += sz
		if off >= len(b) {
			return nil, 0, fmt.Errorf("sqltypes: truncated schema column type")
		}
		s.Columns[i] = Column{Name: name, Table: table, Type: Type(b[off])}
		off++
	}
	return s, off, nil
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString[B bytestr](b B) (string, int, error) {
	n, k, err := uvarint(b)
	if err != nil {
		return "", 0, fmt.Errorf("string length: %w", err)
	}
	if n > uint64(len(b)-k) {
		return "", 0, fmt.Errorf("sqltypes: truncated string payload (%d of %d bytes)", len(b)-k, n)
	}
	return string(b[k : k+int(n)]), k + int(n), nil
}
