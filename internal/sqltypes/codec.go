package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
)

// The binary row codec used on the wire between DBMSes. The format is the
// "binary transfer protocol" of the reproduction: a compact, typed,
// little-endian encoding. Per the paper's observation that Presto's
// JDBC-based connectors are more expensive than PostgreSQL's binary
// protocol, the presto baseline layers a text encoding (EncodeRowText) on
// top of the same framing, which costs more bytes and more CPU per row.

// AppendValue appends the binary encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.T))
	switch v.T {
	case TypeNull:
	case TypeBool:
		if v.I != 0 {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case TypeString:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.S)))
		dst = append(dst, v.S...)
	case TypeFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	default: // TypeInt, TypeDate
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
	return dst
}

// bytestr is the decoders' input: a []byte decodes into strings of their
// own, a string into substrings of itself — the wire client copies a frame
// payload to a string once and every string value of the frame aliases it.
type bytestr interface{ ~[]byte | ~string }

func le32[B bytestr](b B) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func le64[B bytestr](b B) uint64 {
	return uint64(le32(b)) | uint64(le32(b[4:]))<<32
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) { return decodeValue(b) }

func decodeValue[B bytestr](b B) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("sqltypes: truncated value")
	}
	t := Type(b[0])
	switch t {
	case TypeNull:
		return Null, 1, nil
	case TypeBool:
		if len(b) < 2 {
			return Null, 0, fmt.Errorf("sqltypes: truncated bool")
		}
		return NewBool(b[1] != 0), 2, nil
	case TypeString:
		if len(b) < 5 {
			return Null, 0, fmt.Errorf("sqltypes: truncated string header")
		}
		n := int(le32(b[1:]))
		if len(b)-5 < n {
			return Null, 0, fmt.Errorf("sqltypes: truncated string payload (%d of %d bytes)", len(b)-5, n)
		}
		return NewString(string(b[5 : 5+n])), 5 + n, nil
	case TypeFloat:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("sqltypes: truncated float")
		}
		return NewFloat(math.Float64frombits(le64(b[1:]))), 9, nil
	case TypeInt, TypeDate:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("sqltypes: truncated int")
		}
		return Value{T: t, I: int64(le64(b[1:]))}, 9, nil
	default:
		return Null, 0, fmt.Errorf("sqltypes: unknown value tag %d", b[0])
	}
}

// AppendRow appends the binary encoding of r to dst: a 4-byte column count
// followed by each value.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// rowHeader reads a row's column count. Every encoded value takes at least
// one byte, so a count beyond the bytes that follow is a corrupt or hostile
// header; rejecting it here bounds what the decoders allocate.
func rowHeader[B bytestr](b B) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("sqltypes: truncated row header")
	}
	n := le32(b)
	if uint64(n) > uint64(len(b)-4) {
		return 0, fmt.Errorf("sqltypes: row header claims %d columns in %d bytes", n, len(b)-4)
	}
	return int(n), nil
}

// decodeRow fills row from the binary values that follow a row header.
func decodeRow[B bytestr](b B, row Row) (int, error) {
	off := 0
	for i := range row {
		v, sz, err := decodeValue(b[off:])
		if err != nil {
			return 0, fmt.Errorf("column %d: %w", i, err)
		}
		row[i] = v
		off += sz
	}
	return off, nil
}

// DecodeRow decodes one row from b, returning the row and bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	n, err := rowHeader(b)
	if err != nil {
		return nil, 0, err
	}
	row := make(Row, n)
	used, err := decodeRow(b[4:], row)
	if err != nil {
		return nil, 0, err
	}
	return row, 4 + used, nil
}

// DecodeRow decodes one binary row from src into a row carved from the
// batch's slab and returns the bytes consumed. String values alias src.
func (b *Batch) DecodeRow(src string) (int, error) {
	return b.decode(src, decodeRow[string])
}

// DecodeRowText is DecodeRow for the text encoding.
func (b *Batch) DecodeRowText(src string) (int, error) {
	return b.decode(src, decodeRowText[string])
}

func (b *Batch) decode(src string, values func(string, Row) (int, error)) (int, error) {
	n, err := rowHeader(src)
	if err != nil {
		return 0, err
	}
	used, err := values(src[4:], b.NewRow(n))
	if err != nil {
		b.Rows = b.Rows[:len(b.Rows)-1]
		return 0, err
	}
	return 4 + used, nil
}

// AppendRowText appends the "JDBC-style" text encoding of the row: every
// value is shipped as its rendered string plus a type tag and length. It
// costs more bytes and more CPU than the binary codec for numeric-heavy
// rows — the source of the connector overhead the paper attributes to
// Presto's JDBC connectors (Sec. VI-B).
func AppendRowText(dst []byte, r Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.T))
		s := ""
		if !v.IsNull() {
			s = v.String()
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeRowText decodes a row encoded with AppendRowText, parsing each
// value back from its text rendering.
func DecodeRowText(b []byte) (Row, int, error) {
	n, err := rowHeader(b)
	if err != nil {
		return nil, 0, err
	}
	row := make(Row, n)
	used, err := decodeRowText(b[4:], row)
	if err != nil {
		return nil, 0, err
	}
	return row, 4 + used, nil
}

// decodeRowText fills row from the text values that follow a row header.
func decodeRowText[B bytestr](b B, row Row) (int, error) {
	off := 0
	for i := range row {
		if len(b)-off < 5 {
			return 0, fmt.Errorf("sqltypes: truncated text value header")
		}
		t := Type(b[off])
		n := int(le32(b[off+1:]))
		off += 5
		if len(b)-off < n {
			return 0, fmt.Errorf("sqltypes: truncated text value payload")
		}
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

// TextEncodedSize returns the byte size AppendRowText produces for r.
func TextEncodedSize(r Row) int {
	n := 4
	for _, v := range r {
		n += 5
		if !v.IsNull() {
			n += len(v.String())
		}
	}
	return n
}

// AppendSchema appends the binary encoding of a schema to dst.
func AppendSchema(dst []byte, s *Schema) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s.Columns)))
	for _, c := range s.Columns {
		dst = appendString(dst, c.Name)
		dst = appendString(dst, c.Table)
		dst = append(dst, byte(c.Type))
	}
	return dst
}

// DecodeSchema decodes a schema from b, returning bytes consumed.
func DecodeSchema(b []byte) (*Schema, int, error) {
	if len(b) < 4 {
		return nil, 0, fmt.Errorf("sqltypes: truncated schema header")
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	off := 4
	if n > (len(b)-off)/9 { // two length prefixes and a type byte per column
		return nil, 0, fmt.Errorf("sqltypes: schema header claims %d columns in %d bytes", n, len(b)-off)
	}
	s := &Schema{Columns: make([]Column, n)}
	for i := 0; i < n; i++ {
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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte) (string, int, error) {
	if len(b) < 4 {
		return "", 0, fmt.Errorf("sqltypes: truncated string header")
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	if len(b) < 4+n {
		return "", 0, fmt.Errorf("sqltypes: truncated string payload")
	}
	return string(b[4 : 4+n]), 4 + n, nil
}
