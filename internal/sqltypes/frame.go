package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The row-batch frame: the payload that carries up to BatchRows rows of a
// result stream in one wire frame. It is a uvarint row count followed by
// the rows.
//
// A text frame's rows are AppendRowText's, byte for byte.
//
// A binary frame's header is the rows' shared column count, as a uvarint,
// and its first row, each value written as AppendValue writes it: the tag
// of a value declares its column's type for the whole frame. A column
// whose first value is NULL, or that an earlier frame of the stream found
// holding values of more than one type (Frame.Fits), is declared mixed
// instead: its first value follows the byte mixedCol. Every later row is
// its values alone. A value of a mixed column keeps its tag (AppendValue);
// a value of a declared column travels without it:
//
//   - an int or a date as its zigzag varint;
//   - a bool as one byte, 0 or 1;
//   - a float that is exactly n/10^k, k ≤ 4 and |n| < 2^47, as the uvarint
//     zigzag(n)<<3 | k, at most 8 bytes; any other float (-0, NaN, ±Inf, a
//     subnormal, a non-decimal) as the byte rawFloat and its 8 bytes;
//   - a string as a uvarint u and, when u is even, u/2 bytes: a literal of
//     length u/2. An odd u is a reference to entry u/2 of the frame's
//     dictionary: the literals of 1 to MaxRefString bytes the frame's
//     declared string columns carried so far (the first row's included), in
//     order. The encoder writes a string of that length by reference when
//     the dictionary holds it.
//
// A zero-width row is one zero byte, the first row included. No column is
// declared NULL, so every value takes at least a byte. The dictionary
// starts empty in every frame, so a frame decodes on its own, and it holds
// at most maxRefs strings, so a reference takes at most two bytes, fewer
// than the literal it stands for. A binary frame of n ≥ 1 rows of width ≥
// 1 is therefore never longer than the row count and its rows' frame-less
// encodings (AppendRow, Row.EncodedSize) plus one byte per mixed column; a
// zero-width frame is one byte longer, its width.

// MaxRefString is the longest string a binary frame writes by reference.
const MaxRefString = 32

// refable reports whether a string is one a frame's dictionary holds.
func refable(s string) bool { return len(s) > 0 && len(s) <= MaxRefString }

// maxRefs bounds a frame's dictionary: a reference below 2^13 is the
// uvarint of a number below 2^14, at most two bytes.
const maxRefs = 1 << 13

// mixedCol is the declaration byte of a mixed column. It is no Type.
const mixedCol = 0xFF

// A declared float column's value: the low three bits of its uvarint are
// the decimal exponent k ≤ 4, or rawFloat for the 8 raw bytes that follow.
const (
	rawFloat   = 7
	maxDecimal = 1 << 47 // |n| bound of a decimal n/10^k: zigzag(n)<<3|k fits 51 bits, 8 uvarint bytes
)

var pow10 = [...]float64{1, 10, 100, 1000, 10000}

// countRoom is the room a frame's buffer keeps in front of its rows for the
// row count, which Finish writes right-aligned once the count is known.
const countRoom = binary.MaxVarintLen64

// Frame accumulates the payload of one row-batch frame. Its buffer,
// declarations and dictionary are reused from frame to frame of a stream.
// Make one with NewFrame.
type Frame struct {
	text  bool
	rows  int
	buf   []byte   // countRoom bytes, then the rows
	decl  []byte   // per column: the Type the frame declares, or mixedCol for the rest of the stream
	strs  []string // the dictionary, in index order
	slots []uint64 // open-addressing index of strs: hash<<32 | index+1, 0 if empty
}

// NewFrame returns an empty frame of the text or the binary encoding.
func NewFrame(text bool) *Frame {
	f := &Frame{text: text, buf: make([]byte, countRoom, 1<<10)}
	if !text {
		f.slots = make([]uint64, 64)
	}
	return f
}

// Rows is the number of rows added since the frame started.
func (f *Frame) Rows() int { return f.rows }

// Len is the length of the payload Finish would return now.
func (f *Frame) Len() int { return len(f.buf) - countRoom + uvarintLen(uint64(f.rows)) }

// Fits reports whether r can join the frame: an empty frame takes any row,
// a binary frame only rows of its width whose values have its declared
// types. A column whose value's type differs is mixed from the next frame
// of the stream on.
func (f *Frame) Fits(r Row) bool {
	if f.rows == 0 || f.text {
		return true
	}
	if len(r) != len(f.decl) {
		return false
	}
	fits := true
	for j, t := range f.decl {
		if t != mixedCol && byte(r[j].T) != t {
			f.decl[j], fits = mixedCol, false
		}
	}
	return fits
}

// Add appends r to the frame, starting a new frame after Finish. A binary
// frame's caller checks Fits first.
func (f *Frame) Add(r Row) {
	if f.rows == 0 {
		f.buf = f.buf[:countRoom]
	}
	f.rows++
	if f.text {
		f.buf = AppendRowText(f.buf, r)
		return
	}
	if f.rows == 1 {
		f.declare(r)
		return
	}
	if len(r) == 0 {
		f.buf = append(f.buf, 0)
		return
	}
	buf := f.buf
	for j := range r {
		v := &r[j]
		switch f.decl[j] {
		case mixedCol:
			buf = AppendValue(buf, *v)
		case byte(TypeString):
			buf = f.appendString(buf, v.Str())
		case byte(TypeFloat):
			buf = appendFloat(buf, v.F)
		case byte(TypeBool):
			buf = append(buf, boolByte(v.I()))
		default: // TypeInt, TypeDate
			buf = appendUvarint(buf, zigzag(v.I()))
		}
	}
	f.buf = buf
}

// declare writes a frame's header: the width and the first row, whose
// values' tags declare their columns.
func (f *Frame) declare(r Row) {
	f.buf = appendUvarint(f.buf, uint64(len(r)))
	clear(f.strs) // pin none of the last frame's strings
	f.strs = f.strs[:0]
	clear(f.slots)
	if len(r) != len(f.decl) {
		f.decl = make([]byte, len(r)) // a new width: no column mixed yet
	}
	if len(r) == 0 {
		f.buf = append(f.buf, 0)
		return
	}
	for j := range r {
		v := &r[j]
		if f.decl[j] == mixedCol || v.T == TypeNull {
			f.decl[j] = mixedCol
			f.buf = append(f.buf, mixedCol)
		} else {
			f.decl[j] = byte(v.T)
			if s := v.Str(); refable(s) { // Str is "" of a non-string
				// Every such literal is an entry, a repeat too, as the
				// decoder counts them.
				if _, ok := f.ref(s); ok && len(f.strs) < maxRefs {
					f.strs = append(f.strs, s)
				}
			}
		}
		f.buf = AppendValue(f.buf, *v)
	}
}

// appendString appends a declared string column's value: a reference when
// the dictionary holds s, else a literal.
func (f *Frame) appendString(dst []byte, s string) []byte {
	if refable(s) {
		if i, ok := f.ref(s); ok {
			return appendUvarint(dst, uint64(i)<<1|1)
		}
	}
	return append(appendUvarint(dst, uint64(len(s))<<1), s...)
}

// appendFloat appends a declared float column's value.
func appendFloat(dst []byte, x float64) []byte {
	for k, p := range pow10 {
		n := math.Round(x * p)
		if !(math.Abs(n) < maxDecimal) { // NaN and ±Inf too
			break
		}
		// int64 drops the sign of a zero, so -0 is never a decimal.
		if m := int64(n); math.Float64bits(float64(m)/p) == math.Float64bits(x) {
			return appendUvarint(dst, zigzag(m)<<3|uint64(k))
		}
	}
	return binary.LittleEndian.AppendUint64(append(dst, rawFloat), math.Float64bits(x))
}

// ref returns the dictionary index of s, or enters s while the dictionary
// has room and reports false. The string is hashed once, whether it hits
// or is entered; the table stays at most half full.
func (f *Frame) ref(s string) (int, bool) {
	h := strHash(s)
	i, ok := f.find(s, h)
	if ok {
		return int(i), true
	}
	if len(f.strs) < maxRefs {
		f.strs = append(f.strs, s)
		f.slots[i] = h>>32<<32 | uint64(len(f.strs))
		if 2*len(f.strs) > len(f.slots) {
			f.grow()
		}
	}
	return 0, false
}

// find returns the dictionary index of s and true, or the empty slot where
// s belongs and false.
func (f *Frame) find(s string, h uint64) (uint64, bool) {
	mask := uint64(len(f.slots) - 1)
	i := h & mask
	for e := f.slots[i]; e != 0; e = f.slots[i] {
		if e>>32 == h>>32 && f.strs[uint32(e)-1] == s {
			return uint64(uint32(e) - 1), true
		}
		i = (i + 1) & mask
	}
	return i, false
}

// grow doubles the table and indexes the dictionary's strings again, each
// at its first index.
func (f *Frame) grow() {
	f.slots = make([]uint64, 2*len(f.slots))
	for k, s := range f.strs {
		h := strHash(s)
		if i, ok := f.find(s, h); !ok {
			f.slots[i] = h>>32<<32 | uint64(k+1)
		}
	}
}

// strHash hashes a string of 1 to MaxRefString bytes from the at most
// four 8-byte words that cover it.
func strHash(s string) uint64 {
	const m = 0x9e3779b97f4a7c15
	n := len(s)
	var a, b uint64
	switch {
	case n >= 16:
		a, b = le64(s)^le64(s[n-16:])*m, le64(s[8:])^le64(s[n-8:])*m
	case n >= 8:
		a, b = le64(s), le64(s[n-8:])
	case n >= 4:
		a, b = uint64(le32(s)), uint64(le32(s[n-4:]))
	default:
		a = uint64(s[0])<<16 | uint64(s[n/2])<<8 | uint64(s[n-1])
	}
	return mix64((a^uint64(n))*m ^ b)
}

// Finish returns the payload, valid until the next Add, and starts a new
// frame.
func (f *Frame) Finish() []byte {
	start := countRoom - uvarintLen(uint64(f.rows))
	binary.PutUvarint(f.buf[start:], uint64(f.rows))
	f.rows = 0
	return f.buf[start:]
}

// DecodeFrame parses a row-batch payload of the text or the binary
// encoding into the batch: one slab for the values and, when the frame can
// hold strings (a text frame, a binary one that declares a string or a
// mixed column), one string copy of the payload that every string value
// aliases; a binary frame of other columns decodes from the payload
// itself. Every count read from the payload is checked against the bytes
// that follow it before anything is allocated, so a frame never holds more
// rows or values than its payload has bytes. On an error the batch holds
// no rows.
func (b *Batch) DecodeFrame(payload []byte, text bool) error {
	b.Reset()
	n, k, err := uvarint(payload)
	if err != nil {
		return fmt.Errorf("row frame count: %w", err)
	}
	switch src := payload[k:]; {
	case text:
		err = b.decodeTextFrame(n, string(src))
	case declaresStrings(src):
		err = decodeBinaryFrame(b, n, string(src))
	default:
		err = decodeBinaryFrame(b, n, src)
	}
	if err != nil {
		b.Rows = b.Rows[:0]
	}
	return err
}

func (b *Batch) decodeTextFrame(n uint64, src string) error {
	// A text row is at least its 4-byte header.
	if n > uint64(len(src)/4) {
		return fmt.Errorf("sqltypes: row frame claims %d rows in %d bytes", n, len(src))
	}
	if n > 0 {
		// Rows of a result share a width: size the slab for all of them
		// (a value is at least a byte, which bounds a hostile width).
		b.Grow(int(min(n*uint64(le32(src)), uint64(len(src)))))
	}
	for i := uint64(0); i < n; i++ {
		used, err := b.DecodeRowText(src)
		if err != nil {
			return err
		}
		src = src[used:]
	}
	return trailing(src, 0)
}

// declaresStrings reports whether a binary frame's header (after the row
// count) declares a string or a mixed column. It stops at the first one,
// so it decodes no string; a header it cannot read is left to the decoder.
func declaresStrings(src []byte) bool {
	width, off, err := uvarint(src)
	if err != nil {
		return false
	}
	var v Value
	for j := uint64(0); j < width && off < len(src); j++ {
		if t := src[off]; t == mixedCol || t == byte(TypeString) {
			return true
		}
		sz, err := decodeValue(src[off:], &v)
		if err != nil {
			return false
		}
		off += sz
	}
	return false
}

func decodeBinaryFrame[B bytestr](b *Batch, n uint64, src B) error {
	width, k, err := uvarint(src)
	if err != nil {
		return fmt.Errorf("row frame width: %w", err)
	}
	src = src[k:]
	// A row takes at least a byte per value, and a zero-width row one byte.
	if n > uint64(len(src))/max(width, 1) {
		return fmt.Errorf("sqltypes: row frame claims %d rows of %d columns in %d bytes", n, width, len(src))
	}
	if n == 0 {
		return trailing(src, 0)
	}
	b.Grow(int(n * width))
	if width == 0 {
		for i := range n {
			if src[i] != 0 {
				return fmt.Errorf("sqltypes: row %d: bad zero-width row", i)
			}
			b.NewRow(0)
		}
		return trailing(src, int(n))
	}
	// Drop the last frame's strings, so the dictionary pins no payload but
	// this one.
	clear(b.dict)
	b.dict = b.dict[:0]
	off, err := decodeHeader(b, src, b.NewRow(int(width)))
	if err != nil {
		return fmt.Errorf("row 0: %w", err)
	}
	// The dictionary is a local slice for the frame, so appending a string
	// goes through no pointer into the Batch.
	dict := b.dict
	defer func() { b.dict = dict }()
	for i := uint64(1); i < n; i++ {
		row := b.NewRow(int(width))
		for j, t := range b.decl {
			sz, err := decodeDeclared(src[off:], t, &row[j], &dict)
			if err != nil {
				return fmt.Errorf("row %d column %d: %w", i, j, err)
			}
			off += sz
		}
	}
	return trailing(src, off)
}

// trailing refuses the bytes of a frame's payload src after its last row,
// which ends at end: the encoder writes none.
func trailing[B bytestr](src B, end int) error {
	if end != len(src) {
		return fmt.Errorf("sqltypes: %d bytes after the frame's last row", len(src)-end)
	}
	return nil
}

// decodeHeader decodes a binary frame's first row into row and its
// columns' declarations into b.decl, and returns the bytes it read.
func decodeHeader[B bytestr](b *Batch, src B, row Row) (int, error) {
	b.decl = b.decl[:0]
	off := 0
	for j := range row {
		mixed := off < len(src) && src[off] == mixedCol
		if mixed {
			off++
		}
		sz, err := decodeValue(src[off:], &row[j])
		if err != nil {
			return 0, fmt.Errorf("column %d: %w", j, err)
		}
		off += sz
		switch v := &row[j]; {
		case mixed:
			b.decl = append(b.decl, mixedCol)
		case v.T == TypeNull:
			return 0, fmt.Errorf("sqltypes: column %d declared NULL", j)
		default:
			b.decl = append(b.decl, byte(v.T))
			if s := v.Str(); refable(s) && len(b.dict) < maxRefs {
				b.dict = append(b.dict, s)
			}
		}
	}
	return off, nil
}

// decodeDeclared decodes the value at the front of b, of a column with
// declaration t, into v and returns the bytes it read. A string it reads
// literally that a reference could name joins the dictionary.
func decodeDeclared[B bytestr](b B, t byte, v *Value, dict *[]string) (int, error) {
	switch t {
	case mixedCol:
		return decodeValue(b, v)
	case byte(TypeString):
		u, k, err := uvarint(b)
		if err != nil {
			return 0, fmt.Errorf("string: %w", err)
		}
		if u&1 != 0 {
			if u>>1 >= uint64(len(*dict)) {
				return 0, fmt.Errorf("sqltypes: reference %d past the frame's %d strings", u>>1, len(*dict))
			}
			v.setString((*dict)[u>>1])
			return k, nil
		}
		n := u >> 1
		if n > uint64(len(b)-k) {
			return 0, fmt.Errorf("sqltypes: truncated string payload (%d of %d bytes)", len(b)-k, n)
		}
		s := string(b[k : k+int(n)])
		if refable(s) && len(*dict) < maxRefs {
			*dict = append(*dict, s)
		}
		v.setString(s)
		return k + int(n), nil
	case byte(TypeFloat):
		u, k, err := uvarint(b)
		if err != nil {
			return 0, fmt.Errorf("float: %w", err)
		}
		switch e := u & 7; {
		case e < uint64(len(pow10)):
			if u>>3 >= 2*maxDecimal {
				return 0, fmt.Errorf("sqltypes: decimal float past 2^47")
			}
			v.setFloat(float64(unzigzag(u>>3)) / pow10[e])
			return k, nil
		case u == rawFloat:
			if len(b) < k+8 {
				return 0, fmt.Errorf("sqltypes: truncated float")
			}
			v.setFloat(math.Float64frombits(le64(b[k:])))
			return k + 8, nil
		default:
			return 0, fmt.Errorf("sqltypes: float marker %d", u)
		}
	case byte(TypeBool):
		if len(b) == 0 {
			return 0, fmt.Errorf("sqltypes: truncated bool")
		}
		v.setInt(TypeBool, boolOf(b[0]))
		return 1, nil
	default: // TypeInt, TypeDate
		u, k, err := uvarint(b)
		if err != nil {
			return 0, err
		}
		v.setInt(Type(t), unzigzag(u))
		return k, nil
	}
}
