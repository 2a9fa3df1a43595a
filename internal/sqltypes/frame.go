package sqltypes

import (
	"encoding/binary"
	"fmt"
)

// The row-batch frame: the payload that carries up to BatchRows rows of a
// result stream in one wire frame. It is an 8-byte little-endian row count
// followed by the rows.
//
// A text frame's rows are AppendRowText's, byte for byte.
//
// A binary frame writes the rows' shared column count once, as a uvarint
// after the row count, and then every row as its values alone (a
// zero-width row as one zero byte, so that every row takes a byte). Its
// values are AppendValue's, with one exception: a string of 1 to
// MaxRefString bytes that the frame already carries literally is written
// as the tag refTag and a uvarint index into the frame's dictionary, the
// strings of that length written literally so far, in order. The
// dictionary starts empty in every frame, so a frame decodes on its own,
// and it holds at most maxRefs strings, so an index takes at most two
// bytes and a reference is never longer than the literal it stands for.
// A binary frame of n ≥ 1 rows of width ≥ 1 is therefore never longer
// than the row count and the rows' frame-less encodings (AppendRow,
// Row.EncodedSize); a zero-width frame is one byte longer, its width.

// MaxRefString is the longest string a binary frame writes by reference.
const MaxRefString = 32

// refTag is the value tag of a string written by reference. It is no Type.
const refTag = 0x80 | byte(TypeString)

// maxRefs bounds a frame's dictionary: an index below 2^14 is a uvarint of
// at most two bytes.
const maxRefs = 1 << 14

// Frame accumulates the payload of one row-batch frame. Its buffer and
// dictionary are reused from frame to frame.
type Frame struct {
	text  bool
	rows  int
	width int
	buf   []byte
	dict  map[string]int // short string -> its index in this frame's dictionary
}

// NewFrame returns an empty frame of the text or the binary encoding.
func NewFrame(text bool) *Frame {
	if text {
		return &Frame{text: true}
	}
	return &Frame{dict: map[string]int{}}
}

// Rows is the number of rows added since the frame started.
func (f *Frame) Rows() int { return f.rows }

// Fits reports whether r can join the frame: an empty frame takes any row,
// a binary frame only rows of its width.
func (f *Frame) Fits(r Row) bool { return f.rows == 0 || f.text || len(r) == f.width }

// Add appends r to the frame, starting a new frame after Finish. A binary
// frame's caller checks Fits first.
func (f *Frame) Add(r Row) {
	if f.rows == 0 {
		f.buf = binary.LittleEndian.AppendUint64(f.buf[:0], 0) // the count, patched by Finish
		if !f.text {
			f.width = len(r)
			f.buf = appendUvarint(f.buf, uint64(len(r)))
			clear(f.dict)
		}
	}
	f.rows++
	if f.text {
		f.buf = AppendRowText(f.buf, r)
		return
	}
	if len(r) == 0 {
		f.buf = append(f.buf, 0)
		return
	}
	for _, v := range r {
		if n := len(v.S); v.T == TypeString && n > 0 && n <= MaxRefString {
			if i, ok := f.dict[v.S]; ok {
				f.buf = appendUvarint(append(f.buf, refTag), uint64(i))
				continue
			}
			if len(f.dict) < maxRefs {
				f.dict[v.S] = len(f.dict)
			}
		}
		f.buf = AppendValue(f.buf, v)
	}
}

// Finish returns the payload, valid until the next Add, and starts a new
// frame.
func (f *Frame) Finish() []byte {
	binary.LittleEndian.PutUint64(f.buf, uint64(f.rows))
	f.rows = 0
	return f.buf
}

// DecodeFrame parses a row-batch payload of the text or the binary
// encoding into the batch: one slab for the values, one string copy of the
// payload that every string value aliases. Every count read from the
// payload is checked against the bytes that follow it before anything is
// allocated, so a frame never holds more rows or values than its payload
// has bytes. On an error the batch holds no rows.
func (b *Batch) DecodeFrame(payload []byte, text bool) error {
	b.Reset()
	if len(payload) < 8 {
		return fmt.Errorf("sqltypes: truncated row frame")
	}
	n := le64(payload)
	src := string(payload[8:])
	var err error
	if text {
		err = b.decodeTextFrame(n, src)
	} else {
		err = b.decodeBinaryFrame(n, src)
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
	return nil
}

func (b *Batch) decodeBinaryFrame(n uint64, src string) error {
	width, k, err := uvarint(src)
	if err != nil {
		return fmt.Errorf("row frame width: %w", err)
	}
	src = src[k:]
	// A row takes at least a byte per value, and a zero-width row one byte.
	if n > uint64(len(src))/max(width, 1) {
		return fmt.Errorf("sqltypes: row frame claims %d rows of %d columns in %d bytes", n, width, len(src))
	}
	b.Grow(int(n * width))
	// Drop the last frame's strings, so the dictionary pins no payload but
	// this one.
	clear(b.dict)
	b.dict = b.dict[:0]
	for i := uint64(0); i < n; i++ {
		row := b.NewRow(int(width))
		if width == 0 {
			if len(src) == 0 || src[0] != 0 {
				return fmt.Errorf("sqltypes: row %d: bad zero-width row", i)
			}
			src = src[1:]
			continue
		}
		used, err := decodeRow(src, row, &b.dict)
		if err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		src = src[used:]
	}
	return nil
}
