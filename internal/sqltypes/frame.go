package sqltypes

import (
	"encoding/binary"
	"fmt"
)

// The row-batch frame: the payload that carries up to BatchRows rows of a
// result stream in one wire frame. It is a uvarint row count followed by
// the rows.
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

// countRoom is the room a frame's buffer keeps in front of its rows for the
// row count, which Finish writes right-aligned once the count is known.
const countRoom = binary.MaxVarintLen64

// Frame accumulates the payload of one row-batch frame. Its buffer and
// dictionary are reused from frame to frame. Make one with NewFrame.
type Frame struct {
	text  bool
	rows  int
	width int
	buf   []byte   // countRoom bytes, then the rows
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
// a binary frame only rows of its width.
func (f *Frame) Fits(r Row) bool { return f.rows == 0 || f.text || len(r) == f.width }

// Add appends r to the frame, starting a new frame after Finish. A binary
// frame's caller checks Fits first.
func (f *Frame) Add(r Row) {
	if f.rows == 0 {
		f.buf = f.buf[:countRoom]
		if !f.text {
			f.width = len(r)
			f.buf = appendUvarint(f.buf, uint64(len(r)))
			clear(f.strs) // pin none of the last frame's strings
			f.strs = f.strs[:0]
			clear(f.slots)
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
	for j := range r {
		if v := &r[j]; v.T == TypeString && len(v.S) > 0 && len(v.S) <= MaxRefString {
			if i, ok := f.ref(v.S); ok {
				f.buf = appendUvarint(append(f.buf, refTag), uint64(i))
				continue
			}
		}
		f.buf = AppendValue(f.buf, r[j])
	}
}

// ref returns the dictionary index of s, or enters s while the dictionary
// has room and reports false. The string is hashed once, whether it hits
// or is entered; the table stays at most half full.
func (f *Frame) ref(s string) (int, bool) {
	h := strHash(s)
	mask := uint64(len(f.slots) - 1)
	i := h & mask
	for e := f.slots[i]; e != 0; e = f.slots[i] {
		if e>>32 == h>>32 && f.strs[uint32(e)-1] == s {
			return int(uint32(e) - 1), true
		}
		i = (i + 1) & mask
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

// grow doubles the table and enters the dictionary's strings again, in
// order: each one is appended back onto the slot of the array it is read
// from.
func (f *Frame) grow() {
	strs := f.strs
	f.slots, f.strs = make([]uint64, 2*len(f.slots)), f.strs[:0]
	for _, s := range strs {
		f.ref(s)
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
// encoding into the batch: one slab for the values, one string copy of the
// payload that every string value aliases. Every count read from the
// payload is checked against the bytes that follow it before anything is
// allocated, so a frame never holds more rows or values than its payload
// has bytes. On an error the batch holds no rows.
func (b *Batch) DecodeFrame(payload []byte, text bool) error {
	b.Reset()
	n, k, err := uvarint(payload)
	if err != nil {
		return fmt.Errorf("row frame count: %w", err)
	}
	src := string(payload[k:])
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
