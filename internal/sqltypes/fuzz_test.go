package sqltypes

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds are encoded rows plus the hostile shapes the decoders must
// reject without allocating for them.
func fuzzSeeds(encode func([]byte, Row) []byte, hostile ...[]byte) [][]byte {
	rows := []Row{
		{},
		{NewInt(-7), NewFloat(2.5), NewString("héllo"), DateFromYMD(1995, 3, 15), NewBool(true), Null},
		{NewString(""), NewInt(1 << 62)},
	}
	var seeds [][]byte
	for _, r := range rows {
		enc := encode(nil, r)
		seeds = append(seeds, enc, enc[:len(enc)/2])
	}
	return append(seeds, hostile...)
}

// varintSeeds are the binary format's hostile shapes: a column count of
// 2^40 and a string length of 2^62 in a few bytes, an 11-byte overlong
// varint, and a 10th varint byte carrying more than the 64th bit.
func varintSeeds() [][]byte {
	hugeCount := binary.AppendUvarint(nil, 1<<40)
	hugeString := append([]byte{1, byte(TypeString)}, binary.AppendUvarint(nil, 1<<62)...)
	overlong := []byte{1, byte(TypeInt), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	overflow := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0}
	return [][]byte{hugeCount, append(hugeCount, 0, 0, 0), hugeString, overlong, overflow}
}

// textSeeds are the text format's hostile shapes: its fixed 4-byte column
// count and value length, each far beyond the bytes that follow.
func textSeeds() [][]byte {
	hugeCount := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0)
	hugeString := append(binary.LittleEndian.AppendUint32(nil, 1), byte(TypeString), 0xF0, 0xFF, 0xFF, 0xFF)
	return [][]byte{hugeCount, append(hugeCount, 0, 0, 0), hugeString}
}

// checkDecode holds for both encodings: a decode never reads past its
// input or allocates more values than the input has bytes; the byte-slice
// and the string (batch) decoders agree, where the encoding has a batch
// decoder of single rows (the text one; binary rows reach a batch only in
// frames, which checkFrameAgrees covers); and what decoded once survives
// an encode/decode round trip.
func checkDecode(t *testing.T, b []byte,
	decode func([]byte) (Row, int, error),
	batchDecode func(*Batch, string) (int, error),
	encode func([]byte, Row) []byte,
) {
	row, used, err := decode(b)
	if batchDecode != nil {
		var batch Batch
		bused, berr := batchDecode(&batch, string(b))
		if (err == nil) != (berr == nil) {
			t.Fatalf("byte decoder err %v, batch decoder err %v", err, berr)
		}
		if err != nil && len(batch.Rows) != 0 {
			t.Fatalf("failed batch decode left %d rows", len(batch.Rows))
		}
		if err == nil && (bused != used || len(batch.Rows) != 1 || !sameRow(batch.Rows[0], row)) {
			t.Fatalf("batch decoder: %v (%d bytes), byte decoder: %v (%d bytes)", batch.Rows, bused, row, used)
		}
	}
	if err != nil {
		return
	}
	if used > len(b) || len(row) > len(b) {
		t.Fatalf("decoded %d values from %d of %d bytes", len(row), used, len(b))
	}
	again, _, err := decode(encode(nil, row))
	if err != nil || !sameRow(again, row) {
		t.Fatalf("round trip of %v: %v, err %v", row, again, err)
	}
}

func FuzzDecodeRow(f *testing.F) {
	for _, s := range fuzzSeeds(AppendRow, varintSeeds()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, DecodeRow, nil, AppendRow)
	})
}

// fuzzRows reads a stream of rows from b: a width below 7, a kind per
// column, then per value a selector byte whose top bit switches the value
// to the kind of its low three bits, so types change mid-stream, and the
// value's payload from the bytes that follow. The kinds are NULL, an int,
// a float of any 8 bits (±0, ±Inf, NaN payloads, subnormals), a decimal
// n/10^k with n near ±2^47, a short string from a pool of repeats, a
// literal of up to 8 bytes, a date and a bool.
func fuzzRows(b []byte) []Row {
	next := func(n int) []byte {
		var p [8]byte
		k := copy(p[:n], b)
		b = b[k:]
		return p[:n]
	}
	width := int(next(1)[0] % 7)
	kinds := next(width)
	pool := []string{"a", "FRANCE", "UNITED KINGDOM", strings.Repeat("x", MaxRefString), "é"}
	var rows []Row
	for len(b) > 0 && len(rows) < 2000 {
		row := make(Row, width)
		for j := range row {
			kind := kinds[j] & 7
			if sel := next(1)[0]; sel&0x80 != 0 {
				kind = sel & 7
			}
			u := binary.LittleEndian.Uint64(next(8))
			switch kind {
			case 0:
				row[j] = Null
			case 1:
				row[j] = NewInt(int64(u))
			case 2:
				row[j] = NewFloat(math.Float64frombits(u))
			case 3:
				n := int64(1)<<47 + int64(int8(u)) // around 2^47
				if u&0x100 != 0 {
					n = -n
				}
				row[j] = NewFloat(float64(n) / pow10[(u>>9)%uint64(len(pow10))])
			case 4:
				row[j] = NewString(pool[u%uint64(len(pool))])
			case 5:
				row[j] = NewString(string(next(int(u % 9))))
			case 6:
				row[j] = NewDate(int64(int32(u)))
			default:
				row[j] = NewBool(u&1 != 0)
			}
		}
		rows = append(rows, row)
	}
	if width == 0 && len(rows) == 0 {
		rows = append(rows, Row{})
	}
	return rows
}

// frameRoundTrip streams rows through one Frame as the wire server does —
// Fits, and a cut where a row does not fit or every cut rows — decodes
// every payload and holds it to the rows it was made of, bit for bit, and
// to the format's size bound: the row count's uvarint, the rows'
// frame-less encodings and one byte per mixed column (one more, the width,
// for a zero-width frame).
func frameRoundTrip(t *testing.T, rows []Row, cut int) {
	t.Helper()
	f := NewFrame(false)
	var batch Batch // reused across frames, as a stream reuses it
	var pending []Row
	flush := func() {
		if f.Rows() == 0 {
			return
		}
		payload := f.Finish()
		if err := batch.DecodeFrame(payload, false); err != nil {
			t.Fatalf("frame of %d rows: %v", len(pending), err)
		}
		bound := uvarintLen(uint64(len(pending)))
		if len(pending[0]) == 0 {
			bound++
		} else {
			for _, c := range batch.decl {
				if c == mixedCol {
					bound++
				}
			}
		}
		for i, r := range pending {
			bound += r.EncodedSize()
			if i >= len(batch.Rows) || !sameRow(batch.Rows[i], r) {
				t.Fatalf("row %d of %d: sent %#v, got %#v", i, len(pending), r, batch.Rows)
			}
		}
		if len(batch.Rows) != len(pending) || len(payload) > bound {
			t.Fatalf("%d rows back of %d, in %d B, bound %d B", len(batch.Rows), len(pending), len(payload), bound)
		}
		pending = pending[:0]
	}
	for _, r := range rows {
		if !f.Fits(r) || f.Rows() == cut {
			flush()
		}
		f.Add(r)
		pending = append(pending, r)
	}
	flush()
}

// hostileFrames are binary frame payloads DecodeFrame must refuse.
func hostileFrames() [][]byte {
	float := binary.LittleEndian.AppendUint64([]byte{2, 1, byte(TypeFloat)}, math.Float64bits(0.5)) // 2 rows of width 1, a float first
	return [][]byte{
		{1, 1, byte(TypeNull)},                                               // a declared NULL
		{1, 1, 9, 0},                                                         // an unknown type byte
		{1, 1, mixedCol, 9, 0},                                               // an unknown type byte in a mixed column
		{2, 1, byte(TypeString), 2, 'a', 'b', 3},                             // a reference at the dictionary's end
		{2, 1, byte(TypeString), 2, 'a', 'b', 0x7F},                          // a reference far past it
		{2, 1, byte(TypeString), 0, 1},                                       // a reference to the empty string
		{2, 1, byte(TypeString), 2, 'a', 'b', 0x80},                          // a truncated string varint
		{2, 1, byte(TypeString), 2, 'a', 'b', 8, 'c'},                        // a literal past the payload
		{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40, byte(TypeInt), 2},            // a width of 2^41 past the payload
		{1, 3, byte(TypeInt), 2, byte(TypeInt), 4},                           // a width past the first row
		{3, 0, 0, 1, 0},                                                      // a zero-width row that is no zero byte
		append(float[:len(float):len(float)], 5),                             // a float marker of 5
		append(float[:len(float):len(float)], 6),                             // and of 6
		append(float[:len(float):len(float)], 0x80|rawFloat, 0),              // a raw float's marker as a longer varint
		append(float[:len(float):len(float)], rawFloat, 0, 0, 0, 0),          // a raw float cut short
		binary.AppendUvarint(float[:len(float):len(float)], 2*maxDecimal<<3), // a decimal past 2^47
		{2, 1, byte(TypeBool), 1},                                            // a bool row missing
		{1, 1, byte(TypeInt), 2, 0x55, 0x66},                                 // two bytes after the last row
		{1, 0, 0, 0},                                                         // a byte after the last zero-width row
	}
}

// FuzzFrame holds the binary row-batch frame to two rules. Rows read from
// the input (fuzzRows) come back from Fits/Add/Finish/DecodeFrame bit for
// bit, within the format's size bound. And the input itself, as a payload,
// decodes to rows or an error, never a panic, with a slab no larger than
// the payload has bytes; rows it decodes to frame and decode again.
func FuzzFrame(f *testing.F) {
	for _, b := range hostileFrames() {
		var batch Batch
		if err := batch.DecodeFrame(b, false); err == nil {
			f.Fatalf("% x decoded to %v", b, batch.Rows)
		}
		f.Add(b)
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0_0000_0000_0001), math.SmallestNonzeroFloat64, 0x1p-1030,
		0.1, 12345.67, -0.05, (1<<47 - 1) / 1e4, 1 << 47 / 1e4, -(1 << 47) / 1e2, 1<<47 + 1}
	var seed []byte
	seed = append(seed, 4, 2, 4, 1, 3) // a float, a pooled string, an int, a decimal
	for i, x := range specials {
		seed = binary.LittleEndian.AppendUint64(append(seed, 0), math.Float64bits(x))
		seed = binary.LittleEndian.AppendUint64(append(seed, 0), uint64(i))
		seed = binary.LittleEndian.AppendUint64(append(seed, 0x80|byte(i%8)), uint64(i)) // a type change
		seed = binary.LittleEndian.AppendUint64(append(seed, 0), uint64(i)<<9)
	}
	f.Add(seed)
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{3, 5, 4, 0, 0x85, 4, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		cut := 1 + len(b)%5
		if len(b) > 1 && b[len(b)-1]&1 == 0 {
			cut = BatchRows
		}
		frameRoundTrip(t, fuzzRows(b), cut)

		var batch Batch
		err := batch.DecodeFrame(b, false)
		if cap(batch.slab) > len(b) {
			t.Fatalf("a %d-byte payload took a slab of %d values (err %v)", len(b), cap(batch.slab), err)
		}
		if err != nil {
			if len(batch.Rows) != 0 {
				t.Fatalf("a failed decode left %d rows", len(batch.Rows))
			}
			return
		}
		if len(batch.Rows) > 0 {
			frameRoundTrip(t, batch.Rows, BatchRows)
		}
	})
}

func FuzzDecodeRowText(f *testing.F) {
	for _, s := range fuzzSeeds(AppendRowText, textSeeds()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, DecodeRowText, (*Batch).DecodeRowText, AppendRowText)
	})
}

// FuzzDecodeSchema holds the schema decoder to the row decoders' rules: a
// schema or an error, never a panic; no more columns than the input has
// bytes to back (a column is at least two length bytes and a type byte);
// and what decoded once survives an encode/decode round trip.
func FuzzDecodeSchema(f *testing.F) {
	enc := AppendSchema(nil, NewSchema(
		Column{Name: "o_orderkey", Table: "orders", Type: TypeInt},
		Column{Name: "revenue", Type: TypeFloat},
	))
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(AppendSchema(nil, NewSchema()))
	for _, hostile := range varintSeeds() {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, used, err := DecodeSchema(b)
		if err != nil {
			return
		}
		if used > len(b) || 3*s.Len() > len(b) {
			t.Fatalf("decoded %d columns from %d of %d bytes", s.Len(), used, len(b))
		}
		again, n, err := DecodeSchema(AppendSchema(nil, s))
		if err != nil || !reflect.DeepEqual(again, s) || n != len(AppendSchema(nil, s)) {
			t.Fatalf("round trip of %v: %v (%d bytes), err %v", s, again, n, err)
		}
	})
}
