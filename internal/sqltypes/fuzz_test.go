package sqltypes

import (
	"encoding/binary"
	"reflect"
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
		if err == nil && (bused != used || len(batch.Rows) != 1 || !sameValues(batch.Rows[0], row)) {
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
	if err != nil || !sameValues(again, row) {
		t.Fatalf("round trip of %v: %v, err %v", row, again, err)
	}
}

// sameValues compares rows by type and payload, with NaN equal to itself.
func sameValues(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(a[i].T == TypeFloat && b[i].T == TypeFloat && a[i].F != a[i].F && b[i].F != b[i].F) {
			return false
		}
	}
	return true
}

// checkFrameAgrees holds the binary frame decoder (the string one) to the
// byte-slice row decoder. A frame-less row of width ≥ 1 that DecodeRow
// accepts has no reference tag, which DecodeRow rejects, so behind a row
// count of 1 (one uvarint byte) it is a one-row binary frame, and that
// frame must decode to the same row.
func checkFrameAgrees(t *testing.T, b []byte) {
	row, used, err := DecodeRow(b)
	if err != nil || len(row) == 0 {
		return
	}
	var batch Batch
	frame := append([]byte{1}, b[:used]...)
	if err := batch.DecodeFrame(frame, false); err != nil || len(batch.Rows) != 1 || !sameValues(batch.Rows[0], row) {
		t.Fatalf("frame decoder: %v, err %v; byte decoder: %v", batch.Rows, err, row)
	}
}

func FuzzDecodeRow(f *testing.F) {
	for _, s := range fuzzSeeds(AppendRow, varintSeeds()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, DecodeRow, nil, AppendRow)
		checkFrameAgrees(t, b)
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
