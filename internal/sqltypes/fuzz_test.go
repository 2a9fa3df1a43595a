package sqltypes

import (
	"encoding/binary"
	"testing"
)

// fuzzSeeds are encoded rows plus the hostile shapes the decoders must
// reject without allocating for them: a column count far beyond the bytes
// that follow, and a string length doing the same.
func fuzzSeeds(encode func([]byte, Row) []byte) [][]byte {
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
	hugeCount := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFF0)
	hugeString := append(binary.LittleEndian.AppendUint32(nil, 1), byte(TypeString), 0xF0, 0xFF, 0xFF, 0xFF)
	return append(seeds, hugeCount, append(hugeCount, 0, 0, 0), hugeString)
}

// checkDecode holds for both encodings: a decode never reads past its
// input or allocates more values than the input has bytes; the byte-slice
// and the string (batch) decoders agree; and what decoded once survives an
// encode/decode round trip.
func checkDecode(t *testing.T, b []byte,
	decode func([]byte) (Row, int, error),
	batchDecode func(*Batch, string) (int, error),
	encode func([]byte, Row) []byte,
) {
	row, used, err := decode(b)
	var batch Batch
	bused, berr := batchDecode(&batch, string(b))
	if (err == nil) != (berr == nil) {
		t.Fatalf("byte decoder err %v, batch decoder err %v", err, berr)
	}
	if err != nil {
		if len(batch.Rows) != 0 {
			t.Fatalf("failed batch decode left %d rows", len(batch.Rows))
		}
		return
	}
	if used > len(b) || len(row) > len(b) {
		t.Fatalf("decoded %d values from %d of %d bytes", len(row), used, len(b))
	}
	if bused != used || len(batch.Rows) != 1 || !sameValues(batch.Rows[0], row) {
		t.Fatalf("batch decoder: %v (%d bytes), byte decoder: %v (%d bytes)", batch.Rows, bused, row, used)
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

func FuzzDecodeRow(f *testing.F) {
	for _, s := range fuzzSeeds(AppendRow) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, DecodeRow, (*Batch).DecodeRow, AppendRow)
	})
}

func FuzzDecodeRowText(f *testing.F) {
	for _, s := range fuzzSeeds(AppendRowText) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkDecode(t, b, DecodeRowText, (*Batch).DecodeRowText, AppendRowText)
	})
}
