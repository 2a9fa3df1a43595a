package wire

import (
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
)

// FuzzDecodeRowBatch feeds the client's frame decoder arbitrary payloads.
// Whatever the bytes, it must return rows or an error — never panic, and
// never hold more rows or values than the payload has bytes to back (a
// few-byte frame claiming 2^60 rows was the known first catch).
func FuzzDecodeRowBatch(f *testing.F) {
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("x"), sqltypes.NewFloat(2.5)},
		{sqltypes.Null, sqltypes.NewString(""), sqltypes.NewFloat(-1)},
	}
	for _, enc := range []engine.Encoding{engine.EncodingBinary, engine.EncodingText} {
		payload, typ := encodeRowBatch(rows, enc)
		f.Add(payload, typ == msgRowsText)
		f.Add(payload[:len(payload)-3], typ == msgRowsText)
	}
	hostile := appendUint64(nil, 1<<60)
	f.Add(hostile, false)
	f.Add(append(hostile, 0xF0, 0xFF, 0xFF, 0xFF), true)
	f.Add([]byte{1, 0, 0}, false)

	var batch sqltypes.Batch // reused across inputs, as a stream reuses it
	f.Fuzz(func(t *testing.T, payload []byte, text bool) {
		typ := msgRows
		if text {
			typ = msgRowsText
		}
		if err := decodeRowBatch(payload, typ, &batch); err != nil {
			return
		}
		values := 0
		for _, r := range batch.Rows {
			values += len(r)
		}
		if 4*len(batch.Rows) > len(payload) || values > len(payload) {
			t.Fatalf("%d rows, %d values from a %d-byte payload", len(batch.Rows), values, len(payload))
		}
	})
}
