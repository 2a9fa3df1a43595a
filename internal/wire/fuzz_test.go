package wire

import (
	"bytes"
	"encoding/binary"
	"math"
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
	f.Add(append(appendUint64(nil, 1), 0x80, 0x80, 0x80, 0x80, 0x80, 0x40), false) // one row of 2^41 columns

	var batch sqltypes.Batch // reused across inputs, as a stream reuses it
	f.Fuzz(func(t *testing.T, payload []byte, text bool) {
		typ := msgRows
		if text {
			typ = msgRowsText
		}
		if err := decodeRowBatch(payload, typ, &batch); err != nil {
			return
		}
		values, minRow := 0, 1 // a row is at least its header: 1 binary byte, 4 text bytes
		if text {
			minRow = 4
		}
		for _, r := range batch.Rows {
			values += len(r)
		}
		if minRow*len(batch.Rows) > len(payload) || values > len(payload) {
			t.Fatalf("%d rows, %d values from a %d-byte payload", len(batch.Rows), values, len(payload))
		}
	})
}

// fuzzStats is a real statistics value for the seed corpora.
func fuzzStats() *engine.TableStats {
	return &engine.TableStats{
		RowCount: 3, AvgRowBytes: 21.5,
		Columns: []engine.ColumnStats{
			{Name: "id", Distinct: 3, Min: sqltypes.NewInt(1), Max: sqltypes.NewInt(3)},
			{Name: "", Distinct: 0, NullFrac: 1, Min: sqltypes.Null, Max: sqltypes.Null},
			{Name: "s", Distinct: 2, NullFrac: 0.5, Min: sqltypes.NewString("a"), Max: sqltypes.NewString("zz")},
		},
	}
}

// hostileStats claims 2^60 columns in the few bytes that follow the count
// — the payload that made decodeStats panic in makeslice.
func hostileStats() []byte {
	b := appendUint64(nil, 3)
	b = appendFloat64(b, 8)
	return append(appendUint64(b, 1<<60), 0, 0, 0)
}

// checkStats is the decoders' shared invariant: no more columns than the
// payload has bytes to back, and a row count that is one.
func checkStats(t *testing.T, st *engine.TableStats, payload []byte) {
	t.Helper()
	if len(st.Columns)*minColumnStatsBytes > len(payload) || st.RowCount < 0 {
		t.Fatalf("%d columns, %d rows from a %d-byte payload", len(st.Columns), st.RowCount, len(payload))
	}
}

// FuzzDecodeStats feeds the msgStatsRes decoder arbitrary payloads: stats
// or an error, never a panic or an allocation the payload cannot back.
func FuzzDecodeStats(f *testing.F) {
	real := encodeStats(fuzzStats())
	f.Add(real)
	f.Add(real[:len(real)-5])
	f.Add(hostileStats())
	f.Add(appendUint64(nil, 1<<63)) // a negative row count
	f.Fuzz(func(t *testing.T, payload []byte) {
		if st, err := decodeStats(payload); err == nil {
			checkStats(t, st, payload)
		}
	})
}

// FuzzDecodeSampleRes is FuzzDecodeStats for msgSampleRes, which embeds
// the same sketch behind its counts.
func FuzzDecodeSampleRes(f *testing.F) {
	real := encodeSampleRes(&engine.SampleResult{Scanned: 10, Matched: 4, Exhausted: true, Stats: fuzzStats()})
	f.Add(real)
	f.Add(real[:len(real)-5])
	f.Add(append(real[:24:24], hostileStats()...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if res, err := decodeSampleRes(payload); err == nil {
			checkStats(t, res.Stats, payload)
		}
	})
}

// FuzzBatch feeds one payload to both ends of msgBatch. As a request it
// goes through the server's batch handler — item decoding, each item's own
// request decoder, the engine — which must answer every item it was given.
// As a response it goes through the client's decoder and every Reply
// accessor. Neither end may panic or hold more items than the payload has
// bytes for.
func FuzzBatch(f *testing.F) {
	var b Batch
	b.Exec("CREATE TABLE made (a BIGINT)")
	b.Cost(engine.CostJoin, 10, 20, 5)
	b.PriceJoin(10, 20, 5)
	b.PriceJoin(math.NaN(), math.Inf(1), math.Inf(-1))
	b.Stats("t")
	b.TableSchema("t")
	b.Explain("SELECT * FROM t")
	b.Sample("t", "t", "", 2)
	b.add(msgQuery, []byte("\x00SELECT * FROM t"))
	f.Add(appendBatch(nil, b.items))
	f.Add(appendBatch(nil, []batchItem{
		{typ: msgOK}, {typ: msgError, payload: []byte("boom")},
		{typ: msgCostRes, payload: appendFloat64(nil, 1.5)},
		{typ: msgJoinRes, payload: encodeJoinPrices(engine.JoinPrices{Join: 1, LeftStream: math.NaN(), RightStream: math.Inf(1), ScanLeft: math.Inf(-1)})},
		{typ: msgJoinRes, payload: encodeJoinPrices(engine.JoinPrices{})[:39]},       // one byte short
		{typ: msgJoinRes, payload: append(encodeJoinPrices(engine.JoinPrices{}), 0)}, // one byte over
		{typ: msgJoin, payload: encodeJoinProbe(1, 2, 3)[:23]},
		{typ: msgJoin, payload: append(encodeJoinProbe(1, 2, 3), 0)},
		{typ: msgStatsRes, payload: encodeStats(fuzzStats())},
		{typ: msgStatsRes, payload: hostileStats()},
		{typ: msgBatchRes, payload: appendBatch(nil, []batchItem{{typ: msgOK}})},
	}))
	f.Add(append(binary.AppendUvarint(nil, 1<<32-1), msgExec, 1, 'x'))                        // 2^32-1 items in 8 bytes
	f.Add([]byte{1, msgExec, 0xFF, 0xFF, 0xFF, 0x7F})                                         // an item longer than the frame
	f.Add([]byte{0x80})                                                                       // a truncated count
	f.Add([]byte{1, msgExec, 0x80})                                                           // a truncated length
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, msgOK, 0}) // an 11-byte count
	f.Add([]byte{1, msgExec, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02})     // a length overflowing 64 bits

	f.Fuzz(func(t *testing.T, payload []byte) {
		items, err := decodeBatch(payload)
		if err != nil {
			return
		}
		if len(items)*minBatchItem > len(payload) {
			t.Fatalf("%d items from a %d-byte payload", len(items), len(payload))
		}
		// The request side, on a fresh engine: statements in the payload run.
		eng := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorTest})
		schema := sqltypes.NewSchema(sqltypes.Column{Name: "a", Type: sqltypes.TypeInt})
		eng.LoadTable("t", schema, []sqltypes.Row{{sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}})
		resp, err := (&Server{eng: eng}).answerBatch(payload)
		if err != nil {
			t.Fatalf("a well-formed batch was refused whole: %v", err)
		}
		if answers, err := decodeBatch(resp); err != nil || len(answers) != len(items) {
			t.Fatalf("%d answers (%v) to %d requests", len(answers), err, len(items))
		}
		// The response side.
		for _, it := range items {
			r := Reply{node: "db1", typ: it.typ, payload: it.payload}
			r.Err()
			r.Cost()
			r.JoinPrices()
			r.Explain()
			r.TableSchema()
			if st, err := r.Stats(); err == nil {
				checkStats(t, st, it.payload)
			}
			if res, err := r.Sample(); err == nil {
				checkStats(t, res.Stats, it.payload)
			}
		}
	})
}

// FuzzReadFrame feeds the frame reader arbitrary streams. readFrame and
// readFrameInto (with a small reused buffer, as a result stream reuses one)
// must agree: a frame or an error, never a panic, never a payload past the
// stream's end or the frame limit; and a frame read is exactly the bytes
// writeFrame puts on the wire for it.
func FuzzReadFrame(f *testing.F) {
	var stream bytes.Buffer
	writeFrame(&stream, msgQuery, []byte("\x00SELECT 1"))
	writeFrame(&stream, msgOK, nil)
	f.Add(stream.Bytes())
	f.Add(stream.Bytes()[:7])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, msgRows})    // beyond the frame limit
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, msgRows, 1}) // 16 MiB claimed, 1 byte sent
	buf := make([]byte, 0, 16)
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, n, err := readFrame(bytes.NewReader(b))
		ityp, ipayload, in, ierr := readFrameInto(bytes.NewReader(b), buf)
		if (err == nil) != (ierr == nil) || typ != ityp || !bytes.Equal(payload, ipayload) || n != in {
			t.Fatalf("readFrame: %d %q %d %v; readFrameInto: %d %q %d %v", typ, payload, n, err, ityp, ipayload, in, ierr)
		}
		if err != nil {
			return
		}
		if n > len(b) || len(payload) > maxFrame || n != 5+len(payload) {
			t.Fatalf("a %d-byte frame with a %d-byte payload from %d bytes", n, len(payload), len(b))
		}
		var again bytes.Buffer
		if _, err := writeFrame(&again, typ, payload); err != nil || !bytes.Equal(again.Bytes(), b[:n]) {
			t.Fatalf("re-written frame % x, read % x (err %v)", again.Bytes(), b[:n], err)
		}
	})
}
