package wire

import (
	"bytes"
	"io"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello frame")
	n, err := writeFrame(&buf, msgQuery, payload)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5+len(payload) {
		t.Errorf("wire bytes = %d", n)
	}
	typ, got, rn, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgQuery || !bytes.Equal(got, payload) || rn != n {
		t.Errorf("typ=%d payload=%q rn=%d", typ, got, rn)
	}
}

func TestEmptyFrame(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, msgOK, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := readFrame(&buf)
	if err != nil || typ != msgOK || len(payload) != 0 {
		t.Fatalf("typ=%d payload=%v err=%v", typ, payload, err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, msgRows, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized write succeeded")
	}
	// A forged oversized header is rejected on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f, msgRows})
	if _, _, _, err := readFrame(&buf); err == nil {
		t.Error("oversized read succeeded")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, msgQuery, []byte("full payload"))
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		r := bytes.NewReader(raw[:cut])
		if _, _, _, err := readFrame(r); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) read succeeded", cut, len(raw))
		}
	}
	// Clean EOF on an empty stream.
	if _, _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream err = %v, want EOF", err)
	}
}

func TestStatsCodecRoundTrip(t *testing.T) {
	st := &engine.TableStats{
		RowCount:    123456,
		AvgRowBytes: 78.5,
		Columns: []engine.ColumnStats{
			{Name: "id", Distinct: 1000, NullFrac: 0,
				Min: sqltypes.NewInt(1), Max: sqltypes.NewInt(1000)},
			{Name: "name", Distinct: 37, NullFrac: 0.25,
				Min: sqltypes.NewString("a"), Max: sqltypes.NewString("zz")},
			{Name: "when", Distinct: 10, NullFrac: 0,
				Min: sqltypes.DateFromYMD(1992, 1, 1), Max: sqltypes.DateFromYMD(1998, 12, 31)},
		},
	}
	enc := encodeStats(st)
	got, err := decodeStats(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.RowCount != st.RowCount || got.AvgRowBytes != st.AvgRowBytes {
		t.Errorf("header: %+v", got)
	}
	if len(got.Columns) != 3 {
		t.Fatalf("columns = %d", len(got.Columns))
	}
	for i := range st.Columns {
		a, b := got.Columns[i], st.Columns[i]
		if a.Name != b.Name || a.Distinct != b.Distinct || a.NullFrac != b.NullFrac ||
			a.Min != b.Min || a.Max != b.Max {
			t.Errorf("column %d: %+v vs %+v", i, a, b)
		}
	}
	// Truncations fail cleanly.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := decodeStats(enc[:cut]); err == nil {
			t.Fatalf("decodeStats of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestExplainCodecRoundTrip(t *testing.T) {
	info := &engine.ExplainInfo{Cost: 123.5, Rows: 42, Text: "SeqScan t (rows=42)"}
	got, err := decodeExplain(encodeExplain(info))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *info {
		t.Errorf("%+v vs %+v", got, info)
	}
}

func TestCostProbeCodecRoundTrip(t *testing.T) {
	enc := encodeCostProbe(engine.CostJoinStream, 10, 20, 30)
	kind, l, r, o, err := decodeCostProbe(enc)
	if err != nil {
		t.Fatal(err)
	}
	if kind != engine.CostJoinStream || l != 10 || r != 20 || o != 30 {
		t.Errorf("%v %v %v %v", kind, l, r, o)
	}
}

// TestJoinProbeCodec: a join probe is 24 bytes and its answer 40, both
// round-trip exactly, and any other length is refused; the server prices
// the answer with CostOperator.
func TestJoinProbeCodec(t *testing.T) {
	req := encodeJoinProbe(10, 20, 30)
	l, r, o, err := decodeJoinProbe(req)
	if err != nil || len(req) != 24 || l != 10 || r != 20 || o != 30 {
		t.Errorf("%d bytes: %v %v %v %v", len(req), l, r, o, err)
	}
	want := engine.JoinPrices{Join: 1, LeftStream: 2, RightStream: 3, ScanLeft: 4, ScanRight: 5}
	res := encodeJoinPrices(want)
	if got, err := decodeJoinPrices(res); err != nil || len(res) != 40 || got != want {
		t.Errorf("%d bytes: %+v %v", len(res), got, err)
	}
	for _, bad := range [][]byte{nil, req[:23], append(req, 0), res} {
		if _, _, _, err := decodeJoinProbe(bad); err == nil {
			t.Errorf("a %d-byte join probe decoded", len(bad))
		}
	}
	for _, bad := range [][]byte{nil, res[:39], append(res, 0), req} {
		if _, err := decodeJoinPrices(bad); err == nil {
			t.Errorf("%d bytes of join prices decoded", len(bad))
		}
	}

	e := engine.New(engine.Config{Name: "db1", Vendor: engine.VendorMariaDB})
	typ, payload := (&Server{eng: e}).answer(msgJoin, encodeJoinProbe(1000, 200, 500))
	got, err := Reply{typ: typ, payload: payload}.JoinPrices()
	if err != nil {
		t.Fatal(err)
	}
	if want := (engine.JoinPrices{
		Join:        e.CostOperator(engine.CostJoin, 1000, 200, 500),
		LeftStream:  e.CostOperator(engine.CostJoinStream, 1000, 200, 500),
		RightStream: e.CostOperator(engine.CostJoinStream, 200, 1000, 500),
		ScanLeft:    e.CostOperator(engine.CostScan, 1000, 0, 0),
		ScanRight:   e.CostOperator(engine.CostScan, 200, 0, 0),
	}); got != want {
		t.Errorf("server priced %+v, CostOperator says %+v", got, want)
	}
}

// encodeRowBatch builds one row-batch frame payload the way the server's
// stream loop does.
func encodeRowBatch(rows []sqltypes.Row, enc engine.Encoding) ([]byte, byte) {
	f := newRowFrame(enc)
	for _, r := range rows {
		f.add(r)
	}
	return f.finish(), f.typ
}

func TestRowBatchCodecBothEncodings(t *testing.T) {
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("x")},
		{sqltypes.Null, sqltypes.NewFloat(2.5)},
	}
	for _, enc := range []engine.Encoding{engine.EncodingBinary, engine.EncodingText} {
		payload, typ := encodeRowBatch(rows, enc)
		var batch sqltypes.Batch
		if err := decodeRowBatch(payload, typ, &batch); err != nil {
			t.Fatal(err)
		}
		got := batch.Rows
		if len(got) != 2 {
			t.Fatalf("rows = %d", len(got))
		}
		for i := range rows {
			for j := range rows[i] {
				if !sqltypes.Equal(got[i][j], rows[i][j]) {
					t.Errorf("enc %d: row %d col %d: %v vs %v", enc, i, j, got[i][j], rows[i][j])
				}
			}
		}
		wantType := msgRows
		if enc == engine.EncodingText {
			wantType = msgRowsText
		}
		if typ != wantType {
			t.Errorf("frame type = %d", typ)
		}
	}
}
