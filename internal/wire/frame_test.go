package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
	"xdb/internal/tpch"
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
			!sqltypes.Same(a.Min, b.Min) || !sqltypes.Same(a.Max, b.Max) {
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

// encodeRowBatch frames the rows as Server.handleQuery does (rowFrame.push)
// and returns a copy of every payload, in order, and the frames' type.
func encodeRowBatch(rows []sqltypes.Row, enc engine.Encoding) ([][]byte, byte) {
	f := newRowFrame(enc)
	var payloads [][]byte
	streamRows(f, rows, func(payload []byte) { payloads = append(payloads, bytes.Clone(payload)) })
	return payloads, f.typ
}

// TestRowBatchCodecBothEncodings: rows whose column types change round-trip
// in both encodings. The text frame takes them all; the binary stream cuts
// a frame at the second row, whose types differ from the first's.
func TestRowBatchCodecBothEncodings(t *testing.T) {
	rows := []sqltypes.Row{
		{sqltypes.NewInt(1), sqltypes.NewString("x")},
		{sqltypes.Null, sqltypes.NewFloat(2.5)},
	}
	for _, enc := range []engine.Encoding{engine.EncodingBinary, engine.EncodingText} {
		payloads, typ := encodeRowBatch(rows, enc)
		var got []sqltypes.Row
		for _, payload := range payloads {
			var batch sqltypes.Batch
			if err := decodeRowBatch(payload, typ, &batch); err != nil {
				t.Fatal(err)
			}
			got = batch.AppendOwned(got)
		}
		if want := map[engine.Encoding]int{engine.EncodingBinary: 2, engine.EncodingText: 1}[enc]; len(payloads) != want {
			t.Errorf("enc %d: %d frames, want %d", enc, len(payloads), want)
		}
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

// streamRows frames rows as Server.handleQuery does (rowFrame.push) and
// hands every payload to emit before the next frame starts.
func streamRows(f *rowFrame, rows []sqltypes.Row, emit func(payload []byte)) {
	flush := func() error {
		if f.Rows() > 0 {
			emit(f.Finish())
		}
		return nil
	}
	for _, r := range rows {
		f.push(r, flush)
	}
	flush()
}

// mixedCol is the byte in front of a mixed column's first value in a
// binary frame's header (sqltypes' frame format).
const mixedCol = 0xFF

// mixedColumns reads a binary frame's header — the row count, the width,
// then the first row, each value as sqltypes.AppendValue writes it — and
// reports which columns it declares mixed.
func mixedColumns(t *testing.T, payload []byte) []bool {
	t.Helper()
	_, k := binary.Uvarint(payload)
	width, w := binary.Uvarint(payload[k:])
	p := payload[k+w:]
	mixed := make([]bool, width)
	for j := range mixed {
		if mixed[j] = p[0] == mixedCol; mixed[j] {
			p = p[1:]
		}
		_, sz, err := sqltypes.DecodeValue(p)
		if err != nil {
			t.Fatalf("header column %d: %v", j, err)
		}
		p = p[sz:]
	}
	return mixed
}

// frameBound is the most bytes a binary frame of rows may take: the row
// count's uvarint, the rows' frame-less encodings (Row.EncodedSize) and a
// byte per mixed column, and for zero-width rows one byte more, the width.
func frameBound(t *testing.T, payload []byte, rows []sqltypes.Row) int {
	bound := len(binary.AppendUvarint(nil, uint64(len(rows))))
	if len(rows[0]) == 0 {
		bound++
	}
	for _, m := range mixedColumns(t, payload) {
		if m {
			bound++
		}
	}
	for _, r := range rows {
		bound += r.EncodedSize()
	}
	return bound
}

// TestRowFrameRoundTrip streams generated rows through rowFrame and
// decodeRowBatch: two string columns of empty and 1-byte strings, strings
// at and over sqltypes.MaxRefString, non-ASCII strings and more distinct
// short strings in one frame than a one-byte reference reaches, one of
// them turning NULL now and then; an int, a date, a float column of
// decimals and non-decimals; and a column of any type. Strings repeat
// across a frame cut, where the dictionary starts over. Every row comes
// back; every payload decodes on its own; no binary payload is longer
// than frameBound, zero-width frames included.
func TestRowFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []string{"", "a", "é", "日本", "FRANCE", "UNITED KINGDOM",
		strings.Repeat("x", sqltypes.MaxRefString), strings.Repeat("y", sqltypes.MaxRefString+1),
		strings.Repeat("ü", sqltypes.MaxRefString/2), strings.Repeat("z", 300)}
	for i := 0; i < 300; i++ {
		pool = append(pool, fmt.Sprintf("s%03d", i))
	}
	str := func() sqltypes.Value { return sqltypes.NewString(pool[rng.Intn(len(pool))]) }
	any := func() sqltypes.Value {
		switch rng.Intn(8) {
		case 0:
			return sqltypes.Null
		case 1:
			return sqltypes.NewInt(rng.Int63() - rng.Int63())
		case 2:
			return sqltypes.NewFloat(rng.NormFloat64())
		case 3:
			return sqltypes.NewDate(int64(rng.Intn(20000)))
		default:
			return str()
		}
	}
	var rows []sqltypes.Row
	for i := 0; i < 5000; i++ {
		r := sqltypes.Row{str(), str(), sqltypes.NewInt(rng.Int63() - rng.Int63()), sqltypes.NewDate(int64(rng.Intn(20000))),
			sqltypes.NewFloat(float64(rng.Intn(1e7)-5e6) / 100), any()}
		if rng.Intn(500) == 0 {
			r[1] = sqltypes.Null
		}
		if rng.Intn(2) == 0 {
			r[4] = sqltypes.NewFloat(rng.NormFloat64())
		}
		rows = append(rows, r)
	}
	for _, enc := range []engine.Encoding{engine.EncodingBinary, engine.EncodingText} {
		var got []sqltypes.Row
		frames := 0
		streamRows(newRowFrame(enc), rows, func(payload []byte) {
			frames++
			var batch sqltypes.Batch
			if err := decodeRowBatch(payload, newRowFrame(enc).typ, &batch); err != nil {
				t.Fatalf("enc %d: frame %d: %v", enc, frames, err)
			}
			if enc == engine.EncodingBinary {
				if bound := frameBound(t, payload, batch.Rows); len(payload) > bound {
					t.Errorf("frame %d: %d B, bound %d B", frames, len(payload), bound)
				}
			}
			got = batch.AppendOwned(got)
		})
		if frames < 2 {
			t.Fatalf("enc %d: %d frames; the test wants a cut", enc, frames)
		}
		if len(got) != len(rows) {
			t.Fatalf("enc %d: %d rows back of %d", enc, len(got), len(rows))
		}
		for i := range rows {
			for j := range rows[i] {
				if !sqltypes.Same(got[i][j], rows[i][j]) {
					t.Fatalf("enc %d: row %d col %d: %#v, sent %#v", enc, i, j, got[i][j], rows[i][j])
				}
			}
		}
	}

	// 200 distinct 4-byte strings, then each again. The first row is the
	// header, a tagged literal of 6 B; every later literal is 5 B, and a
	// reference 1 B below entry 64 and 2 B from there.
	var strs []sqltypes.Row
	for i := 0; i < 200; i++ {
		strs = append(strs, sqltypes.Row{sqltypes.NewString(pool[10+i])})
	}
	for i := 199; i >= 0; i-- {
		strs = append(strs, strs[i])
	}
	payloads, typ := encodeRowBatch(strs, engine.EncodingBinary)
	if want := 2 + 1 + 6 + 199*5 + 136*2 + 64*1; len(payloads) != 1 || len(payloads[0]) != want {
		t.Errorf("200 strings twice: %d frames, the first of %d B, want one of %d", len(payloads), len(payloads[0]), want)
	}
	var batch sqltypes.Batch
	if err := decodeRowBatch(payloads[0], typ, &batch); err != nil || len(batch.Rows) != 400 || !sqltypes.Same(batch.Rows[399][0], strs[0][0]) {
		t.Errorf("200 strings twice: %d rows, err %v", len(batch.Rows), err)
	}

	// A row of another width starts a new frame; a zero-width row is a byte.
	var widths []int
	mixed := []sqltypes.Row{{}, {}, {sqltypes.NewInt(1)}, {sqltypes.NewInt(2)}, {}}
	streamRows(newRowFrame(engine.EncodingBinary), mixed, func(payload []byte) {
		var batch sqltypes.Batch
		if err := decodeRowBatch(payload, msgRows, &batch); err != nil {
			t.Fatal(err)
		}
		widths = append(widths, len(batch.Rows[0]), len(batch.Rows))
		if len(batch.Rows[0]) == 0 && len(payload) != 1+1+len(batch.Rows) {
			t.Errorf("%d zero-width rows in %d B", len(batch.Rows), len(payload))
		}
		if bound := frameBound(t, payload, batch.Rows); len(payload) > bound {
			t.Errorf("width %d: %d B, bound %d B", len(batch.Rows[0]), len(payload), bound)
		}
	})
	if want := []int{0, 2, 1, 2, 0, 1}; !slices.Equal(widths, want) {
		t.Errorf("frames as (width, rows): %v, want %v", widths, want)
	}
}

// TestStreamTypeChanges streams lineitem rows in which l_extendedprice is
// NULL at row 500 and l_quantity alternates between an int and a float.
// Every row comes back as sent; each of the two columns turns mixed once,
// at the frame after its first change, and stays mixed; no other column
// does; and the stream takes at most a frame per column more than the
// size-cut frames of the tag-per-value format the frames had before.
func TestStreamTypeChanges(t *testing.T) {
	const tagPerValueFrames = 32 // the same rows in a format tagging every value, cut only by size
	gen := tpch.NewGenerator(0.002, 42)
	lineitem := gen.GenLineitem(gen.GenOrders())[:10000]
	const quantity, price = 4, 5
	rows := make([]sqltypes.Row, len(lineitem))
	for i, l := range lineitem {
		rows[i] = slices.Clone(l)
		if i%2 == 0 {
			rows[i][quantity] = sqltypes.NewInt(int64(l[quantity].F))
		}
	}
	rows[500][price] = sqltypes.Null
	var got []sqltypes.Row
	turns := make([]int, len(rows[0]))
	var last []bool
	frames := 0
	streamRows(newRowFrame(engine.EncodingBinary), rows, func(payload []byte) {
		frames++
		var batch sqltypes.Batch
		if err := decodeRowBatch(payload, msgRows, &batch); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		got = batch.AppendOwned(got)
		mixed := mixedColumns(t, payload)
		for j, m := range mixed {
			if last != nil && last[j] && !m {
				t.Errorf("frame %d: column %d declared again after it turned mixed", frames, j)
			}
			if m && (last == nil || !last[j]) {
				turns[j]++
			}
		}
		last = mixed
	})
	for i := range rows {
		for j := range rows[i] {
			if !sqltypes.Same(got[i][j], rows[i][j]) {
				t.Fatalf("row %d col %d: %#v, sent %#v", i, j, got[i][j], rows[i][j])
			}
		}
	}
	for j, n := range turns {
		if want := map[bool]int{true: 1}[j == quantity || j == price]; n != want {
			t.Errorf("column %d turned mixed %d times, want %d", j, n, want)
		}
	}
	if frames > tagPerValueFrames+len(rows[0]) {
		t.Errorf("%d frames, want at most %d + %d", frames, tagPerValueFrames, len(rows[0]))
	}
}
