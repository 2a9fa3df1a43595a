package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
)

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// encodeStats serializes a TableStats payload.
func encodeStats(st *engine.TableStats) []byte {
	var b []byte
	b = appendUint64(b, uint64(st.RowCount))
	b = appendFloat64(b, st.AvgRowBytes)
	b = appendUint64(b, uint64(len(st.Columns)))
	for _, c := range st.Columns {
		b = appendString32(b, c.Name)
		b = appendUint64(b, uint64(c.Distinct))
		b = appendFloat64(b, c.NullFrac)
		b = sqltypes.AppendValue(b, c.Min)
		b = sqltypes.AppendValue(b, c.Max)
	}
	return b
}

// minColumnStatsBytes is the smallest encodable ColumnStats: an empty name
// (4), the distinct count and null fraction (8 + 8), and two NULL bounds
// (1 + 1).
const minColumnStatsBytes = 22

// decodeStats parses a TableStats payload. The column count is checked
// against the bytes that follow it before anything is allocated.
func decodeStats(payload []byte) (*engine.TableStats, error) {
	r := &reader{b: payload}
	st := &engine.TableStats{
		RowCount:    int64(r.uint64()),
		AvgRowBytes: r.float64(),
	}
	n := r.uint64()
	if r.err != nil {
		return nil, r.err
	}
	if st.RowCount < 0 {
		return nil, fmt.Errorf("wire: stats claim %d rows", st.RowCount)
	}
	if rest := len(payload) - r.off; n > uint64(rest/minColumnStatsBytes) {
		return nil, fmt.Errorf("wire: stats claim %d columns in %d bytes", n, rest)
	}
	st.Columns = make([]engine.ColumnStats, 0, n)
	for i := uint64(0); i < n; i++ {
		c := engine.ColumnStats{
			Name:     r.string32(),
			Distinct: int64(r.uint64()),
			NullFrac: r.float64(),
		}
		if r.err != nil {
			return nil, r.err
		}
		for _, bound := range []*sqltypes.Value{&c.Min, &c.Max} {
			v, sz, err := sqltypes.DecodeValue(payload[r.off:])
			if err != nil {
				return nil, err
			}
			r.off += sz
			*bound = v
		}
		st.Columns = append(st.Columns, c)
	}
	return st, r.err
}

// encodeExplain serializes an ExplainInfo payload.
func encodeExplain(info *engine.ExplainInfo) []byte {
	var b []byte
	b = appendFloat64(b, info.Cost)
	b = appendFloat64(b, info.Rows)
	b = appendString32(b, info.Text)
	return b
}

// decodeExplain parses an ExplainInfo payload.
func decodeExplain(payload []byte) (*engine.ExplainInfo, error) {
	r := &reader{b: payload}
	info := &engine.ExplainInfo{
		Cost: r.float64(),
		Rows: r.float64(),
		Text: r.string32(),
	}
	return info, r.err
}

// encodeCostProbe serializes a costing request.
func encodeCostProbe(kind engine.CostKind, left, right, out float64) []byte {
	var b []byte
	b = appendString32(b, string(kind))
	b = appendFloat64(b, left)
	b = appendFloat64(b, right)
	b = appendFloat64(b, out)
	return b
}

// decodeCostProbe parses a costing request.
func decodeCostProbe(payload []byte) (engine.CostKind, float64, float64, float64, error) {
	r := &reader{b: payload}
	kind := engine.CostKind(r.string32())
	l, ri, o := r.float64(), r.float64(), r.float64()
	return kind, l, ri, o, r.err
}

// encodeSampleProbe serializes a bounded-sample probe request.
func encodeSampleProbe(table, alias, filter string, limit int64) []byte {
	var b []byte
	b = appendString32(b, table)
	b = appendString32(b, alias)
	b = appendString32(b, filter)
	b = appendUint64(b, uint64(limit))
	return b
}

// decodeSampleProbe parses a bounded-sample probe request.
func decodeSampleProbe(payload []byte) (table, alias, filter string, limit int64, err error) {
	r := &reader{b: payload}
	table, alias, filter = r.string32(), r.string32(), r.string32()
	limit = int64(r.uint64())
	return table, alias, filter, limit, r.err
}

// encodeSampleRes serializes a SampleResult: the counts, the exhaustion
// flag, and the per-column statistics sketch reusing the stats codec.
func encodeSampleRes(res *engine.SampleResult) []byte {
	var b []byte
	b = appendUint64(b, uint64(res.Scanned))
	b = appendUint64(b, uint64(res.Matched))
	var ex uint64
	if res.Exhausted {
		ex = 1
	}
	b = appendUint64(b, ex)
	return append(b, encodeStats(res.Stats)...)
}

// decodeSampleRes parses a SampleResult payload.
func decodeSampleRes(payload []byte) (*engine.SampleResult, error) {
	r := &reader{b: payload}
	res := &engine.SampleResult{
		Scanned:   int64(r.uint64()),
		Matched:   int64(r.uint64()),
		Exhausted: r.uint64() == 1,
	}
	if r.err != nil {
		return nil, r.err
	}
	st, err := decodeStats(payload[r.off:])
	if err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}

// batchItem is one frame riding inside a batch frame: a request on the way
// out, its response on the way back.
type batchItem struct {
	typ     byte
	payload []byte
}

// batchItemHeader is an item's type byte and 4-byte payload length.
const batchItemHeader = 5

// appendBatch serializes a msgBatch or msgBatchRes payload: the item count,
// then every item as a frame of its own (type, length, payload).
func appendBatch(dst []byte, items []batchItem) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		dst = append(dst, it.typ)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(it.payload)))
		dst = append(dst, it.payload...)
	}
	return dst
}

// decodeBatch parses a msgBatch or msgBatchRes payload; the items alias it.
// The count and every length are checked against the bytes that follow
// them, and nothing may follow the last item.
func decodeBatch(payload []byte) ([]batchItem, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: truncated payload")
	}
	n := binary.LittleEndian.Uint32(payload)
	rest := payload[4:]
	if uint64(n) > uint64(len(rest)/batchItemHeader) {
		return nil, fmt.Errorf("wire: batch claims %d items in %d bytes", n, len(rest))
	}
	items := make([]batchItem, n)
	for i := range items {
		if len(rest) < batchItemHeader {
			return nil, fmt.Errorf("wire: truncated payload")
		}
		size := binary.LittleEndian.Uint32(rest[1:])
		if uint64(size) > uint64(len(rest)-batchItemHeader) {
			return nil, fmt.Errorf("wire: batch item claims %d bytes of %d", size, len(rest)-batchItemHeader)
		}
		end := batchItemHeader + int(size)
		items[i] = batchItem{typ: rest[0], payload: rest[batchItemHeader:end]}
		rest = rest[end:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d bytes after the batch's last item", len(rest))
	}
	return items, nil
}

// rowFrame accumulates the payload of one row-batch frame: a row count
// followed by the rows in the stream's encoding. Its buffer is reused from
// frame to frame.
type rowFrame struct {
	typ  byte
	text bool
	rows int
	buf  []byte
}

func newRowFrame(enc engine.Encoding) *rowFrame {
	f := &rowFrame{typ: msgRows, text: enc == engine.EncodingText}
	if f.text {
		f.typ = msgRowsText
	}
	return f
}

func (f *rowFrame) add(row sqltypes.Row) {
	if f.rows == 0 {
		f.buf = appendUint64(f.buf[:0], 0) // the count, patched by finish
	}
	f.rows++
	if f.text {
		f.buf = sqltypes.AppendRowText(f.buf, row)
	} else {
		f.buf = sqltypes.AppendRow(f.buf, row)
	}
}

// finish returns the payload, valid until the next add, and starts a new
// frame.
func (f *rowFrame) finish() []byte {
	binary.LittleEndian.PutUint64(f.buf, uint64(f.rows))
	f.rows = 0
	return f.buf
}

// decodeRowBatch parses a row-batch payload of the given frame type into
// the batch: one slab for the values, one string copy of the payload for
// every string value to alias. Every count read from the payload is
// checked against the bytes that follow it before anything is allocated.
func decodeRowBatch(payload []byte, typ byte, b *sqltypes.Batch) error {
	b.Reset()
	if len(payload) < 8 {
		return fmt.Errorf("wire: truncated payload")
	}
	n := binary.LittleEndian.Uint64(payload)
	src := string(payload[8:])
	// A row is at least its header: one uvarint byte, four text bytes.
	decode, minRow := b.DecodeRow, 1
	if typ == msgRowsText {
		decode, minRow = b.DecodeRowText, 4
	}
	if n > uint64(len(src)/minRow) {
		return fmt.Errorf("wire: row batch claims %d rows in %d bytes", n, len(src))
	}
	if n > 0 {
		// Rows of a result share a width: size the slab for all of them
		// (a value is at least a byte, which bounds a hostile width).
		width, _ := binary.Uvarint(payload[8:])
		if typ == msgRowsText {
			width = uint64(binary.LittleEndian.Uint32(payload[8:]))
		}
		b.Grow(int(min(n*width, uint64(len(src)))))
	}
	for i := 0; i < int(n); i++ {
		used, err := decode(src)
		if err != nil {
			return err
		}
		src = src[used:]
	}
	return nil
}
