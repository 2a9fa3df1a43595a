// Package wire implements the TCP protocol the emulated DBMSes and the XDB
// middleware speak: a length-prefixed binary framing carrying queries, DDL,
// EXPLAIN/statistics/costing probes, and streamed result-row batches.
//
// All byte accounting and bandwidth/latency shaping happens on the client
// side of a connection (the client knows both endpoints' node names), so
// every frame moved between two nodes is charged to the netsim topology
// exactly once in each direction.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// frame types, client -> server. Only msgQuery and msgBatch travel as
// frames of their own; the rest are the items a batch carries.
const (
	msgQuery   byte = 1 // payload: 1 flag byte (queryText, queryRowsOnly) + SQL text; response: Schema (unless rows only), Rows*, End | Error
	msgExec    byte = 2 // payload: SQL text; response: OK | Error
	msgExplain byte = 3 // payload: SQL text; response: ExplainRes | Error
	msgStats   byte = 4 // payload: table name; response: StatsRes | Error
	msgCost    byte = 5 // payload: cost probe; response: CostRes | Error
	msgTblSch  byte = 6 // payload: table name; response: Schema | Error
	msgSample  byte = 7 // payload: sample probe; response: SampleRes | Error
	msgBatch   byte = 8 // payload: uvarint item count + (type, uvarint length, payload)* of the requests above, msgQuery excepted; response: BatchRes | Error
	msgJoin    byte = 9 // payload: a join's left, right, out estimates (3 float64); response: JoinRes | Error
)

// frame types, server -> client.
const (
	msgSchema     byte = 10 // payload: schema
	msgRows       byte = 11 // payload: uvarint row count + binary rows
	msgRowsText   byte = 12 // payload: uvarint row count + text rows
	msgEnd        byte = 13 // payload: empty
	msgError      byte = 14 // payload: error text
	msgOK         byte = 15 // payload: empty
	msgExplainRes byte = 16 // payload: cost, rows float64 + text
	msgStatsRes   byte = 17 // payload: encoded TableStats
	msgCostRes    byte = 18 // payload: cost float64
	msgSampleRes  byte = 19 // payload: encoded sample result (counts + stats sketch)
	msgBatchRes   byte = 20 // payload: as msgBatch: each item's own response, in request order
	msgJoinRes    byte = 21 // payload: the join's five prices (5 float64, engine.JoinPrices order)
)

// msgQuery's flags.
const (
	queryText     byte = 1 << 0 // the text row encoding, whatever the vendor's
	queryRowsOnly byte = 1 << 1 // no schema frame: the reader declared the columns
)

// maxFrame bounds a frame payload; large results are split into many row
// batches well below this.
const maxFrame = 16 << 20

// batchTargetBytes is the soft limit at which the server flushes a row
// batch frame.
const batchTargetBytes = 31 << 10

// frameHeader is the size of a frame's header: its payload length and type.
const frameHeader = 5

// writeFrame writes one frame: 4-byte little-endian payload length, a type
// byte, then the payload. It returns the total bytes put on the wire.
func writeFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return 0, err
		}
	}
	return len(hdr) + len(payload), nil
}

// readFrame reads one frame, returning its type, payload, and total wire
// bytes consumed.
func readFrame(r io.Reader) (byte, []byte, int, error) {
	return readFrameInto(r, nil)
}

// readFrameInto is readFrame with the payload read into buf when it fits
// (a result stream reads frame after frame into one buffer); the payload
// then aliases buf and is valid until buf's next use.
func readFrameInto(r io.Reader, buf []byte) (byte, []byte, int, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return 0, nil, 0, fmt.Errorf("wire: oversized frame (%d bytes)", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return hdr[4], payload, len(hdr) + int(n), nil
}

// Binary payload helpers.

func appendUint64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, floatBits(v))
}

// appendString appends s as a uvarint length and its bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendFrac appends a fraction: a zero byte for +0, the common case, else
// a one byte and its 8 bytes (so -0 and NaN keep their bits).
func appendFrac(dst []byte, f float64) []byte {
	if floatBits(f) == 0 {
		return append(dst, 0)
	}
	return appendFloat64(append(dst, 1), f)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) uint64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) float64() float64 { return floatFromBits(r.uint64()) }

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b[r.off:])
	if k <= 0 {
		r.fail()
		return 0
	}
	r.off += k
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return ""
	}
	r.off += int(n)
	return string(r.b[r.off-int(n) : r.off])
}

// frac reads what appendFrac wrote.
func (r *reader) frac() float64 {
	if r.uvarint() == 0 {
		return 0
	}
	return r.float64()
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload")
	}
}
