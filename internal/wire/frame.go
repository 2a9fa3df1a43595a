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
	msgQuery   byte = 1 // payload: 1 flag byte (encoding) + SQL text; response: Schema, Rows*, End | Error
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
	msgRows       byte = 11 // payload: row count + binary rows
	msgRowsText   byte = 12 // payload: row count + text rows
	msgEnd        byte = 13 // payload: total row count (uint64)
	msgError      byte = 14 // payload: error text
	msgOK         byte = 15 // payload: empty
	msgExplainRes byte = 16 // payload: cost, rows float64 + text
	msgStatsRes   byte = 17 // payload: encoded TableStats
	msgCostRes    byte = 18 // payload: cost float64
	msgSampleRes  byte = 19 // payload: encoded sample result (counts + stats sketch)
	msgBatchRes   byte = 20 // payload: as msgBatch: each item's own response, in request order
	msgJoinRes    byte = 21 // payload: the join's five prices (5 float64, engine.JoinPrices order)
)

// maxFrame bounds a frame payload; large results are split into many row
// batches well below this.
const maxFrame = 16 << 20

// batchTargetBytes is the soft limit at which the server flushes a row
// batch frame.
const batchTargetBytes = 32 << 10

// writeFrame writes one frame: 4-byte little-endian payload length, a type
// byte, then the payload. It returns the total bytes put on the wire.
func writeFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	if len(payload) > maxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
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
	var hdr [5]byte
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

func appendString32(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
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

func (r *reader) string32() string {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return ""
	}
	n := int(binary.LittleEndian.Uint32(r.b[r.off:]))
	r.off += 4
	if r.off+n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated payload")
	}
}
