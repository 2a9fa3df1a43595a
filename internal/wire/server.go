package wire

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"xdb/internal/engine"
	"xdb/internal/sqltypes"
)

// Server exposes one engine over the wire protocol. Each accepted
// connection is served on its own goroutine and handles a sequence of
// requests; result rows stream, a batch at a time, as the engine's
// iterators produce them, which is what turns chained foreign tables into
// an inter-DBMS pipeline.
type Server struct {
	eng *engine.Engine
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer starts serving the engine on a fresh loopback listener and
// returns the server. Use Addr for the dialable address.
func NewServer(eng *engine.Engine) (*Server, error) {
	return NewServerOn(eng, "127.0.0.1:0")
}

// NewServerOn serves the engine on a specific listen address — used to
// restart a server on the port a closed one released, so clients holding
// pooled connections to the old process exercise their eviction path.
func NewServerOn(eng *engine.Engine, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &Server{eng: eng, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Engine returns the served engine.
func (s *Server) Engine() *engine.Engine { return s.eng }

// Close stops the listener and closes active connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		typ, payload, _, err := readFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				log.Printf("wire[%s]: read: %v", s.eng.Name(), err)
			}
			return
		}
		switch typ {
		case msgQuery:
			if len(payload) < 1 {
				err = s.writeError(conn, fmt.Errorf("wire: empty query payload"))
			} else {
				err = s.handleQuery(conn, string(payload[1:]), payload[0] == 1)
			}
		case msgBatch:
			var resp []byte
			if resp, err = s.answerBatch(payload); err == nil {
				_, err = writeFrame(conn, msgBatchRes, resp)
			} else {
				err = s.writeError(conn, err)
			}
		default:
			// Every other request rides in a batch; the error frame
			// leaves the connection positioned at the next request.
			err = s.writeError(conn, fmt.Errorf("wire: request type %d must ride in a batch", typ))
		}
		if err != nil {
			return
		}
	}
}

// answer runs one batch item and returns its response: the request's own
// response type, or msgError with the engine's error.
func (s *Server) answer(typ byte, payload []byte) (byte, []byte) {
	var err error
	switch typ {
	case msgExec:
		if err = s.eng.Exec(string(payload)); err == nil {
			return msgOK, nil
		}
	case msgExplain:
		var info *engine.ExplainInfo
		if info, err = s.eng.Explain(string(payload)); err == nil {
			return msgExplainRes, encodeExplain(info)
		}
	case msgStats:
		var st *engine.TableStats
		if st, err = s.eng.Stats(string(payload)); err == nil {
			return msgStatsRes, encodeStats(st)
		}
	case msgTblSch:
		var schema *sqltypes.Schema
		if schema, err = s.eng.TableSchema(string(payload)); err == nil {
			return msgSchema, sqltypes.AppendSchema(nil, schema)
		}
	case msgCost:
		var kind engine.CostKind
		var l, r, o float64
		if kind, l, r, o, err = decodeCostProbe(payload); err == nil {
			return msgCostRes, appendFloat64(nil, s.eng.CostOperator(kind, l, r, o))
		}
	case msgJoin:
		var l, r, o float64
		if l, r, o, err = decodeJoinProbe(payload); err == nil {
			return msgJoinRes, encodeJoinPrices(s.eng.PriceJoin(l, r, o))
		}
	case msgSample:
		var table, alias, filter string
		var limit int64
		if table, alias, filter, limit, err = decodeSampleProbe(payload); err == nil {
			var res *engine.SampleResult
			if res, err = s.eng.Sample(table, alias, filter, limit); err == nil {
				return msgSampleRes, encodeSampleRes(res)
			}
		}
	default:
		err = fmt.Errorf("wire: request type %d cannot ride in a batch", typ)
	}
	return msgError, []byte(err.Error())
}

// answerBatch runs every item of a batch in order — all of them, whatever
// the items before returned, so an item's response says what happened to
// that item and nothing else — and returns the msgBatchRes payload. A
// result stream does not fit in a response item and a batch does not nest:
// those items, like any unknown type, are answered with an error frame.
func (s *Server) answerBatch(payload []byte) ([]byte, error) {
	items, err := decodeBatch(payload)
	if err != nil {
		return nil, err
	}
	for i, it := range items {
		items[i].typ, items[i].payload = s.answer(it.typ, it.payload)
	}
	resp := appendBatch(nil, items)
	if len(resp) > maxFrame {
		return nil, fmt.Errorf("wire: batch response of %d bytes exceeds the frame limit", len(resp))
	}
	return resp, nil
}

// handleQuery streams a SELECT's result. A non-nil return means the
// connection is unusable. forceText overrides the vendor's transfer
// encoding with the JDBC-style text encoding (how the presto baseline's
// connectors fetch).
func (s *Server) handleQuery(conn net.Conn, sql string, forceText bool) error {
	schema, it, err := s.eng.Query(sql)
	if err != nil {
		return s.writeError(conn, err)
	}
	defer it.Close()
	if _, err := writeFrame(conn, msgSchema, sqltypes.AppendSchema(nil, schema)); err != nil {
		return err
	}
	enc := s.eng.Profile().TransferEncoding
	if forceText {
		enc = engine.EncodingText
	}
	// Sending end of the stream's flow accounting: this server's node is
	// the producer; the consumer is unknown here (the client accounts it).
	fl := newStreamFlow(sql, s.eng.Name(), "", FlowSend)
	// A frame is cut at the row where its binary-encoded size reaches
	// batchTargetBytes or its row count sqltypes.BatchRows, whichever the
	// engine's batch boundaries are. Rows are encoded as they arrive, so
	// an engine batch need not outlive this loop's next call.
	var (
		frame      = newRowFrame(enc)
		batchBytes int
		total      uint64
	)
	flush := func() error {
		if frame.rows == 0 {
			return nil
		}
		rows := frame.rows
		n, err := writeFrame(conn, frame.typ, frame.finish())
		if err == nil {
			fl.batch(rows, n)
		}
		batchBytes = 0
		return err
	}
	for {
		b, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Mid-stream failure: best effort error frame after what was
			// already flushed.
			return s.writeError(conn, err)
		}
		for _, row := range b.Rows {
			frame.add(row)
			batchBytes += row.EncodedSize()
			total++
			if batchBytes >= batchTargetBytes || frame.rows >= sqltypes.BatchRows {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	n, err := writeFrame(conn, msgEnd, appendUint64(nil, total))
	if err == nil {
		fl.eos(total, n)
	}
	return err
}

func (s *Server) writeError(conn net.Conn, qerr error) error {
	_, err := writeFrame(conn, msgError, []byte(qerr.Error()))
	return err
}

func isConnReset(err error) bool {
	var ne *net.OpError
	return errors.As(err, &ne)
}
