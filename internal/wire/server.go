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
				if werr := s.writeError(conn, fmt.Errorf("wire: empty query payload")); werr != nil {
					return
				}
				continue
			}
			forceText := payload[0] == 1
			if err := s.handleQuery(conn, string(payload[1:]), forceText); err != nil {
				return
			}
		case msgExec:
			if err := s.eng.Exec(string(payload)); err != nil {
				if werr := s.writeError(conn, err); werr != nil {
					return
				}
				continue
			}
			if _, err := writeFrame(conn, msgOK, nil); err != nil {
				return
			}
		case msgExplain:
			info, err := s.eng.Explain(string(payload))
			if err != nil {
				if werr := s.writeError(conn, err); werr != nil {
					return
				}
				continue
			}
			if _, err := writeFrame(conn, msgExplainRes, encodeExplain(info)); err != nil {
				return
			}
		case msgStats:
			st, err := s.eng.Stats(string(payload))
			if err != nil {
				if werr := s.writeError(conn, err); werr != nil {
					return
				}
				continue
			}
			if _, err := writeFrame(conn, msgStatsRes, encodeStats(st)); err != nil {
				return
			}
		case msgTblSch:
			schema, err := s.eng.TableSchema(string(payload))
			if err != nil {
				if werr := s.writeError(conn, err); werr != nil {
					return
				}
				continue
			}
			if _, err := writeFrame(conn, msgSchema, sqltypes.AppendSchema(nil, schema)); err != nil {
				return
			}
		case msgCost:
			kind, l, r, o, err := decodeCostProbe(payload)
			if err != nil {
				if werr := s.writeError(conn, err); werr != nil {
					return
				}
				continue
			}
			cost := s.eng.CostOperator(kind, l, r, o)
			if _, err := writeFrame(conn, msgCostRes, appendFloat64(nil, cost)); err != nil {
				return
			}
		case msgSample:
			table, alias, filter, limit, err := decodeSampleProbe(payload)
			if err == nil {
				var res *engine.SampleResult
				res, err = s.eng.Sample(table, alias, filter, limit)
				if err == nil {
					if _, werr := writeFrame(conn, msgSampleRes, encodeSampleRes(res)); werr != nil {
						return
					}
					continue
				}
			}
			if werr := s.writeError(conn, err); werr != nil {
				return
			}
		default:
			if werr := s.writeError(conn, fmt.Errorf("wire: unknown request type %d", typ)); werr != nil {
				return
			}
		}
	}
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
