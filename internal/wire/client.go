package wire

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/sqltypes"
)

// Client issues wire-protocol requests on behalf of a node. Every frame
// sent or received is charged to the netsim topology: request bytes on the
// from->to edge, response bytes on the to->from edge, both shaped by the
// link between the two nodes; reused and fresh connections are charged
// identically, but only fresh dials pay the link's handshake round trip.
//
// Connections are pooled per target address (bounded, with idle reaping
// and broken-connection eviction), so a client amortizes its dials across
// the consult/delegate/cleanup rounds. Requests carry deadlines (from
// the context or the configured RequestTimeout), and a Batch of idempotent
// probes is retried with exponential backoff; a Batch holding DDL/DML never
// is. One Client is safe for concurrent use.
type Client struct {
	// FromNode is the node the caller runs on (a DBMS node for FDW
	// traffic, the middleware node for XDB/mediator control traffic).
	FromNode string
	// Topo provides link shaping and the transfer ledger; nil disables
	// both (unit tests).
	Topo *netsim.Topology

	cfg ClientConfig

	mu     sync.Mutex
	idle   map[string][]idleConn
	closed bool

	dials, reuses, retries, timeouts, evictions, closes atomic.Int64
	bytesSent, bytesRecv                                atomic.Int64

	// perAddr holds the per-target-address slice of the counters above
	// (addr -> *addrStats), so a hot or flaky link is attributable.
	perAddr sync.Map
}

// NewClient returns a client for the given source node with the default
// transport configuration.
func NewClient(fromNode string, topo *netsim.Topology) *Client {
	return NewClientWith(fromNode, topo, ClientConfig{})
}

// NewClientWith returns a client with an explicit transport configuration
// (pool bounds, deadlines, retry policy).
func NewClientWith(fromNode string, topo *netsim.Topology, cfg ClientConfig) *Client {
	return &Client{
		FromNode: fromNode,
		Topo:     topo,
		cfg:      cfg.withDefaults(),
		idle:     map[string][]idleConn{},
	}
}

// account charges one frame to the topology. A non-nil error is an
// injected fault severing the frame (the simulated equivalent of a reset
// connection): the caller must treat it as a transport failure and discard
// the connection.
func (c *Client) account(addr, to string, n int, inbound bool) error {
	if inbound {
		c.bytesRecv.Add(int64(n))
		c.forAddr(addr).bytesRecv.Add(int64(n))
		met.bytesRecv.Add(int64(n))
	} else {
		c.bytesSent.Add(int64(n))
		c.forAddr(addr).bytesSent.Add(int64(n))
		met.bytesSent.Add(int64(n))
	}
	if c.Topo == nil {
		return nil
	}
	if inbound {
		return c.Topo.Transfer(to, c.FromNode, n)
	}
	return c.Topo.Transfer(c.FromNode, to, n)
}

// deadlineErr attributes a deadline expiry to the target node.
func deadlineErr(toNode string, err error) error {
	return fmt.Errorf("wire: request to %s: deadline exceeded: %w", toNode, err)
}

// sendRequest checks a connection out of the pool, writes one request,
// and reads the first response frame, retrying per the policy: a reused
// connection that proves stale on write is redialed once for any RPC (the
// request never reached the server), and idempotent RPCs additionally
// retry transport failures with exponential backoff up to MaxRetries.
// Timeouts are never retried — the deadline has passed either way. On
// success the connection is still checked out; the caller must release it
// with putConn or discard.
func (c *Client) sendRequest(ctx context.Context, addr, toNode string, reqType byte, payload []byte, idempotent bool) (net.Conn, byte, []byte, error) {
	var lastErr error
	attempt := 0
	staleRedial := false
	for {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, 0, nil, lastErr
			}
			return nil, 0, nil, fmt.Errorf("wire: request to %s: %w", toNode, err)
		}
		conn, reused, err := c.getConn(ctx, addr, toNode)
		if err != nil {
			lastErr = err
			if !idempotent || attempt >= c.cfg.MaxRetries {
				return nil, 0, nil, lastErr
			}
			attempt++
			c.noteRetry(addr)
			if c.backoff(ctx, attempt) != nil {
				return nil, 0, nil, lastErr
			}
			continue
		}
		c.applyDeadline(ctx, conn)

		// Charge (and fate-sample) the request frame before it touches
		// the real socket: an injected fault means the frame never
		// reached the server, so the server must not observe it.
		err = c.account(addr, toNode, 5+len(payload), false)
		if err == nil {
			_, err = writeFrame(conn, reqType, payload)
		}
		if err != nil {
			c.discard(addr, conn)
			if isTimeout(err) {
				c.noteTimeout(addr)
				return nil, 0, nil, deadlineErr(toNode, err)
			}
			lastErr = fmt.Errorf("wire: send to %s: %w", toNode, err)
			// A reused connection failing on write was closed by the peer
			// while parked; the request was never delivered, so redial
			// once regardless of idempotence.
			if reused && !staleRedial {
				staleRedial = true
				c.noteRetry(addr)
				continue
			}
			if idempotent && attempt < c.cfg.MaxRetries {
				attempt++
				c.noteRetry(addr)
				if c.backoff(ctx, attempt) != nil {
					return nil, 0, nil, lastErr
				}
				continue
			}
			return nil, 0, nil, lastErr
		}

		typ, resp, n, err := readFrame(conn)
		if err == nil {
			// The response frame rides the return path; an injected
			// fault there loses it after the server already did the
			// work — the classic response-lost ambiguity.
			err = c.account(addr, toNode, n, true)
		}
		if err != nil {
			c.discard(addr, conn)
			if isTimeout(err) {
				c.noteTimeout(addr)
				return nil, 0, nil, deadlineErr(toNode, err)
			}
			lastErr = fmt.Errorf("wire: response from %s: %w", toNode, err)
			// Once the request was written, only idempotent requests
			// may retry: an Exec might already have run server-side.
			if idempotent {
				if reused && !staleRedial {
					staleRedial = true
					c.noteRetry(addr)
					continue
				}
				if attempt < c.cfg.MaxRetries {
					attempt++
					c.noteRetry(addr)
					if c.backoff(ctx, attempt) != nil {
						return nil, 0, nil, lastErr
					}
					continue
				}
			}
			return nil, 0, nil, lastErr
		}
		return conn, typ, resp, nil
	}
}

// Reply is the server's response to one item of a Batch. Each accessor
// decodes the response of the request it is named after and returns the
// remote's error when the server answered with an error frame instead.
type Reply struct {
	node    string
	typ     byte
	payload []byte
}

// expect checks the frame type against the one the request is answered by.
func (r Reply) expect(want byte, request string) error {
	if r.typ == msgError {
		return fmt.Errorf("remote %s: %s", r.node, r.payload)
	}
	if r.typ != want {
		return fmt.Errorf("wire: unexpected response type %d to %s", r.typ, request)
	}
	return nil
}

// Err is the outcome of an Exec.
func (r Reply) Err() error { return r.expect(msgOK, "Exec") }

// Explain decodes the response to an Explain.
func (r Reply) Explain() (*engine.ExplainInfo, error) {
	if err := r.expect(msgExplainRes, "Explain"); err != nil {
		return nil, err
	}
	return decodeExplain(r.payload)
}

// Stats decodes the response to a Stats.
func (r Reply) Stats() (*engine.TableStats, error) {
	if err := r.expect(msgStatsRes, "Stats"); err != nil {
		return nil, err
	}
	return decodeStats(r.payload)
}

// TableSchema decodes the response to a TableSchema.
func (r Reply) TableSchema() (*sqltypes.Schema, error) {
	if err := r.expect(msgSchema, "TableSchema"); err != nil {
		return nil, err
	}
	schema, _, err := sqltypes.DecodeSchema(r.payload)
	return schema, err
}

// Cost decodes the response to a Cost.
func (r Reply) Cost() (float64, error) {
	if err := r.expect(msgCostRes, "Cost"); err != nil {
		return 0, err
	}
	rd := &reader{b: r.payload}
	v := rd.float64()
	return v, rd.err
}

// JoinPrices decodes the response to a PriceJoin.
func (r Reply) JoinPrices() (engine.JoinPrices, error) {
	if err := r.expect(msgJoinRes, "PriceJoin"); err != nil {
		return engine.JoinPrices{}, err
	}
	return decodeJoinPrices(r.payload)
}

// Sample decodes the response to a Sample.
func (r Reply) Sample() (*engine.SampleResult, error) {
	if err := r.expect(msgSampleRes, "Sample"); err != nil {
		return nil, err
	}
	return decodeSampleRes(r.payload)
}

// Batch is an ordered list of non-streaming requests that travels as one
// frame and is answered by one: a round trip for the lot. It is the only
// shape a control-plane request takes — one item or many. The server runs
// every item in order, whatever the items before it returned, and Replies
// come back in the same order. A batch holding an Exec is never retried
// once delivered (its statements may have run); any other batch retries
// like the idempotent reads it is made of.
type Batch struct {
	items   []batchItem
	mutates bool
}

// Len returns the number of requests added so far.
func (b *Batch) Len() int { return len(b.items) }

func (b *Batch) add(typ byte, payload []byte) {
	b.items = append(b.items, batchItem{typ: typ, payload: payload})
}

// Exec adds a DDL/DML statement.
func (b *Batch) Exec(sql string) {
	b.add(msgExec, []byte(sql))
	b.mutates = true
}

// Explain adds an estimate request for a query.
func (b *Batch) Explain(sql string) { b.add(msgExplain, []byte(sql)) }

// Stats adds a statistics request for a relation.
func (b *Batch) Stats(table string) { b.add(msgStats, []byte(table)) }

// TableSchema adds a schema request for a relation.
func (b *Batch) TableSchema(table string) { b.add(msgTblSch, []byte(table)) }

// Cost adds an operator-cost probe.
func (b *Batch) Cost(kind engine.CostKind, left, right, out float64) {
	b.add(msgCost, encodeCostProbe(kind, left, right, out))
}

// PriceJoin adds a join-pricing probe: every price a placement decision
// over a join of these estimates can ask of the node, in one item.
func (b *Batch) PriceJoin(left, right, out float64) {
	b.add(msgJoin, encodeJoinProbe(left, right, out))
}

// Sample adds a bounded-sample probe.
func (b *Batch) Sample(table, alias, filter string, limit int64) {
	b.add(msgSample, encodeSampleProbe(table, alias, filter, limit))
}

// Do sends the batch and returns one Reply per request, in order. The
// error is the round trip's: then no item's outcome is known — any of an
// Exec batch's statements may or may not have run. A nil context means
// context.Background.
func (c *Client) Do(ctx context.Context, addr, toNode string, b *Batch) ([]Reply, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	conn, typ, resp, err := c.sendRequest(ctx, addr, toNode, msgBatch, appendBatch(nil, b.items), !b.mutates)
	if err != nil {
		return nil, err
	}
	// The connection is positioned at the next request even when the
	// server answered with an error frame, so it is pooled either way.
	c.putConn(addr, conn)
	if err := (Reply{node: toNode, typ: typ, payload: resp}).expect(msgBatchRes, "Batch"); err != nil {
		return nil, err
	}
	items, err := decodeBatch(resp)
	if err != nil {
		return nil, err
	}
	if len(items) != len(b.items) {
		return nil, fmt.Errorf("wire: %d responses to a batch of %d requests", len(items), len(b.items))
	}
	replies := make([]Reply, len(items))
	for i, it := range items {
		replies[i] = Reply{node: toNode, typ: it.typ, payload: it.payload}
	}
	return replies, nil
}

// Cost asks the remote engine to price an operator over hypothetical
// cardinalities, in the remote's own cost units: a batch of one Cost item.
// It exists for the benchmark's transport probe, which times a single
// control-plane round trip; the middleware batches its probes.
func (c *Client) Cost(ctx context.Context, addr, toNode string, kind engine.CostKind, left, right, out float64) (float64, error) {
	var b Batch
	b.Cost(kind, left, right, out)
	replies, err := c.Do(ctx, addr, toNode, &b)
	if err != nil {
		return 0, err
	}
	return replies[0].Cost()
}

// Query runs a SELECT remotely and returns the result schema plus a
// streaming iterator over the response frames, one batch per frame. The
// iterator releases its connection back to the pool when the stream
// completes cleanly (msgEnd or an in-protocol error frame) and closes it on
// any mid-stream transport or decode failure; Close is idempotent and safe
// to skip after a terminal Next error.
func (c *Client) Query(ctx context.Context, addr, toNode, sql string) (*sqltypes.Schema, engine.BatchIter, error) {
	return c.QueryEnc(ctx, addr, toNode, sql, false)
}

// QueryEnc is Query with an explicit result-encoding request: forceText
// asks the server for the JDBC-style text encoding regardless of its
// vendor protocol (used by the presto baseline's connectors).
func (c *Client) QueryEnc(ctx context.Context, addr, toNode, sql string, forceText bool) (*sqltypes.Schema, engine.BatchIter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	payload := make([]byte, 0, len(sql)+1)
	if forceText {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = append(payload, sql...)
	// The initial exchange (request out, schema frame back) consumes no
	// stream state, so it retries like an idempotent read. Once the
	// schema arrives the connection hosts the stream and retries stop.
	conn, typ, resp, err := c.sendRequest(ctx, addr, toNode, msgQuery, payload, true)
	if err != nil {
		return nil, nil, err
	}
	switch typ {
	case msgError:
		// In-protocol error: the connection is clean and reusable.
		c.putConn(addr, conn)
		return nil, nil, fmt.Errorf("remote %s: %s", toNode, resp)
	case msgSchema:
	default:
		c.discard(addr, conn)
		return nil, nil, fmt.Errorf("wire: unexpected response type %d to Query", typ)
	}
	schema, _, err := sqltypes.DecodeSchema(resp)
	if err != nil {
		c.discard(addr, conn)
		return nil, nil, err
	}
	// Attribute the stream to its delegation-plan edge (receiving end:
	// the remote node produces, this client's node consumes).
	fl := newStreamFlow(sql, toNode, c.FromNode, FlowRecv)
	return schema, &queryIter{c: c, ctx: ctx, conn: conn, addr: addr, toNode: toNode, fl: fl}, nil
}

// QueryAll runs a SELECT remotely and materializes the result.
func (c *Client) QueryAll(ctx context.Context, addr, toNode, sql string) (*engine.Result, error) {
	schema, it, err := c.Query(ctx, addr, toNode, sql)
	if err != nil {
		return nil, err
	}
	rows, err := engine.Drain(it)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Schema: schema, Rows: rows}, nil
}

// queryIter streams the response frames of one Query, each row frame
// decoded into the iterator's one batch. It owns
// its connection: a clean end of stream parks the connection back in the
// pool, any mid-stream failure evicts it. The originating request's
// context governs the stream: its deadline bounds every frame read (so a
// hung server fails the read instead of parking the caller forever) and
// its cancellation aborts the stream.
type queryIter struct {
	c      *Client
	ctx    context.Context
	conn   net.Conn
	addr   string
	toNode string
	fl     *streamFlow // per-edge flow accounting; nil when unattributed
	batch  sqltypes.Batch
	buf    []byte // frame payload buffer, reused: decoding copies what it keeps
	done   bool   // msgEnd received; the connection is clean
	closed bool   // connection already released or discarded
}

func (q *queryIter) Next() (*sqltypes.Batch, error) {
	for {
		if q.done {
			return nil, io.EOF
		}
		if q.closed {
			return nil, fmt.Errorf("wire: Next on closed result stream from %s", q.toNode)
		}
		if err := q.ctx.Err(); err != nil {
			// The stream is mid-flight; the connection carries undrained
			// frames and must be discarded.
			q.finish(false)
			return nil, fmt.Errorf("wire: result stream from %s: %w", q.toNode, err)
		}
		// Re-arm the deadline per frame: the context's absolute deadline
		// when it has one, else RequestTimeout as a per-frame liveness
		// bound.
		q.c.applyDeadline(q.ctx, q.conn)
		typ, payload, n, err := readFrameInto(q.conn, q.buf)
		if err == nil {
			q.buf = payload[:0]
			// An injected fault mid-stream severs the result flow; the
			// connection carries undrained frames and must be discarded.
			err = q.c.account(q.addr, q.toNode, n, true)
		}
		if err != nil {
			q.finish(false)
			if isTimeout(err) {
				q.c.noteTimeout(q.addr)
				return nil, deadlineErr(q.toNode, err)
			}
			return nil, fmt.Errorf("wire: result stream from %s: %w", q.toNode, err)
		}
		switch typ {
		case msgRows, msgRowsText:
			if err := decodeRowBatch(payload, typ, &q.batch); err != nil {
				q.finish(false)
				return nil, err
			}
			q.fl.batch(len(q.batch.Rows), n)
			if len(q.batch.Rows) > 0 {
				return &q.batch, nil
			}
		case msgEnd:
			r := &reader{b: payload}
			q.fl.eos(r.uint64(), n)
			q.done = true
		case msgError:
			// The server wrote the error frame and went back to waiting
			// for the next request, so the connection itself is clean.
			q.finish(true)
			return nil, fmt.Errorf("remote %s: %s", q.toNode, payload)
		default:
			q.finish(false)
			return nil, fmt.Errorf("wire: unexpected frame type %d in result stream", typ)
		}
	}
}

// finish releases the iterator's connection exactly once: back to the pool
// when the protocol is in a clean state, closed otherwise.
func (q *queryIter) finish(clean bool) {
	if q.closed {
		return
	}
	q.closed = true
	if clean {
		q.c.putConn(q.addr, q.conn)
	} else {
		q.c.discard(q.addr, q.conn)
	}
}

// Close releases the connection. Closing a fully-drained stream returns
// the connection to the pool; closing mid-stream aborts the remote stream
// by discarding the connection. Close is idempotent.
func (q *queryIter) Close() error {
	q.finish(q.done)
	return nil
}

// FDW adapts a Client to the engine's RemoteQuerier interface — it is the
// foreign data wrapper of the SQL/MED standard: the component through which
// one DBMS reads relations that live on another. Engine-initiated traffic
// carries no caller context; deadlines come from the client's configured
// RequestTimeout.
type FDW struct {
	Client *Client
}

// QueryRemote implements engine.RemoteQuerier.
func (f *FDW) QueryRemote(srv *engine.Server, sql string) (*sqltypes.Schema, engine.BatchIter, error) {
	return f.Client.Query(context.Background(), srv.Addr, srv.Node, sql)
}
