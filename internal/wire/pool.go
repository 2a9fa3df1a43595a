package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// Transport defaults. A zero ClientConfig resolves to these.
const (
	// DefaultMaxIdlePerHost is the idle connections kept per target
	// address.
	DefaultMaxIdlePerHost = 4
	// DefaultIdleTimeout is how long an idle pooled connection stays
	// usable before it is reaped at the next checkout.
	DefaultIdleTimeout = 60 * time.Second
	// DefaultMaxRetries is the retry budget for idempotent probe RPCs.
	DefaultMaxRetries = 2
	// DefaultRetryBackoff is the initial backoff between retries
	// (doubled per attempt).
	DefaultRetryBackoff = time.Millisecond
)

// ClientConfig tunes the client's transport: connection pooling, request
// deadlines, and the retry policy. The zero value resolves to the
// defaults above with no request deadline — the paper configuration.
type ClientConfig struct {
	// MaxIdlePerHost bounds the idle connections pooled per target
	// address; <= 0 means DefaultMaxIdlePerHost.
	MaxIdlePerHost int
	// IdleTimeout reaps pooled connections idle longer than this at the
	// next checkout; <= 0 means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// RequestTimeout is the deadline applied to a request whose context
	// carries none. 0 leaves such requests unbounded.
	RequestTimeout time.Duration
	// MaxRetries is the retry budget for idempotent probe/read RPCs
	// (Explain, Stats, Cost, TableSchema, and a Query's initial
	// exchange). DDL/DML (Exec) is never retried. 0 means
	// DefaultMaxRetries; negative disables retries.
	MaxRetries int
	// RetryBackoff is the initial backoff before a retry, doubled per
	// attempt; <= 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// withDefaults resolves zero fields to the package defaults.
func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.MaxIdlePerHost <= 0 {
		cfg.MaxIdlePerHost = DefaultMaxIdlePerHost
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	switch {
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	return cfg
}

// TransportStats is a snapshot of a client's connection-level counters.
type TransportStats struct {
	// Dials counts fresh TCP connections established.
	Dials int64
	// Reuses counts requests served over a pooled connection.
	Reuses int64
	// Retries counts re-attempts after transport failures (idempotent
	// RPCs and stale pooled connections).
	Retries int64
	// Timeouts counts requests that hit their deadline.
	Timeouts int64
	// Evictions counts connections discarded as broken or expired.
	Evictions int64
	// Closes counts connections closed for any reason; with no leaks,
	// Dials == Closes once the client is closed.
	Closes int64
	// BytesSent and BytesReceived count request/response frame bytes
	// (headers included), whether or not a topology charges them.
	BytesSent, BytesReceived int64
}

func (s TransportStats) String() string {
	return fmt.Sprintf("dials=%d reuses=%d retries=%d timeouts=%d evictions=%d closes=%d sent=%dB recv=%dB",
		s.Dials, s.Reuses, s.Retries, s.Timeouts, s.Evictions, s.Closes, s.BytesSent, s.BytesReceived)
}

// Add returns the field-wise sum of two snapshots — System.Stats uses it
// to aggregate the middleware's clients into one transport view.
func (s TransportStats) Add(o TransportStats) TransportStats {
	return TransportStats{
		Dials:         s.Dials + o.Dials,
		Reuses:        s.Reuses + o.Reuses,
		Retries:       s.Retries + o.Retries,
		Timeouts:      s.Timeouts + o.Timeouts,
		Evictions:     s.Evictions + o.Evictions,
		Closes:        s.Closes + o.Closes,
		BytesSent:     s.BytesSent + o.BytesSent,
		BytesReceived: s.BytesReceived + o.BytesReceived,
	}
}

// addrStats is a client's transport counters for one target address: the
// same fields as TransportStats, attributed to one endpoint so a hot or
// flaky link stands out in the aggregate.
type addrStats struct {
	dials, reuses, retries, timeouts, evictions, closes atomic.Int64
	bytesSent, bytesRecv                                atomic.Int64
}

func (a *addrStats) snapshot() TransportStats {
	return TransportStats{
		Dials:         a.dials.Load(),
		Reuses:        a.reuses.Load(),
		Retries:       a.retries.Load(),
		Timeouts:      a.timeouts.Load(),
		Evictions:     a.evictions.Load(),
		Closes:        a.closes.Load(),
		BytesSent:     a.bytesSent.Load(),
		BytesReceived: a.bytesRecv.Load(),
	}
}

// forAddr returns the counter block for one target address, creating it
// on first use.
func (c *Client) forAddr(addr string) *addrStats {
	if v, ok := c.perAddr.Load(addr); ok {
		return v.(*addrStats)
	}
	v, _ := c.perAddr.LoadOrStore(addr, &addrStats{})
	return v.(*addrStats)
}

// TransportByAddr returns a per-target-address breakdown of the client's
// transport counters. The map is a fresh snapshot keyed by dial address.
func (c *Client) TransportByAddr() map[string]TransportStats {
	out := map[string]TransportStats{}
	c.perAddr.Range(func(k, v any) bool {
		out[k.(string)] = v.(*addrStats).snapshot()
		return true
	})
	return out
}

// noteRetry and noteTimeout bump the per-address counter and its
// process-wide metrics mirror together.
func (c *Client) noteRetry(addr string) {
	c.forAddr(addr).retries.Add(1)
	met.retries.Inc()
}

func (c *Client) noteTimeout(addr string) {
	c.forAddr(addr).timeouts.Add(1)
	met.timeouts.Inc()
}

// idleConn is one pooled connection with its park time.
type idleConn struct {
	conn  net.Conn
	since time.Time
}

// getConn checks a connection to addr out of the pool, dialing a fresh one
// when no usable idle connection exists. The second return value reports
// whether the connection is a reused one (and may therefore be stale).
func (c *Client) getConn(ctx context.Context, addr, toNode string) (net.Conn, bool, error) {
	now := time.Now()
	c.mu.Lock()
	for {
		list := c.idle[addr]
		n := len(list)
		if n == 0 {
			break
		}
		ic := list[n-1]
		c.idle[addr] = list[:n-1]
		if now.Sub(ic.since) > c.cfg.IdleTimeout {
			// Expired while parked: reap it and keep looking.
			a := c.forAddr(addr)
			a.evictions.Add(1)
			a.closes.Add(1)
			met.evictions.Inc()
			ic.conn.Close()
			continue
		}
		c.mu.Unlock()
		c.forAddr(addr).reuses.Add(1)
		met.reuses.Inc()
		return ic.conn, true, nil
	}
	c.mu.Unlock()
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c.forAddr(addr).dials.Add(1)
	met.dials.Inc()
	if c.Topo != nil {
		// Fresh connections pay the link's handshake round trip; reused
		// ones skip it (and frame traffic is charged identically either
		// way). An injected fault (crashed node, partition, flaky drop)
		// fails the handshake: the dial never completes at the simulated
		// layer even though the in-process listener accepted it.
		if err := c.Topo.Handshake(c.FromNode, toNode); err != nil {
			c.forAddr(addr).closes.Add(1)
			conn.Close()
			return nil, false, fmt.Errorf("wire: dial %s: %w", addr, err)
		}
	}
	return conn, false, nil
}

// putConn returns a healthy connection to the pool (closing it when the
// pool is full or closed). The request deadline is cleared so a
// parked connection cannot inherit it.
func (c *Client) putConn(addr string, conn net.Conn) {
	conn.SetDeadline(time.Time{})
	c.mu.Lock()
	if c.closed || len(c.idle[addr]) >= c.cfg.MaxIdlePerHost {
		c.mu.Unlock()
		c.forAddr(addr).closes.Add(1)
		conn.Close()
		return
	}
	c.idle[addr] = append(c.idle[addr], idleConn{conn: conn, since: time.Now()})
	c.mu.Unlock()
}

// discard closes a connection that is (or may be) broken; it never returns
// to the pool.
func (c *Client) discard(addr string, conn net.Conn) {
	a := c.forAddr(addr)
	a.evictions.Add(1)
	a.closes.Add(1)
	met.evictions.Inc()
	conn.Close()
}

// Close drains the pool, closing every idle connection. Connections
// checked out by in-flight requests are closed when those requests finish.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = map[string][]idleConn{}
	c.closed = true
	c.mu.Unlock()
	for addr, list := range idle {
		for _, ic := range list {
			c.forAddr(addr).closes.Add(1)
			ic.conn.Close()
		}
	}
	return nil
}

// Transport returns a snapshot of the client's transport counters: the
// sum of TransportByAddr.
func (c *Client) Transport() TransportStats {
	var s TransportStats
	c.perAddr.Range(func(_, v any) bool {
		s = s.Add(v.(*addrStats).snapshot())
		return true
	})
	return s
}

// applyDeadline arms the connection with the request's deadline: the
// context's if it has one, else the configured RequestTimeout, else none.
func (c *Client) applyDeadline(ctx context.Context, conn net.Conn) {
	deadline, ok := ctx.Deadline()
	if !ok && c.cfg.RequestTimeout > 0 {
		deadline, ok = time.Now().Add(c.cfg.RequestTimeout), true
	}
	if ok {
		conn.SetDeadline(deadline)
	} else {
		conn.SetDeadline(time.Time{})
	}
}

// backoff sleeps the exponential retry backoff for the given attempt
// (1-based), aborting early if the context is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := c.cfg.RetryBackoff << (attempt - 1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// isTimeout reports whether the transport error is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
