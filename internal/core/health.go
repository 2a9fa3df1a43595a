package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Node health tracking and circuit breaking. XDB owns no data, but it does
// own the failure handling for the engines it coordinates: every
// control-plane RPC outcome (probe, metadata fetch, DDL, drop) feeds a
// per-node breaker. A run of consecutive failures opens the breaker, after
// which RPCs to the node fail fast instead of burning timeouts; once a
// backoff window passes, the breaker goes half-open and lets probes
// through, and the first success closes it again. Closing a breaker also
// fires the recovery hook, which the System uses to sweep the node's
// orphaned short-lived relations (see orphans.go).
//
// The backoff window is exponential with jitter: each consecutive open
// doubles the base window (capped at DefaultBreakerBackoffMax) and the
// actual wait is drawn uniformly from [window/2, window], so concurrent
// queries don't retry a flapping node in lockstep.

// Breaker defaults; Options.BreakerThreshold and BreakerBackoff override
// the first two.
const (
	// DefaultBreakerThreshold is the consecutive-failure count that opens
	// a node's breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerBackoff is the base window an open breaker fails fast
	// before going half-open; consecutive opens double it.
	DefaultBreakerBackoff = 2 * time.Second
	// DefaultBreakerBackoffMax caps the exponential backoff window (or
	// the base window, when that is larger).
	DefaultBreakerBackoffMax = 30 * time.Second
)

// BreakerState is the circuit state of one node.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed: the node is healthy; RPCs flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the node exceeded the failure threshold; RPCs fail
	// fast until the backoff window passes.
	BreakerOpen
	// BreakerHalfOpen: the backoff passed; probe RPCs are allowed through
	// and the next outcome settles the state.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// NodeUnavailableError is returned when a node's breaker is open: the RPC
// was not attempted.
type NodeUnavailableError struct {
	Node string
	// Until is when the breaker next goes half-open.
	Until time.Time
}

func (e *NodeUnavailableError) Error() string {
	return fmt.Sprintf("core: node %q unavailable: circuit breaker open until %s", e.Node, e.Until.Format(time.RFC3339))
}

// NodeHealth is a point-in-time snapshot of one node's health.
type NodeHealth struct {
	Node  string
	State BreakerState
	// ConsecutiveFailures is the current failure run (0 when healthy).
	ConsecutiveFailures int
	// Failures and Successes count RPC outcomes over the tracker's life.
	Failures, Successes int64
	// LastError is the most recent failure's message.
	LastError string
	// OpenedAt is when the breaker last opened (zero if never).
	OpenedAt time.Time
}

type nodeHealthState struct {
	state       BreakerState
	consecFails int
	fails, oks  int64
	lastErr     string
	openedAt    time.Time
	// openCount counts consecutive opens without an intervening close; it
	// drives the exponential backoff and resets when the breaker closes.
	openCount int
	// retryAt is when the current open window ends (jittered exponential).
	retryAt time.Time
}

// healthTracker aggregates per-node breakers. Safe for concurrent use.
type healthTracker struct {
	threshold  int
	backoff    time.Duration
	backoffMax time.Duration
	// rng draws backoff jitter; guarded by mu.
	rng *rand.Rand
	// onRecover fires (outside the lock) when a node's breaker closes
	// after having been open or half-open.
	onRecover func(node string)
	// onTransition fires (outside the lock) on every breaker state
	// change, entering the given state. The System hooks it to drop the
	// node's consult-cache entries — costs consulted before an outage
	// say nothing about the node after it. Set before first use; not
	// synchronized.
	onTransition func(node string, entered BreakerState)

	mu    sync.Mutex
	nodes map[string]*nodeHealthState
}

func newHealthTracker(threshold int, backoff, backoffMax time.Duration, onRecover func(node string)) *healthTracker {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if backoff <= 0 {
		backoff = DefaultBreakerBackoff
	}
	if backoffMax < backoff {
		backoffMax = backoff
	}
	return &healthTracker{
		threshold:  threshold,
		backoff:    backoff,
		backoffMax: backoffMax,
		rng:        rand.New(rand.NewSource(time.Now().UnixNano())),
		onRecover:  onRecover,
		nodes:      map[string]*nodeHealthState{},
	}
}

func (h *healthTracker) state(node string) *nodeHealthState {
	st, ok := h.nodes[node]
	if !ok {
		st = &nodeHealthState{}
		h.nodes[node] = st
	}
	return st
}

// openLocked transitions the node's breaker to open and computes its
// jittered exponential retry window. Caller holds h.mu.
func (h *healthTracker) openLocked(st *nodeHealthState) {
	st.state = BreakerOpen
	st.openedAt = time.Now()
	st.openCount++
	d := h.backoff
	for i := 1; i < st.openCount && d < h.backoffMax; i++ {
		d *= 2
	}
	if d > h.backoffMax {
		d = h.backoffMax
	}
	// Jitter into [d/2, d] so concurrent queries don't probe in lockstep.
	d = d/2 + time.Duration(h.rng.Int63n(int64(d/2)+1))
	st.retryAt = st.openedAt.Add(d)
	met.breaker.With("open").Inc()
}

// record feeds one RPC outcome into the node's breaker. A caller
// cancellation is a non-signal: the RPC was abandoned by its client, not
// failed by the node, so it must neither trip the breaker nor close it.
// (Deadline expiry still counts — a timeout is how a dead or wedged node
// manifests.)
func (h *healthTracker) record(node string, err error) {
	if err != nil && errors.Is(err, context.Canceled) {
		return
	}
	var recovered, transitioned bool
	var entered BreakerState
	h.mu.Lock()
	st := h.state(node)
	if err == nil {
		st.oks++
		st.consecFails = 0
		if st.state != BreakerClosed {
			st.state = BreakerClosed
			st.openCount = 0
			met.breaker.With("closed").Inc()
			recovered = true
			transitioned, entered = true, BreakerClosed
		}
	} else {
		st.fails++
		st.consecFails++
		st.lastErr = err.Error()
		switch st.state {
		case BreakerHalfOpen:
			// The probe failed: re-open with a doubled backoff window.
			h.openLocked(st)
			transitioned, entered = true, BreakerOpen
		case BreakerClosed:
			if st.consecFails >= h.threshold {
				h.openLocked(st)
				transitioned, entered = true, BreakerOpen
			}
		}
	}
	h.mu.Unlock()
	if transitioned && h.onTransition != nil {
		h.onTransition(node, entered)
	}
	if recovered && h.onRecover != nil {
		h.onRecover(node)
	}
}

// allow reports whether an RPC to the node may proceed. An open breaker
// inside its backoff window returns NodeUnavailableError; once the window
// passes the breaker goes half-open and the caller becomes the probe.
func (h *healthTracker) allow(node string) error {
	h.mu.Lock()
	st := h.state(node)
	if st.state != BreakerOpen {
		h.mu.Unlock()
		return nil
	}
	if until := st.retryAt; time.Now().Before(until) {
		h.mu.Unlock()
		return &NodeUnavailableError{Node: node, Until: until}
	}
	st.state = BreakerHalfOpen
	met.breaker.With("half_open").Inc()
	h.mu.Unlock()
	if h.onTransition != nil {
		h.onTransition(node, BreakerHalfOpen)
	}
	return nil
}

// healthy reports whether the node should be considered as a placement
// candidate: true unless its breaker is open inside the backoff window.
func (h *healthTracker) healthy(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st, ok := h.nodes[node]
	if !ok || st.state != BreakerOpen {
		return true
	}
	return !time.Now().Before(st.retryAt)
}

// tripNode forces the node's breaker open regardless of its consecutive
// failure count. Failover uses it when a fault is attributed mid-query:
// one node-attributable execution fault is proof enough that the node must
// not be a placement candidate for the re-plan, and the transition
// hook's cache invalidation (consult + plan caches) must fire before the
// replan. Caller cancellation is a non-signal, as in record.
func (h *healthTracker) tripNode(node string, err error) {
	if err == nil || errors.Is(err, context.Canceled) {
		return
	}
	var transitioned bool
	h.mu.Lock()
	st := h.state(node)
	st.lastErr = err.Error()
	if st.consecFails < h.threshold {
		st.consecFails = h.threshold
	}
	// Already open inside its window: nothing to do (the fault was likely
	// fed by record already). Open but past the window, half-open, or
	// closed: (re-)open.
	if st.state != BreakerOpen || !time.Now().Before(st.retryAt) {
		h.openLocked(st)
		transitioned = true
	}
	h.mu.Unlock()
	if transitioned && h.onTransition != nil {
		h.onTransition(node, BreakerOpen)
	}
}

// snapshot returns the health of every node seen so far.
func (h *healthTracker) snapshot() map[string]NodeHealth {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]NodeHealth, len(h.nodes))
	for node, st := range h.nodes {
		out[node] = NodeHealth{
			Node:                node,
			State:               st.state,
			ConsecutiveFailures: st.consecFails,
			Failures:            st.fails,
			Successes:           st.oks,
			LastError:           st.lastErr,
			OpenedAt:            st.openedAt,
		}
	}
	return out
}
