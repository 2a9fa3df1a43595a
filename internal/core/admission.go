package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Admission control and graceful drain. The middleware is the choke point
// of the whole cross-database deployment: every query funnels through its
// planner and delegation engine, and each one fans out into consult
// probes, DDL round trips, and a root-DBMS read. Left unbounded, a burst
// of clients (or one hung read) piles up goroutines, floods the engines
// with concurrent DDL, and turns an overload into a collapse. This file
// bounds the damage:
//
//   - a global in-flight query cap (Options.MaxInFlight) with a bounded,
//     deadline-aware FIFO wait queue — excess queries wait only while
//     their context allows and are otherwise shed fast with a typed
//     OverloadError, so overload degrades the marginal query, not every
//     query;
//   - per-node weighted semaphores (Options.MaxPerNode) bounding the
//     concurrent control-plane work any single DBMS sees, so one query's
//     deploy fan-out cannot monopolize a node against its siblings;
//   - a drain mode (System.Drain): admission stops with a typed
//     DrainingError, queued waiters are rejected, and the caller waits
//     for in-flight queries to finish before shutdown sweeps orphans.
//
// The lifecycle of one query is admitted → executing → done; the system
// as a whole is serving → draining → drained. Both transitions are
// one-way per System (a drained system stays drained until discarded).

// DefaultDrainGrace bounds how long Close waits for in-flight queries
// before giving up on a graceful drain.
const DefaultDrainGrace = 5 * time.Second

// OverloadError is returned when admission sheds a query instead of
// running it: the in-flight cap is reached and the wait queue is full, or
// the caller's deadline expired (or would expire) while queued.
type OverloadError struct {
	// MaxInFlight is the configured cap the query ran into.
	MaxInFlight int
	// InFlight and Queued are the controller's occupancy when the query
	// was shed.
	InFlight, Queued int
	// Reason distinguishes the shed paths: "queue full" or
	// "queue deadline".
	Reason string
	// Err carries the underlying context error on the queue-deadline
	// path (context.DeadlineExceeded or context.Canceled).
	Err error
}

func (e *OverloadError) Error() string {
	msg := fmt.Sprintf("core: query shed (%s): %d in flight (cap %d), %d queued",
		e.Reason, e.InFlight, e.MaxInFlight, e.Queued)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the context error, so errors.Is(err,
// context.DeadlineExceeded) holds for queue-deadline sheds.
func (e *OverloadError) Unwrap() error { return e.Err }

// DrainingError is returned when a query is refused because the system is
// draining (or drained): admission has stopped for good.
type DrainingError struct{}

func (e *DrainingError) Error() string {
	return "core: system draining: query not admitted"
}

// AdmissionStats is a point-in-time snapshot of the admission controller.
type AdmissionStats struct {
	// InFlight and Queued are current occupancy.
	InFlight, Queued int
	// Draining reports whether Drain has been called.
	Draining bool
	// Admitted counts queries that entered execution (including those
	// that waited in the queue first); Completed counts the ones that
	// finished (successfully or not).
	Admitted, Completed int64
	// ShedOverload counts queries rejected because the queue was full,
	// ShedQueueTimeout the ones whose deadline expired while queued, and
	// ShedDraining the ones refused during drain (including queued
	// waiters rejected when the drain started).
	ShedOverload, ShedQueueTimeout, ShedDraining int64
	// PeakInFlight and PeakQueued are high-water marks over the
	// controller's life.
	PeakInFlight, PeakQueued int
}

// admitWaiter is one query parked in the admission queue.
type admitWaiter struct {
	// ch is closed exactly once, when the waiter is settled.
	ch chan struct{}
	// granted and err are written before ch closes and read only after.
	granted bool
	err     error
}

// admitter is the global admission controller. Safe for concurrent use.
type admitter struct {
	// max is the in-flight cap (<= 0: unlimited, queries are only
	// counted, never queued or shed). maxQueue bounds the wait queue
	// (< 0: no queue, shed immediately at the cap).
	max, maxQueue int

	mu       sync.Mutex
	inFlight int
	queue    []*admitWaiter
	draining bool
	// idle is closed once the controller is draining with nothing in
	// flight — the drain-complete signal.
	idle     chan struct{}
	idleOnce sync.Once

	admitted, completed                          int64
	shedOverload, shedQueueTimeout, shedDraining int64
	peakInFlight, peakQueued                     int
}

func newAdmitter(maxInFlight, maxQueue int) *admitter {
	if maxQueue == 0 {
		// Default queue depth: as many waiters as running queries — one
		// full "generation" may wait.
		maxQueue = maxInFlight
	}
	return &admitter{max: maxInFlight, maxQueue: maxQueue, idle: make(chan struct{})}
}

// admit blocks until the query may run, the context is done, or the
// controller sheds it. On success the returned release must be called
// exactly once when the query finishes; queued reports whether the query
// waited in the queue before being admitted.
func (a *admitter) admit(ctx context.Context) (release func(), queued bool, err error) {
	a.mu.Lock()
	if a.draining {
		a.shedDraining++
		a.mu.Unlock()
		return nil, false, &DrainingError{}
	}
	if a.max <= 0 || a.inFlight < a.max {
		a.grantLocked()
		a.mu.Unlock()
		return a.release, false, nil
	}
	if len(a.queue) >= a.maxQueue || a.maxQueue < 0 {
		a.shedOverload++
		err := &OverloadError{
			MaxInFlight: a.max, InFlight: a.inFlight, Queued: len(a.queue),
			Reason: "queue full",
		}
		a.mu.Unlock()
		return nil, false, err
	}
	// Deadline-aware queueing: a caller whose context is already done
	// would only be shed at wakeup; shed it now without taking a slot.
	if cerr := ctx.Err(); cerr != nil {
		a.shedQueueTimeout++
		err := &OverloadError{
			MaxInFlight: a.max, InFlight: a.inFlight, Queued: len(a.queue),
			Reason: "queue deadline", Err: cerr,
		}
		a.mu.Unlock()
		return nil, false, err
	}
	w := &admitWaiter{ch: make(chan struct{})}
	a.queue = append(a.queue, w)
	if len(a.queue) > a.peakQueued {
		a.peakQueued = len(a.queue)
	}
	a.mu.Unlock()

	select {
	case <-w.ch:
		if w.err != nil {
			return nil, true, w.err
		}
		return a.release, true, nil
	case <-ctx.Done():
		a.mu.Lock()
		select {
		case <-w.ch:
			// Settled concurrently with the context expiring. A grant is
			// useless to a dead caller: hand the slot to the next waiter
			// and shed this query anyway.
			if w.err != nil {
				a.mu.Unlock()
				return nil, true, w.err
			}
			a.releaseLocked()
		default:
			for i, q := range a.queue {
				if q == w {
					a.queue = append(a.queue[:i], a.queue[i+1:]...)
					break
				}
			}
		}
		a.shedQueueTimeout++
		err := &OverloadError{
			MaxInFlight: a.max, InFlight: a.inFlight, Queued: len(a.queue),
			Reason: "queue deadline", Err: ctx.Err(),
		}
		a.mu.Unlock()
		return nil, true, err
	}
}

// grantLocked admits the calling (or a queued) query. Callers hold a.mu.
func (a *admitter) grantLocked() {
	a.inFlight++
	a.admitted++
	if a.inFlight > a.peakInFlight {
		a.peakInFlight = a.inFlight
	}
}

// release returns one in-flight slot, waking the next queued waiter or —
// when draining — signalling drain completion at zero in flight.
func (a *admitter) release() {
	a.mu.Lock()
	a.releaseLocked()
	a.mu.Unlock()
}

func (a *admitter) releaseLocked() {
	a.inFlight--
	a.completed++
	if !a.draining && len(a.queue) > 0 && (a.max <= 0 || a.inFlight < a.max) {
		w := a.queue[0]
		a.queue = a.queue[1:]
		w.granted = true
		a.grantLocked()
		close(w.ch)
	}
	if a.draining && a.inFlight == 0 {
		a.idleOnce.Do(func() { close(a.idle) })
	}
}

// startDrain flips the controller into drain mode: new admissions are
// refused and every queued waiter is rejected with DrainingError. It
// returns a channel that closes once nothing is in flight. Idempotent.
func (a *admitter) startDrain() <-chan struct{} {
	a.mu.Lock()
	if !a.draining {
		a.draining = true
		for _, w := range a.queue {
			w.err = &DrainingError{}
			a.shedDraining++
			close(w.ch)
		}
		a.queue = nil
		if a.inFlight == 0 {
			a.idleOnce.Do(func() { close(a.idle) })
		}
	}
	idle := a.idle
	a.mu.Unlock()
	return idle
}

// snapshot returns the controller's counters.
func (a *admitter) snapshot() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		InFlight:         a.inFlight,
		Queued:           len(a.queue),
		Draining:         a.draining,
		Admitted:         a.admitted,
		Completed:        a.completed,
		ShedOverload:     a.shedOverload,
		ShedQueueTimeout: a.shedQueueTimeout,
		ShedDraining:     a.shedDraining,
		PeakInFlight:     a.peakInFlight,
		PeakQueued:       a.peakQueued,
	}
}

// semWaiter is one blocked weighted-semaphore acquisition.
type semWaiter struct {
	need    int
	ch      chan struct{}
	granted bool
}

// weightedSem is a FIFO weighted semaphore: heavier work (a materializing
// foreign-table deploy) takes more of a node's budget than a light view
// or server registration. FIFO granting keeps a heavy waiter from being
// starved by a stream of light ones.
type weightedSem struct {
	cap int

	mu      sync.Mutex
	cur     int
	waiters []*semWaiter
}

// acquire takes weight w (clamped to [1, cap]) or fails when ctx is done
// first. The returned release must be called exactly once.
func (s *weightedSem) acquire(ctx context.Context, w int) (func(), error) {
	if w < 1 {
		w = 1
	}
	if w > s.cap {
		w = s.cap
	}
	s.mu.Lock()
	if len(s.waiters) == 0 && s.cur+w <= s.cap {
		s.cur += w
		s.mu.Unlock()
		return func() { s.releaseWeight(w) }, nil
	}
	if err := ctx.Err(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	wt := &semWaiter{need: w, ch: make(chan struct{})}
	s.waiters = append(s.waiters, wt)
	s.mu.Unlock()

	select {
	case <-wt.ch:
		return func() { s.releaseWeight(w) }, nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-wt.ch:
			// Granted concurrently: give the weight back (which may wake
			// the next waiter) and still fail the dead caller.
			s.cur -= w
			s.wakeLocked()
		default:
			for i, q := range s.waiters {
				if q == wt {
					s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
					break
				}
			}
		}
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

func (s *weightedSem) releaseWeight(w int) {
	s.mu.Lock()
	s.cur -= w
	s.wakeLocked()
	s.mu.Unlock()
}

// wakeLocked grants queued waiters in FIFO order while they fit. It stops
// at the first that does not, preserving arrival order.
func (s *weightedSem) wakeLocked() {
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if s.cur+w.need > s.cap {
			return
		}
		s.waiters = s.waiters[1:]
		s.cur += w.need
		w.granted = true
		close(w.ch)
	}
}

// nodeLimiter holds one weighted semaphore per DBMS node, bounding the
// concurrent control-plane RPCs (probes and deploy DDL) any single node
// serves across all in-flight queries. cap <= 0 disables the limiter.
type nodeLimiter struct {
	cap  int
	mu   sync.Mutex
	sems map[string]*weightedSem
}

func newNodeLimiter(perNode int) *nodeLimiter {
	return &nodeLimiter{cap: perNode, sems: map[string]*weightedSem{}}
}

// acquire takes weight w of the node's budget, waiting only while ctx
// allows. The no-op release of a disabled limiter keeps call sites
// uniform.
func (l *nodeLimiter) acquire(ctx context.Context, node string, w int) (func(), error) {
	if l.cap <= 0 {
		return func() {}, nil
	}
	l.mu.Lock()
	sem, ok := l.sems[node]
	if !ok {
		sem = &weightedSem{cap: l.cap}
		l.sems[node] = sem
	}
	l.mu.Unlock()
	return sem.acquire(ctx, w)
}

// fanOutFirstErr runs fn(ctx, i) for every i in [0, n), all at once, and
// waits for them — the one fan-out of the package. The first error cancels
// the shared context so siblings stop early, and is the error returned.
// Sibling failures induced by that cancellation surface as
// context.Canceled, which the health tracker already treats as a
// non-signal. With fewer than two items, or serial set (Options.serial),
// the calls run inline in index order and stop at the first error.
func fanOutFirstErr(ctx context.Context, n int, serial bool, fn func(ctx context.Context, i int) error) error {
	if serial || n < 2 {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(fctx, i); err != nil {
				once.Do(func() {
					firstErr = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Drain stops admitting queries (new ones fail with DrainingError and
// queued waiters are rejected), waits for the in-flight ones up to the
// context's deadline, and then sweeps orphaned short-lived relations
// once. It returns the context's error when in-flight queries outlive the
// deadline — the sweep still runs, collecting what the finished queries
// left behind. Drain is idempotent and one-way: a drained System never
// admits again.
func (s *System) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	idle := s.admit.startDrain()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = fmt.Errorf("core: drain: %d queries still in flight: %w",
			s.admit.snapshot().InFlight, ctx.Err())
	}
	s.sweepOrphans("")
	return err
}

// AdmissionStats returns a snapshot of the admission controller: current
// occupancy, shed counters, and high-water marks.
func (s *System) AdmissionStats() AdmissionStats { return s.admit.snapshot() }
