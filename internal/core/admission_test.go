package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// mustAdmit admits immediately or fails the test.
func mustAdmit(t *testing.T, a *admitter) func() {
	t.Helper()
	release, queued, err := a.admit(context.Background())
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if queued {
		t.Fatal("admit queued, want immediate grant")
	}
	return release
}

// TestAdmitShedding drives the controller to its cap and checks every
// shed path produces the right typed error without taking a slot.
func TestAdmitShedding(t *testing.T) {
	cases := []struct {
		name     string
		maxQueue int // passed to newAdmitter (0 defaults to maxInFlight)
		fill     int // slots taken before the probe admit
		queued   int // waiters parked before the probe admit
		ctx      func() (context.Context, context.CancelFunc)

		wantReason  string
		wantDealine bool // errors.Is(err, context.DeadlineExceeded)
	}{
		{
			name:       "no queue: shed immediately at the cap",
			maxQueue:   -1,
			fill:       2,
			wantReason: "queue full",
		},
		{
			name:       "queue full: shed",
			maxQueue:   1,
			fill:       2,
			queued:     1,
			wantReason: "queue full",
		},
		{
			name:     "expired context: shed before queueing",
			maxQueue: 4,
			fill:     2,
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, func() {}
			},
			wantReason: "queue deadline",
		},
		{
			name:     "deadline expires while queued: shed with context error",
			maxQueue: 4,
			fill:     2,
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 10*time.Millisecond)
			},
			wantReason:  "queue deadline",
			wantDealine: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newAdmitter(2, tc.maxQueue)
			for i := 0; i < tc.fill; i++ {
				mustAdmit(t, a)
			}
			var wg sync.WaitGroup
			for i := 0; i < tc.queued; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					a.admit(context.Background())
				}()
			}
			// Let the background waiters reach the queue.
			waitFor(t, time.Second, func() bool { return a.snapshot().Queued == tc.queued })

			ctx := context.Background()
			if tc.ctx != nil {
				var cancel context.CancelFunc
				ctx, cancel = tc.ctx()
				defer cancel()
			}
			_, _, err := a.admit(ctx)
			var oe *OverloadError
			if !errors.As(err, &oe) {
				t.Fatalf("admit error = %v, want *OverloadError", err)
			}
			if oe.Reason != tc.wantReason {
				t.Errorf("Reason = %q, want %q", oe.Reason, tc.wantReason)
			}
			if oe.MaxInFlight != 2 {
				t.Errorf("MaxInFlight = %d, want 2", oe.MaxInFlight)
			}
			if tc.wantDealine && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("errors.Is(err, DeadlineExceeded) = false: %v", err)
			}
			// Shedding must not leak a slot: in-flight is still fill.
			if st := a.snapshot(); st.InFlight != tc.fill {
				t.Errorf("InFlight = %d after shed, want %d", st.InFlight, tc.fill)
			}
			// Unblock any parked waiters so the test exits cleanly.
			a.startDrain()
			wg.Wait()
		})
	}
}

// TestAdmitQueueFIFO parks two waiters behind a full controller and
// verifies releases grant them in arrival order, flagged as queued.
func TestAdmitQueueFIFO(t *testing.T) {
	a := newAdmitter(1, 2)
	release := mustAdmit(t, a)

	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, queued, err := a.admit(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			if !queued {
				t.Errorf("waiter %d admitted without queueing", i)
			}
			order <- i
			rel()
		}()
		// Serialize arrival so FIFO order is well-defined.
		waitFor(t, time.Second, func() bool { return a.snapshot().Queued == i })
	}

	release() // grants waiter 1, whose release grants waiter 2
	wg.Wait()
	if first, second := <-order, <-order; first != 1 || second != 2 {
		t.Errorf("grant order = %d,%d; want 1,2", first, second)
	}
	st := a.snapshot()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("controller not empty after completion: %+v", st)
	}
	if st.Admitted != 3 || st.Completed != 3 {
		t.Errorf("Admitted=%d Completed=%d, want 3/3", st.Admitted, st.Completed)
	}
	if st.PeakQueued != 2 {
		t.Errorf("PeakQueued = %d, want 2", st.PeakQueued)
	}
}

// TestAdmitUnlimited checks a cap of zero never queues or sheds but still
// counts in-flight queries, so Drain can wait for them.
func TestAdmitUnlimited(t *testing.T) {
	a := newAdmitter(0, 0)
	var releases []func()
	for i := 0; i < 8; i++ {
		releases = append(releases, mustAdmit(t, a))
	}
	if st := a.snapshot(); st.InFlight != 8 {
		t.Fatalf("InFlight = %d, want 8", st.InFlight)
	}
	idle := a.startDrain()
	select {
	case <-idle:
		t.Fatal("drain reported idle with 8 queries in flight")
	default:
	}
	for _, r := range releases {
		r()
	}
	select {
	case <-idle:
	case <-time.After(time.Second):
		t.Fatal("drain did not complete after all releases")
	}
}

// TestAdmitDrain covers the drain state machine: queued waiters are
// rejected, new arrivals refused, idle closes only at zero in flight, and
// startDrain is idempotent.
func TestAdmitDrain(t *testing.T) {
	a := newAdmitter(1, 4)
	release := mustAdmit(t, a)

	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := a.admit(context.Background())
		waiterErr <- err
	}()
	waitFor(t, time.Second, func() bool { return a.snapshot().Queued == 1 })

	idle := a.startDrain()
	var de *DrainingError
	select {
	case err := <-waiterErr:
		if !errors.As(err, &de) {
			t.Fatalf("queued waiter error = %v, want *DrainingError", err)
		}
	case <-time.After(time.Second):
		t.Fatal("queued waiter not rejected by drain")
	}
	if _, _, err := a.admit(context.Background()); !errors.As(err, &de) {
		t.Fatalf("post-drain admit error = %v, want *DrainingError", err)
	}
	select {
	case <-idle:
		t.Fatal("idle closed with a query still in flight")
	default:
	}
	release()
	select {
	case <-idle:
	case <-time.After(time.Second):
		t.Fatal("idle not closed after last release")
	}
	if again := a.startDrain(); again != idle {
		select {
		case <-again:
		default:
			t.Error("second startDrain returned a distinct, unclosed channel")
		}
	}
	st := a.snapshot()
	if !st.Draining || st.ShedDraining != 2 {
		t.Errorf("Draining=%v ShedDraining=%d, want true/2", st.Draining, st.ShedDraining)
	}
}

// TestSystemDrainDeadline checks System.Drain gives up at the context
// deadline while a query is still in flight, and reports it.
func TestSystemDrainDeadline(t *testing.T) {
	sys := NewSystem("xdb", "client", nil, Options{})
	release, _, err := sys.admit.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sys.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	release()
	// A second drain finds the system idle and succeeds.
	if err := sys.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain = %v, want nil", err)
	}
}

// TestWeightedSemFIFO checks FIFO granting with weights: a heavy waiter
// is not starved by lighter arrivals behind it.
func TestWeightedSemFIFO(t *testing.T) {
	s := &weightedSem{cap: 2}
	rel1, err := s.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := s.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // heavy waiter, first in line
		defer wg.Done()
		rel, err := s.acquire(context.Background(), 2)
		if err != nil {
			t.Errorf("heavy acquire: %v", err)
			return
		}
		order <- "heavy"
		rel()
	}()
	waitFor(t, time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.waiters) == 1
	})
	wg.Add(1)
	go func() { // light waiter, behind the heavy one
		defer wg.Done()
		rel, err := s.acquire(context.Background(), 1)
		if err != nil {
			t.Errorf("light acquire: %v", err)
			return
		}
		order <- "light"
		rel()
	}()
	waitFor(t, time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.waiters) == 2
	})

	// One free unit fits the light waiter but the heavy one is first: FIFO
	// must hold it back until both units are free.
	rel1()
	select {
	case who := <-order:
		t.Fatalf("waiter %q granted past the heavy head of the queue", who)
	case <-time.After(50 * time.Millisecond):
	}
	rel2()
	wg.Wait()
	if first, second := <-order, <-order; first != "heavy" || second != "light" {
		t.Errorf("grant order = %s,%s; want heavy,light", first, second)
	}
}

// TestWeightedSemCancel checks a waiter abandoned by its context leaves
// the queue without corrupting the budget.
func TestWeightedSemCancel(t *testing.T) {
	s := &weightedSem{cap: 1}
	rel, err := s.acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.acquire(ctx, 1)
		done <- err
	}()
	waitFor(t, time.Second, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.waiters) == 1
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire = %v, want context.Canceled", err)
	}
	rel()
	// Budget must be whole again: a full-weight acquire succeeds at once.
	rel2, err := s.acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	rel2()
}

// TestWeightedSemClamp checks oversized weights clamp to the capacity
// instead of deadlocking forever.
func TestWeightedSemClamp(t *testing.T) {
	s := &weightedSem{cap: 2}
	rel, err := s.acquire(context.Background(), 99)
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur != 2 {
		t.Errorf("cur = %d after clamped acquire, want 2", cur)
	}
}

// TestNodeLimiterDisabled checks cap <= 0 yields no-op releases and no
// blocking regardless of load.
func TestNodeLimiterDisabled(t *testing.T) {
	l := newNodeLimiter(0)
	for i := 0; i < 100; i++ {
		rel, err := l.acquire(context.Background(), "db1", 2)
		if err != nil {
			t.Fatal(err)
		}
		rel() // no-op, never blocks
	}
}

// TestFanOutBound: the one fan-out runs every item, all at once, and
// inline and in index order under serial.
func TestFanOutBound(t *testing.T) {
	const n = 12
	cases := []struct {
		name    string
		serial  bool
		wantMax int // exact when ordered, an upper bound otherwise
		ordered bool
	}{
		{name: "unbounded", wantMax: n},
		{name: "serial", serial: true, wantMax: 1, ordered: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var running, peak int
			var order []int
			err := fanOutFirstErr(context.Background(), n, tc.serial, func(_ context.Context, i int) error {
				mu.Lock()
				running++
				if running > peak {
					peak = running
				}
				order = append(order, i)
				mu.Unlock()
				time.Sleep(2 * time.Millisecond) // let the siblings pile up
				mu.Lock()
				running--
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(order) != n {
				t.Errorf("%d of %d items ran", len(order), n)
			}
			if peak > tc.wantMax {
				t.Errorf("%d items ran at once, bound is %d", peak, tc.wantMax)
			}
			if !tc.serial && peak < 2 {
				t.Errorf("peak concurrency %d: the fan-out did not fan out", peak)
			}
			for i, got := range order {
				if tc.ordered && got != i {
					t.Fatalf("start order %v, want index order", order)
				}
			}
		})
	}
}

// TestFanOutFirstErrorCancelsSiblings: the first failure is the error
// returned and cancels the items in flight.
func TestFanOutFirstErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	const n = 9
	err := fanOutFirstErr(context.Background(), n, false, func(ctx context.Context, i int) error {
		if i == 0 {
			return boom
		}
		<-ctx.Done() // a sibling in flight: only the cancellation ends it
		return ctx.Err()
	})
	if err != boom {
		t.Errorf("err = %v, want the first failure", err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
