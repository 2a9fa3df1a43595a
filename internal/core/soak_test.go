package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"xdb/internal/wire"
)

// The concurrency soak: the chaos cluster (chaos_test.go) driven by many
// concurrent clients instead of injected faults. Every scenario runs
// under -race via `make soak` and asserts the overload invariants: each
// query either executes or is shed fast with a typed error, no goroutine
// outlives its query, no engine keeps xdb* objects once the dust settles,
// and every wire client closes as many connections as it dialed.

// soakOptions bound the soak cluster tight enough that 64 clients against
// MaxInFlight=4 resolve in seconds.
func soakOptions() Options {
	opts := chaosOptions()
	opts.QueryTimeout = 10 * time.Second
	opts.MaxInFlight = 4
	opts.MaxQueue = 8
	opts.MaxPerNode = 2
	// Tracing on: the soak runs double as the race check for concurrent
	// span construction (sibling DDL spans finish from the deploy
	// fan-out's goroutines).
	opts.Trace = true
	// Consult cache on: concurrent queries exercise the shared cache and
	// the parallel probe fan-out under -race.
	opts.ConsultCacheTTL = time.Minute
	return opts
}

// TestSoakBurst fires 64 concurrent queries at MaxInFlight=4/MaxQueue=8:
// every caller must either succeed (possibly after queueing) or be shed
// with an OverloadError before its deadline — never hang, never leak.
func TestSoakBurst(t *testing.T) {
	cl := newChaosCluster(t, soakOptions())
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err) // warm: calibration, stats cache, pool
	}
	warm := cl.sys.AdmissionStats()

	before := cl.busyGoroutines()

	const burst = 64
	var (
		mu               sync.Mutex
		ok, queued, shed int
	)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.sys.QueryContext(context.Background(), chaosQuery)
			mu.Lock()
			defer mu.Unlock()
			var oe *OverloadError
			switch {
			case err == nil:
				ok++
				if res.Breakdown.Queued {
					queued++
				}
			case errors.As(err, &oe):
				shed++
			default:
				t.Errorf("burst query failed with untyped error: %v", err)
			}
		}()
	}
	wg.Wait()
	t.Logf("burst: %d ok (%d queued first), %d shed", ok, queued, shed)
	if ok == 0 {
		t.Error("no query survived the burst")
	}
	if ok+shed != burst {
		t.Errorf("ok+shed = %d, want %d", ok+shed, burst)
	}

	st := cl.sys.AdmissionStats()
	if st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("controller not empty after burst: %+v", st)
	}
	if got := st.Admitted - warm.Admitted; got != int64(ok) {
		t.Errorf("Admitted grew by %d, want %d", got, ok)
	}
	if st.Admitted != st.Completed {
		t.Errorf("Admitted=%d != Completed=%d with nothing in flight", st.Admitted, st.Completed)
	}
	if got := st.ShedOverload + st.ShedQueueTimeout; got != int64(shed) {
		t.Errorf("shed counters sum to %d, want %d", got, shed)
	}
	if st.PeakInFlight > 4 {
		t.Errorf("PeakInFlight = %d, exceeds MaxInFlight=4", st.PeakInFlight)
	}
	if st.PeakQueued > 8 {
		t.Errorf("PeakQueued = %d, exceeds MaxQueue=8", st.PeakQueued)
	}

	// No goroutine may outlive its query. A pooled connection keeps one
	// server handler parked on it, and how many are pooled after a burst
	// depends on how the queries overlapped, so those are counted out
	// exactly; what is left gets a small tolerance for the runtime.
	waitForGoroutines(t, cl.busyGoroutines, before+2)

	// Drain: returns with nothing in flight, then refuses queries.
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.sys.Drain(dctx); err != nil {
		t.Fatalf("drain after burst: %v", err)
	}
	var de *DrainingError
	if _, err := cl.sys.QueryContext(context.Background(), chaosQuery); !errors.As(err, &de) {
		t.Errorf("post-drain query error = %v, want *DrainingError", err)
	}
	assertQuiescent(t, cl.sys, cl.engines)

	cl.close()
	cl.assertTransportBalanced(t)
}

// TestSoakCancelMidDeployment cancels query contexts at staggered points
// across the lifecycle — planning, delegation, execution — and verifies a
// cancelled query never parks an avoidable orphan: cleanup runs detached,
// and one sweep leaves every engine free of xdb* objects.
func TestSoakCancelMidDeployment(t *testing.T) {
	opts := chaosOptions()
	opts.MaxPerNode = 2
	cl := newChaosCluster(t, opts)
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	// Measure a healthy query to spread cancellation points across its
	// lifetime rather than guessing absolute delays.
	start := time.Now()
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}
	span := time.Since(start)

	var cancelled, completed int
	for i := 0; i < 16; i++ {
		delay := span * time.Duration(i) / 16
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		_, err := cl.sys.QueryContext(ctx, chaosQuery)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			completed++ // cancel landed after the query finished
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Errorf("iteration %d (delay %v): unexpected error: %v", i, delay, err)
		}
	}
	t.Logf("staggered cancels: %d cancelled, %d completed", cancelled, completed)
	if cancelled == 0 {
		t.Error("no cancellation landed mid-query; staggering too coarse")
	}

	// Deterministic edge: an already-cancelled context must fail fast
	// without deploying anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.sys.QueryContext(ctx, chaosQuery); err == nil {
		t.Error("query with pre-cancelled context succeeded")
	}

	// Cancelled queries clean up on a detached context; whatever drops
	// raced the shutdown are parked and one sweep collects them.
	if _, remaining, err := cl.sys.SweepOrphans(); err != nil || remaining != 0 {
		t.Errorf("sweep after cancels: remaining=%d err=%v", remaining, err)
	}
	assertQuiescent(t, cl.sys, cl.engines)

	cl.close()
	cl.assertTransportBalanced(t)
}

// TestSoakDrainUnderLoad starts a drain while a burst is still in flight:
// Drain must wait out the admitted queries, reject the queued ones, and
// leave the cluster clean.
func TestSoakDrainUnderLoad(t *testing.T) {
	cl := newChaosCluster(t, soakOptions())
	cl.sys.CacheStats = true
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}

	const burst = 24
	results := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.sys.QueryContext(context.Background(), chaosQuery)
			results <- err
		}()
	}
	// Let the burst occupy the controller before draining.
	waitFor(t, 5*time.Second, func() bool { return cl.sys.AdmissionStats().InFlight > 0 })

	dctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := cl.sys.Drain(dctx); err != nil {
		t.Fatalf("drain under load: %v", err)
	}
	if st := cl.sys.AdmissionStats(); st.InFlight != 0 || st.Queued != 0 {
		t.Errorf("drain returned with work outstanding: %+v", st)
	}
	wg.Wait()
	close(results)
	var ok, overload, draining int
	for err := range results {
		var oe *OverloadError
		var de *DrainingError
		switch {
		case err == nil:
			ok++
		case errors.As(err, &oe):
			overload++
		case errors.As(err, &de):
			draining++
		default:
			t.Errorf("burst query failed with untyped error: %v", err)
		}
	}
	t.Logf("drain under load: %d ok, %d overload, %d rejected by drain", ok, overload, draining)
	if ok == 0 {
		t.Error("drain cancelled every in-flight query; want admitted ones to finish")
	}
	assertQuiescent(t, cl.sys, cl.engines)

	cl.close()
	cl.assertTransportBalanced(t)
}

// busyGoroutines is the goroutine count less one per open pooled
// connection of the cluster's wire clients — the server handler parked on
// it — so what remains is work, not idle pool occupancy.
func (cl *chaosCluster) busyGoroutines() int {
	n := runtime.NumGoroutine()
	open := func(st wire.TransportStats) int { return int(st.Dials - st.Closes) }
	for _, c := range cl.clients {
		n -= open(c.Transport())
	}
	return n - open(cl.sys.clientWire.Transport())
}

// waitForGoroutines waits for count to settle at or below limit, failing
// with a full goroutine dump if it does not within a few seconds.
func waitForGoroutines(t *testing.T, count func() int, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := count()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d busy, want <= %d\n%s",
				n, limit, buf[:runtime.Stack(buf, true)])
		}
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
}
