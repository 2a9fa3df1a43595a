package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTree(t *testing.T) {
	root := NewSpan("query")
	root.Set("sql", "SELECT 1")
	prep := root.Child("prep")
	prep.Finish()
	ann := root.Child("annotate")
	p := ann.Child("probe")
	p.Set("node", "db1")
	p.AddRows(10)
	p.SetErr(errors.New("boom"))
	p.Finish()
	ann.Finish()
	root.Finish()

	if got := root.Count(""); got != 4 {
		t.Fatalf("span count = %d, want 4", got)
	}
	if root.Find("probe").Attr("node") != "db1" {
		t.Fatalf("probe node attr lost")
	}
	if root.Find("probe").Err() != "boom" {
		t.Fatalf("probe err lost")
	}
	if root.Duration() <= 0 {
		t.Fatalf("root duration not positive")
	}
	out := root.String()
	for _, want := range []string{"query", "prep", "probe", "err=boom", "rows=10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "OPEN") {
		t.Fatalf("finished tree renders OPEN spans:\n%s", out)
	}

	raw, err := root.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded SpanJSON
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("JSON export does not round-trip: %v", err)
	}
	if decoded.Name != "query" || len(decoded.Children) != 2 {
		t.Fatalf("unexpected JSON shape: %+v", decoded)
	}
}

func TestFinishAllClosesOpenSpans(t *testing.T) {
	root := NewSpan("query")
	a := root.Child("deploy")
	a.Child("ddl") // never finished — simulates a cancelled deployment
	root.FinishAll()
	root.Walk(func(_ int, sp *Span) {
		if sp.End().IsZero() {
			t.Fatalf("span %q left open after FinishAll", sp.Name())
		}
	})
}

// TestNilSpanSafe exercises every method on a nil receiver — the
// disabled-tracing path must be a pure no-op.
func TestNilSpanSafe(t *testing.T) {
	var s *Span
	if c := s.Child("x"); c != nil {
		t.Fatal("nil.Child must be nil")
	}
	s.Finish()
	s.FinishAll()
	s.Set("k", "v")
	s.SetErr(errors.New("x"))
	s.AddRows(1)
	s.Walk(func(int, *Span) { t.Fatal("nil.Walk must not visit") })
	if s.Name() != "" || s.Err() != "" || s.Attr("k") != "" || s.String() != "" {
		t.Fatal("nil accessors must return zero values")
	}
	if s.Duration() != 0 || s.Rows() != 0 || s.Count("") != 0 {
		t.Fatal("nil numerics must be zero")
	}
	if b, err := s.JSON(); err != nil || string(b) != "null" {
		t.Fatalf("nil.JSON = %s, %v", b, err)
	}
}

func TestContextPlumbing(t *testing.T) {
	// No span in context: Start must return the same context and nil.
	ctx := context.Background()
	ctx2, sp := Start(ctx, "prep")
	if sp != nil || ctx2 != ctx {
		t.Fatal("Start without a trace must be a no-op")
	}
	if SpanFrom(ctx) != nil {
		t.Fatal("SpanFrom on a bare context must be nil")
	}

	root := NewSpan("query")
	ctx = ContextWithSpan(ctx, root)
	ctx3, child := Start(ctx, "prep")
	if child == nil || SpanFrom(ctx3) != child {
		t.Fatal("Start must open and carry a child span")
	}
	if len(root.Children()) != 1 {
		t.Fatal("child not attached to root")
	}
	if ContextWithSpan(context.Background(), nil) != context.Background() {
		t.Fatal("ContextWithSpan(nil) must not allocate a context node")
	}
}

// TestSpanConcurrent hammers one parent from many goroutines; `make race`
// runs it under the race detector.
func TestSpanConcurrent(t *testing.T) {
	root := NewSpan("query")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.Child("ddl")
			sp.Set("node", "db1")
			sp.AddRows(1)
			sp.Finish()
		}()
	}
	wg.Wait()
	root.Finish()
	if got := root.Count("ddl"); got != 32 {
		t.Fatalf("ddl spans = %d, want 32", got)
	}
	_ = root.String()
}

func TestRegistryGatherAndPrometheus(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("xdb_test_total", "a counter")
	c.Add(3)
	if r.Counter("xdb_test_total", "a counter") != c {
		t.Fatal("re-registration must return the same counter")
	}
	v := r.CounterVec("xdb_test_outcomes_total", "by outcome", "outcome")
	v.With("ok").Add(2)
	v.With("error").Inc()
	g := r.Gauge("xdb_test_gauge", "a gauge")
	g.Set(7)
	r.GaugeFunc("xdb_test_fn", "a func gauge", func() int64 { return 42 })
	h := r.Histogram("xdb_test_seconds", "a histogram", nil)
	h.Observe(0.0002)
	h.Observe(0.3)
	h.Observe(99) // beyond the last bound: +Inf bucket only

	fams := r.Gather()
	if len(fams) != 5 {
		t.Fatalf("gathered %d families, want 5", len(fams))
	}

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE xdb_test_total counter",
		"xdb_test_total 3",
		`xdb_test_outcomes_total{outcome="error"} 1`,
		`xdb_test_outcomes_total{outcome="ok"} 2`,
		"xdb_test_gauge 7",
		"xdb_test_fn 42",
		"# TYPE xdb_test_seconds histogram",
		`xdb_test_seconds_bucket{le="0.0001"} 0`,
		`xdb_test_seconds_bucket{le="0.00025"} 1`,
		`xdb_test_seconds_bucket{le="+Inf"} 3`,
		"xdb_test_seconds_count 3",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
	if h.Count() != 3 || h.Sum() < 0.3 {
		t.Fatalf("histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("xdb_conc_total", "c").Inc()
				r.CounterVec("xdb_conc_vec_total", "v", "l").With("a").Inc()
				r.Histogram("xdb_conc_seconds", "h", nil).Observe(0.001)
				r.Gather()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("xdb_conc_total", "c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("xdb_conc_seconds", "h", nil).Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

func TestHistogramSumPrecision(t *testing.T) {
	h := NewRegistry().Histogram("x_seconds", "h", []float64{1})
	for i := 0; i < 1000; i++ {
		h.Observe(0.001)
	}
	if s := h.Sum(); s < 0.999 || s > 1.001 {
		t.Fatalf("sum = %v, want ~1.0", s)
	}
}

func TestSpanDurationWhileOpen(t *testing.T) {
	s := NewSpan("query")
	time.Sleep(time.Millisecond)
	if s.Duration() <= 0 {
		t.Fatal("open span must report elapsed time")
	}
}
