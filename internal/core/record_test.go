package core

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The per-query record's surfaces. Every surface — the slow-query log,
// /debug/queries (JSON and text), Result.Analyze — is read back into a
// Breakdown here and compared with the record the query returned, so a
// surface that drops, renames or misreports a field fails.

// slowLog collects the slow-query records slog.Default receives.
type slowLog struct {
	mu   sync.Mutex
	recs []map[string]slog.Value
}

func (l *slowLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *slowLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *slowLog) WithGroup(string) slog.Handler            { return l }

func (l *slowLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "xdb: slow query" {
		return nil
	}
	attrs := map[string]slog.Value{}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value
		return true
	})
	l.mu.Lock()
	l.recs = append(l.recs, attrs)
	l.mu.Unlock()
	return nil
}

// take returns the records collected since the last take.
func (l *slowLog) take() []map[string]slog.Value {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.recs
	l.recs = nil
	return out
}

// captureSlowLog routes slog.Default to a slowLog until the test ends.
func captureSlowLog(t *testing.T) *slowLog {
	t.Helper()
	l := &slowLog{}
	prev := slog.Default()
	slog.SetDefault(slog.New(l))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return l
}

// recordNames is each Breakdown field's json name, by field index. Every
// field must have one, and no two may share it.
func recordNames(t *testing.T) []string {
	t.Helper()
	typ := reflect.TypeOf(Breakdown{})
	names := make([]string, typ.NumField())
	seen := map[string]bool{}
	for i := range names {
		names[i], _, _ = strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if names[i] == "" || seen[names[i]] {
			t.Fatalf("Breakdown.%s: json name %q is empty or taken", typ.Field(i).Name, names[i])
		}
		seen[names[i]] = true
	}
	return names
}

// recordFromAttrs rebuilds a record from a slow-query record's attrs.
func recordFromAttrs(t *testing.T, attrs map[string]slog.Value) Breakdown {
	t.Helper()
	var bd Breakdown
	v := reflect.ValueOf(&bd).Elem()
	for i, name := range recordNames(t) {
		if a, ok := attrs[name]; ok {
			v.Field(i).Set(reflect.ValueOf(a.Any()).Convert(v.Field(i).Type()))
		}
	}
	return bd
}

// recordFromText rebuilds a record from name=value facts as the text
// surfaces render them.
func recordFromText(t *testing.T, facts []string) Breakdown {
	t.Helper()
	var bd Breakdown
	v := reflect.ValueOf(&bd).Elem()
	index := map[string]int{}
	for i, name := range recordNames(t) {
		index[name] = i
	}
	for _, fact := range facts {
		name, text, _ := strings.Cut(fact, "=")
		i, ok := index[name]
		if !ok {
			t.Errorf("fact %q names no Breakdown field", fact)
			continue
		}
		f := v.Field(i)
		var err error
		switch {
		case f.Type() == reflect.TypeOf(time.Duration(0)):
			var d time.Duration
			d, err = time.ParseDuration(text)
			f.SetInt(int64(d))
		case f.Kind() == reflect.Bool:
			var b bool
			b, err = strconv.ParseBool(text)
			f.SetBool(b)
		default:
			var n int
			n, err = strconv.Atoi(text)
			f.SetInt(int64(n))
		}
		if err != nil {
			t.Errorf("fact %q: %v", fact, err)
		}
	}
	return bd
}

// analyzeRecord reads the record back from Analyze's phases and verdicts
// lines.
func analyzeRecord(t *testing.T, out string) Breakdown {
	t.Helper()
	var facts []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "phases:"); ok {
			facts = append(facts, strings.Fields(rest)...)
		}
		if rest, ok := strings.CutPrefix(line, "verdicts:"); ok {
			facts = append(facts, strings.Fields(rest)...)
		}
	}
	return recordFromText(t, facts)
}

// inflightTextRecord reads the record back from FormatInflight's header
// line: "#id [phase] sql (elapsed d, name=value, ...)".
func inflightTextRecord(t *testing.T, text string) Breakdown {
	t.Helper()
	header, _, _ := strings.Cut(text, "\n")
	open, close := strings.Index(header, "(elapsed "), strings.LastIndex(header, ")")
	if open < 0 || close < open {
		t.Fatalf("FormatInflight header without facts: %q", header)
	}
	facts := strings.Split(header[open:close], ", ")
	return recordFromText(t, facts[1:])
}

// TestRecordSurfacesNameEveryField sets every field of a record and reads
// it back from each surface: a field added without a json name, or one a
// surface leaves out, fails here.
func TestRecordSurfacesNameEveryField(t *testing.T) {
	names := recordNames(t)
	var bd Breakdown
	v := reflect.ValueOf(&bd).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i+1) * 1000) // a duration field gets whole microseconds
		default:
			t.Fatalf("Breakdown.%s: no test value for kind %s", v.Type().Field(i).Name, f.Kind())
		}
	}

	log := captureSlowLog(t)
	s := &System{opts: Options{SlowQueryThreshold: time.Nanosecond}}
	s.logSlowQuery("SELECT 1", time.Second, &bd, nil, nil)
	recs := log.take()
	if len(recs) != 1 {
		t.Fatalf("slow-query records = %d, want 1", len(recs))
	}
	js, err := json.Marshal(InflightQuery{ID: 1, SQL: "SELECT 1", Breakdown: bd})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(js, &keys); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, ok := recs[0][name]; !ok {
			t.Errorf("slow-query attrs lack %q", name)
		}
		if _, ok := keys[name]; !ok {
			t.Errorf("/debug/queries JSON lacks %q: %s", name, js)
		}
	}

	var back InflightQuery
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	text := FormatInflight([]InflightQuery{{ID: 1, SQL: "SELECT 1", Breakdown: bd}})
	out := (&Result{Breakdown: bd}).Analyze()
	for surface, got := range map[string]Breakdown{
		"slow-query attrs":           recordFromAttrs(t, recs[0]),
		"/debug/queries JSON":        back.Breakdown,
		"FormatInflight":             inflightTextRecord(t, text),
		"Analyze":                    analyzeRecord(t, out),
		"Analyze of an empty Result": analyzeRecord(t, (&Result{}).Analyze()),
	} {
		want := bd
		if surface == "Analyze of an empty Result" {
			want = Breakdown{}
		}
		if got != want {
			t.Errorf("%s reads back\n%+v\nwant\n%+v", surface, got, want)
		}
	}
}

// seriesSnapshot reads the process-wide series that mirror a record field.
type seriesSnapshot struct {
	consults, degraded, cacheHits, planHits, failovers, waits int64
	waitSum                                                   float64
}

func readSeries() seriesSnapshot {
	return seriesSnapshot{
		consults: met.consults.Value(), degraded: met.degraded.Value(),
		cacheHits: met.cacheHits.Value(), planHits: met.planHits.Value(),
		failovers: met.failovers.Value(),
		waits:     met.admissionWait.Count(), waitSum: met.admissionWait.Sum(),
	}
}

// surfaceHarness runs a path's queries with every query logged as slow
// and its last pre-execution Inflight snapshot kept, and checks each
// surface against the query's record.
type surfaceHarness struct {
	t       *testing.T
	cl      *chaosCluster
	log     *slowLog
	records []Breakdown // every query's record, read from the slow log
	// hook, when set, runs at each pre-execution hook after the snapshot.
	hook func(attempt int)
	mid  *InflightQuery
}

func newSurfaceHarness(t *testing.T, cl *chaosCluster) *surfaceHarness {
	h := &surfaceHarness{t: t, cl: cl, log: captureSlowLog(t)}
	cl.sys.opts.SlowQueryThreshold = time.Nanosecond
	cl.sys.hookBeforeAttempt = func(attempt int) {
		snap := h.snapshot()
		h.mid = &snap
		if h.hook != nil {
			h.hook(attempt)
		}
	}
	t.Cleanup(func() { cl.sys.hookBeforeAttempt = nil })
	return h
}

// snapshot reads the one in-flight query through /debug/queries, JSON and
// text, and checks the two agree with System.Inflight.
func (h *surfaceHarness) snapshot() InflightQuery {
	t := h.t
	live := h.cl.sys.Inflight()
	if len(live) != 1 {
		t.Fatalf("Inflight() = %d queries, want 1", len(live))
	}
	rec := httptest.NewRecorder()
	h.cl.sys.handleDebugQueries(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	var served []InflightQuery
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil || len(served) != 1 {
		t.Fatalf("/debug/queries = %s (err %v)", rec.Body, err)
	}
	if served[0].Breakdown != live[0].Breakdown {
		t.Errorf("/debug/queries JSON record %+v, Inflight() %+v", served[0].Breakdown, live[0].Breakdown)
	}
	rec = httptest.NewRecorder()
	h.cl.sys.handleDebugQueries(rec, httptest.NewRequest("GET", "/debug/queries?format=text", nil))
	if got := inflightTextRecord(t, rec.Body.String()); got != live[0].Breakdown {
		t.Errorf("/debug/queries text record %+v, Inflight() %+v", got, live[0].Breakdown)
	}
	return live[0]
}

// query runs one query and checks its surfaces: exactly one slow-query
// record, whose attrs are the returned record, Analyze reads back the same,
// and the last pre-execution snapshot holds the record as it stood before
// execution. It returns the record (the slow log's on an error).
func (h *surfaceHarness) query(ctx context.Context, sql string) (*Result, Breakdown, error) {
	t := h.t
	t.Helper()
	h.mid = nil
	res, err := h.cl.sys.QueryContext(ctx, sql)
	recs := h.log.take()
	if len(recs) != 1 {
		t.Fatalf("slow-query records for one query = %d, want 1", len(recs))
	}
	logged := recordFromAttrs(t, recs[0])
	h.records = append(h.records, logged)
	if err != nil {
		return nil, logged, err
	}
	fin := res.Breakdown
	if logged != fin {
		t.Errorf("slow-query record\n%+v\nResult.Breakdown\n%+v", logged, fin)
	}
	if got := analyzeRecord(t, res.Analyze()); got != fin {
		t.Errorf("Analyze() record\n%+v\nResult.Breakdown\n%+v", got, fin)
	}
	if res.Trace != nil {
		t.Error("the slow-query log turned tracing on")
	}
	if h.mid == nil {
		t.Fatal("no pre-execution snapshot of an admitted query")
	}
	// Execution and settle write Exec, FailedOver and MediatorFallback
	// after the last pre-execution hook; every other field is final by
	// then.
	mid, want := h.mid.Breakdown, fin
	want.Exec = mid.Exec
	want.FailedOver, want.MediatorFallback = mid.FailedOver, mid.MediatorFallback
	if mid != want || mid.Exec > fin.Exec {
		t.Errorf("pre-execution snapshot\n%+v\nResult.Breakdown\n%+v", mid, fin)
	}
	if h.mid.Attempt != fin.Replans {
		t.Errorf("snapshot attempt %d, record replans %d", h.mid.Attempt, fin.Replans)
	}
	return res, fin, nil
}

// checkSeries compares the moved series' deltas since before with the
// sums of the records the harness logged.
func (h *surfaceHarness) checkSeries(before seriesSnapshot) {
	t := h.t
	t.Helper()
	var want seriesSnapshot
	for _, bd := range h.records {
		want.consults += int64(bd.ConsultRounds)
		want.degraded += int64(bd.DegradedProbes)
		want.cacheHits += int64(bd.CachedProbes)
		if bd.PlanCacheHit {
			want.planHits++
		}
		if bd.FailedOver {
			want.failovers++
		}
		want.waits++
		want.waitSum += bd.AdmissionWait.Seconds()
	}
	after := readSeries()
	got := seriesSnapshot{
		consults: after.consults - before.consults, degraded: after.degraded - before.degraded,
		cacheHits: after.cacheHits - before.cacheHits, planHits: after.planHits - before.planHits,
		failovers: after.failovers - before.failovers, waits: after.waits - before.waits,
		waitSum: after.waitSum - before.waitSum,
	}
	if math.Abs(got.waitSum-want.waitSum) < 1e-6 {
		got.waitSum = want.waitSum
	}
	if got != want {
		t.Errorf("series deltas %+v, record sums %+v", got, want)
	}
}

// shedQuery holds the only in-flight slot of a MaxInFlight 1, MaxQueue 1
// system and sends one query with a 200 ms deadline: it queues for its
// whole deadline and is shed.
func shedQuery(t *testing.T, cl *chaosCluster, query func(context.Context, string) error) {
	t.Helper()
	release, _, err := cl.sys.admit.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	var oe *OverloadError
	if err := query(ctx, chaosQuery); !errors.As(err, &oe) {
		t.Fatalf("query with the slot held = %v, want an OverloadError", err)
	}
}

func shedOptions() Options {
	opts := chaosOptions()
	opts.MaxInFlight, opts.MaxQueue = 1, 1
	return opts
}

// TestRecordConsistentAcrossSurfaces walks six paths of the lifecycle — a
// clean cold run (and its consult-cache repeat), a plan-cache hit, a fault
// replan, a sampling probe under skewed statistics, a mediator fallback
// and a queue shed — and on each checks every
// surface against the query's record, and the moved process-wide series
// against the records' sums.
func TestRecordConsistentAcrossSurfaces(t *testing.T) {
	bg := context.Background()
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Run("cold", func(t *testing.T) {
		opts := chaosOptions()
		opts.ConsultCacheTTL = time.Hour
		h := newSurfaceHarness(t, newChaosCluster(t, opts))
		before := readSeries()
		_, cold, err := h.query(bg, chaosQuery)
		must(t, err)
		_, warm, err := h.query(bg, chaosQuery)
		must(t, err)
		if cold.ConsultRounds == 0 || cold.DDLCount == 0 || warm.CachedProbes == 0 {
			t.Errorf("cold consult_rounds=%d ddl_count=%d, repeat cached_probes=%d: path not exercised",
				cold.ConsultRounds, cold.DDLCount, warm.CachedProbes)
		}
		h.checkSeries(before)
	})
	t.Run("plan-cache-hit", func(t *testing.T) {
		h := newSurfaceHarness(t, newChaosCluster(t, planCacheOptions()))
		before := readSeries()
		_, _, err := h.query(bg, chaosQuery)
		must(t, err)
		_, hit, err := h.query(bg, chaosQuery)
		must(t, err)
		if !hit.PlanCacheHit {
			t.Error("repeat missed the plan cache: path not exercised")
		}
		h.checkSeries(before)
	})
	t.Run("fault-replan", func(t *testing.T) {
		cl := newFailoverCluster(t, failoverOptions())
		h := newSurfaceHarness(t, cl)
		before := readSeries()
		_, _, err := h.query(bg, failoverQuery)
		must(t, err)
		h.hook = func(attempt int) {
			if attempt == 0 {
				cl.topo.CrashNode("db3")
			}
		}
		_, bd, err := h.query(bg, failoverQuery)
		must(t, err)
		if bd.Replans < 1 || !bd.FailedOver {
			t.Errorf("replans=%d failed_over=%v: path not exercised", bd.Replans, bd.FailedOver)
		}
		h.checkSeries(before)
	})
	t.Run("sampling", func(t *testing.T) {
		cl := newChaosCluster(t, sampleOptions(64))
		loadSavingsTables(t, cl)
		must(t, cl.engines["db2"].SkewStats("tickets", 0.1))
		h := newSurfaceHarness(t, cl)
		before := readSeries()
		_, bd, err := h.query(bg, savingsQuery)
		must(t, err)
		if bd.SampleProbes < 1 {
			t.Error("no sample probe: path not exercised")
		}
		h.checkSeries(before)
	})
	t.Run("mediator-fallback", func(t *testing.T) {
		opts := failoverOptions()
		opts.MaxReplans = 0
		opts.MediatorFallback = true
		cl := newFailoverCluster(t, opts)
		h := newSurfaceHarness(t, cl)
		before := readSeries()
		_, _, err := h.query(bg, failoverQuery)
		must(t, err)
		h.hook = func(attempt int) {
			if attempt == 0 {
				cl.topo.CrashNode("db3")
			}
		}
		_, bd, err := h.query(bg, failoverQuery)
		must(t, err)
		if !bd.MediatorFallback || !bd.FailedOver {
			t.Errorf("mediator_fallback=%v failed_over=%v: path not exercised", bd.MediatorFallback, bd.FailedOver)
		}
		h.checkSeries(before)
	})
	t.Run("queue-shed", func(t *testing.T) {
		h := newSurfaceHarness(t, newChaosCluster(t, shedOptions()))
		before := readSeries()
		shedQuery(t, h.cl, func(ctx context.Context, sql string) error {
			_, _, err := h.query(ctx, sql)
			return err
		})
		if bd := h.records[0]; !bd.Queued || bd.AdmissionWait < 150*time.Millisecond {
			t.Errorf("shed query's record: queued=%v admission_wait=%v", bd.Queued, bd.AdmissionWait)
		}
		h.checkSeries(before)
	})
}

// TestSlowQueryLog: a query under the threshold leaves no record; one at
// or over it leaves exactly one, whose attrs are Result.Breakdown, and the
// threshold alone builds no span tree.
func TestSlowQueryLog(t *testing.T) {
	log := captureSlowLog(t)
	opts := chaosOptions()
	opts.SlowQueryThreshold = time.Hour
	cl := newChaosCluster(t, opts)
	if _, err := cl.sys.Query(chaosQuery); err != nil {
		t.Fatal(err)
	}
	if recs := log.take(); len(recs) != 0 {
		t.Errorf("a query under the threshold logged %d slow-query records", len(recs))
	}

	cl.sys.opts.SlowQueryThreshold = time.Nanosecond
	res, err := cl.sys.Query(chaosQuery)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.take()
	if len(recs) != 1 {
		t.Fatalf("a query over the threshold logged %d slow-query records, want 1", len(recs))
	}
	if got := recordFromAttrs(t, recs[0]); got != res.Breakdown {
		t.Errorf("slow-query record\n%+v\nResult.Breakdown\n%+v", got, res.Breakdown)
	}
	if recs[0]["sql"].String() != chaosQuery || !strings.HasPrefix(recs[0]["plan"].String(), "tasks=") {
		t.Errorf("slow-query record sql=%q plan=%q", recs[0]["sql"], recs[0]["plan"])
	}
	if wall := recs[0]["wall"].Duration(); wall < res.Breakdown.Total() {
		t.Errorf("slow-query wall %v under the record's total %v", wall, res.Breakdown.Total())
	}
	if res.Trace != nil {
		t.Errorf("SlowQueryThreshold alone built a trace:\n%s", res.Trace)
	}
}

// TestSlowQueryLogShedQueueWait: a query shed after waiting its whole
// deadline in the admission queue logs that wait, not a zero.
func TestSlowQueryLogShedQueueWait(t *testing.T) {
	log := captureSlowLog(t)
	opts := shedOptions()
	opts.SlowQueryThreshold = time.Nanosecond
	cl := newChaosCluster(t, opts)
	shedQuery(t, cl, func(ctx context.Context, sql string) error {
		_, err := cl.sys.QueryContext(ctx, sql)
		return err
	})
	recs := log.take()
	if len(recs) != 1 {
		t.Fatalf("slow-query records = %d, want 1", len(recs))
	}
	bd := recordFromAttrs(t, recs[0])
	if !bd.Queued || bd.AdmissionWait < 150*time.Millisecond {
		t.Errorf("shed query logged queued=%v admission_wait=%v, want its ~200ms in the queue",
			bd.Queued, bd.AdmissionWait)
	}
	if _, ok := recs[0]["err"]; !ok {
		t.Error("shed query's record carries no err")
	}
}
