package core

import (
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"time"
)

// The per-query record. A query's Breakdown is the one place its
// lifecycle writes down what happened to it, and every per-query surface
// reads it back through facts: the slow-query log's attrs, the
// /debug/queries JSON (InflightQuery embeds the record), FormatInflight's
// header, and Summary's phases and verdicts lines, which Result.Analyze
// and the xdb command print. The process-wide series that mirror one of
// its fields are fed from the finished record (publish). A field's json
// tag is its name on every surface, so a new field needs no renderer of
// its own.

// Breakdown is the record of one query: the per-phase timing of Fig. 15 —
// preparation (parse + metadata gathering), logical optimization,
// annotation and finalization, delegation (DDL deployment), and execution
// — plus what the lifecycle spent and decided on the way.
type Breakdown struct {
	// AdmissionWait is how long the query waited for admission before
	// planning began (zero when it was admitted immediately); Queued
	// reports whether it waited in the admission queue at all. A shed
	// query's record holds its wait too.
	AdmissionWait time.Duration `json:"admission_wait,omitempty"`
	Prep          time.Duration `json:"prep,omitempty"`
	Lopt          time.Duration `json:"lopt,omitempty"`
	Ann           time.Duration `json:"annotate,omitempty"`
	Deleg         time.Duration `json:"delegate,omitempty"`
	Exec          time.Duration `json:"execute,omitempty"`
	Queued        bool          `json:"queued,omitempty"`
	// PlanCacheHit reports whether the query was served from the
	// delegation-plan cache: planning, consultation, and deployment were
	// all skipped, and the query went straight to execution.
	PlanCacheHit bool `json:"plan_cache_hit,omitempty"`
	// ConsultRounds counts the annotation phase's consultation probes
	// sent to the underlying DBMSes: one per (join, node) pair some
	// Rule-4 decision could price. All of a node's probes travel in one
	// round trip.
	ConsultRounds int `json:"consult_rounds,omitempty"`
	// CachedProbes counts the annotation probes answered without a round
	// trip, by the cross-query consult cache (Options.ConsultCacheTTL). A
	// warm repeat of a query shows ConsultRounds=0 and CachedProbes>0.
	CachedProbes int `json:"cached_probes,omitempty"`
	// DegradedProbes counts the annotation decisions that could not
	// consult a DBMS — an open breaker excluded a placement candidate or
	// a cost probe failed — and fell back to the local cost model. Zero
	// on a healthy run.
	DegradedProbes int `json:"degraded_probes,omitempty"`
	// SampleProbes counts the bounded-sample refinement probes the
	// optimizer decided to issue (Options.SampleLimit), across attempts;
	// the xdb_sample_probes_total metric splits them by outcome. Zero
	// with sampling disabled.
	SampleProbes int `json:"sample_probes,omitempty"`
	// DDLCount is the number of DDL statements the delegation deployed.
	// Zero on a plan-cache hit — the warm deployment is reused as-is.
	DDLCount int `json:"ddl_count,omitempty"`
	// Replans counts the mid-query failover attempts this query spent: a
	// node died during delegation or execution, and the unexecuted suffix
	// was re-planned around it (Options.MaxReplans). Zero on a fault-free
	// run. The phase timings above accumulate across attempts.
	Replans int `json:"replans,omitempty"`
	// FailedOver reports that the query hit a node-attributable fault and
	// still returned a correct result — via a suffix replan or the
	// mediator fallback.
	FailedOver bool `json:"failed_over,omitempty"`
	// MediatorFallback reports that the query finished on the
	// middleware's embedded engine (Options.MediatorFallback) because no
	// in-situ placement survived the fault.
	MediatorFallback bool `json:"mediator_fallback,omitempty"`
	// Reopts is always zero: the lifecycle never re-optimizes a running
	// query (estimates are corrected before a plan is made, learn.go). The
	// benchmark harness in bench/ still reads it.
	Reopts int `json:"reopts,omitempty"`
}

// Total returns the end-to-end time, admission wait included — a queued
// query's Total matches its wall time, not just the time it spent being
// planned and executed. Use Work for the processing share alone.
func (b Breakdown) Total() time.Duration {
	return b.AdmissionWait + b.Work()
}

// Work returns the time the middleware actively spent on the query
// (planning, delegation, execution), excluding the admission wait — the
// Fig. 15 phase sum.
func (b Breakdown) Work() time.Duration {
	return b.Prep + b.Lopt + b.Ann + b.Deleg + b.Exec
}

// facts calls fn with the json name and the value of each non-zero
// field of the record, in declaration order. Text surfaces render a fact
// as name=value.
func (b Breakdown) facts(fn func(name string, value any)) {
	v := reflect.ValueOf(b)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			fn(name, f.Interface())
		}
	}
}

// Summary renders the record's facts as two lines: "phases:" with its
// timings, then "verdicts:" with its counts and flags, each fact
// name=value.
func (b Breakdown) Summary() string {
	var phases, verdicts strings.Builder
	b.facts(func(name string, value any) {
		line := &verdicts
		if _, ok := value.(time.Duration); ok {
			line = &phases
		}
		fmt.Fprintf(line, " %s=%v", name, value)
	})
	return "phases:" + phases.String() + "\nverdicts:" + verdicts.String() + "\n"
}

// publish feeds the process-wide series that mirror a field of the
// record, once per finished query or plan. xdb_admission_wait_seconds is
// fed beside it by QueryContext alone: a PlanContext is never admitted.
func (b *Breakdown) publish() {
	met.consults.Add(int64(b.ConsultRounds))
	met.degraded.Add(int64(b.DegradedProbes))
	met.cacheHits.Add(int64(b.CachedProbes))
	if b.PlanCacheHit {
		met.planHits.Inc()
	}
	if b.FailedOver {
		met.failovers.Inc()
	}
}

// logSlowQuery emits one structured record for a query whose wall time
// met Options.SlowQueryThreshold: the wall time, the SQL, the record's
// facts, the delegation plan's shape and the error, in one line.
func (s *System) logSlowQuery(sql string, wall time.Duration, bd *Breakdown, plan *Plan, err error) {
	if s.opts.SlowQueryThreshold <= 0 || wall < s.opts.SlowQueryThreshold {
		return
	}
	attrs := []any{"wall", wall, "sql", truncateSQL(sql)}
	bd.facts(func(name string, value any) { attrs = append(attrs, name, value) })
	if plan != nil {
		attrs = append(attrs, "plan", planShape(plan))
	}
	if err != nil {
		attrs = append(attrs, "err", err.Error())
	}
	slog.Warn("xdb: slow query", attrs...)
}
