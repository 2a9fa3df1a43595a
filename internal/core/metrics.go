package core

import (
	"context"
	"errors"
	"time"

	"xdb/internal/obs"
)

// The middleware's process-wide metric set (obs.Default registry). Every
// System in the process feeds the same series — the registry is the
// "one pane" complement of the per-query trace: queries by outcome,
// admission behaviour, consultation and DDL latency distributions, and
// breaker churn. Wire-level dials/reuses/bytes live in internal/wire's
// mirror of TransportStats; the exposition handler serves them all.
var met = struct {
	queries       *obs.CounterVec // by outcome
	queryDur      *obs.Histogram
	admissionWait *obs.Histogram
	probeDur      *obs.Histogram
	ddlDur        *obs.Histogram
	consults      *obs.Counter
	degraded      *obs.Counter
	ddls          *obs.Counter

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	planHits       *obs.Counter
	planMisses     *obs.Counter
	planEvictions  *obs.Counter
	breaker        *obs.CounterVec // by entered state
	orphansParked  *obs.Counter
	orphansSwept   *obs.Counter
	replans        *obs.CounterVec // by outcome
	failovers      *obs.Counter
	edgeRows       *obs.CounterVec // by edge kind
	edgeBytes      *obs.CounterVec // by edge kind

	sampleProbes      *obs.CounterVec // by outcome
	sampleDur         *obs.Histogram
	edgeAttrAmbiguous *obs.Counter
}{
	queries: obs.Default.CounterVec("xdb_queries_total",
		"Queries by outcome: ok, error, canceled, shed_overload, shed_timeout, shed_draining.", "outcome"),
	queryDur: obs.Default.Histogram("xdb_query_duration_seconds",
		"End-to-end query wall time (admission wait included).", nil),
	admissionWait: obs.Default.Histogram("xdb_admission_wait_seconds",
		"Time queries waited for admission before planning began.", nil),
	probeDur: obs.Default.Histogram("xdb_probe_duration_seconds",
		"Consultation round-trip latency: one observation per node per annotation.", nil),
	ddlDur: obs.Default.Histogram("xdb_ddl_duration_seconds",
		"Per-statement delegation DDL deployment latency.", nil),
	consults: obs.Default.Counter("xdb_consult_probes_total",
		"Consultation probes sent to the underlying DBMSes, one per (join, node) pair priced; all of a node's probes in one annotation share one round trip."),
	degraded: obs.Default.Counter("xdb_degraded_probes_total",
		"Annotation decisions that fell back to the local cost model."),
	ddls: obs.Default.Counter("xdb_ddl_deployed_total",
		"DDL statements issued by delegation, whatever their outcome — a half-failed deployment still reports every statement it sent."),
	cacheHits: obs.Default.Counter("xdb_consult_cache_hits_total",
		"Consultation probes answered from the cross-query consult cache."),
	cacheMisses: obs.Default.Counter("xdb_consult_cache_misses_total",
		"Consult cache lookups that had to spend a round trip."),
	cacheEvictions: obs.Default.Counter("xdb_consult_cache_evictions_total",
		"Consult cache entries dropped by TTL expiry or invalidation (breaker transitions, calibration changes)."),
	planHits: obs.Default.Counter("xdb_plan_cache_hits_total",
		"Queries served from the delegation-plan cache (0 planning round trips, 0 DDLs)."),
	planMisses: obs.Default.Counter("xdb_plan_cache_misses_total",
		"Plan cache lookups that had to plan and deploy from scratch."),
	planEvictions: obs.Default.Counter("xdb_plan_cache_evictions_total",
		"Plan cache entries dropped by capacity, deployment-TTL expiry, or invalidation (catalog changes to a table the plan read, breaker transitions, execution failure)."),
	breaker: obs.Default.CounterVec("xdb_breaker_transitions_total",
		"Circuit breaker state transitions, labelled by the state entered.", "state"),
	orphansParked: obs.Default.Counter("xdb_orphans_parked_total",
		"Short-lived relations parked after a failed drop."),
	orphansSwept: obs.Default.Counter("xdb_orphans_swept_total",
		"Parked relations collected by the janitor."),
	replans: obs.Default.CounterVec("xdb_replans_total",
		"Mid-query failover replan attempts by outcome: recovered, failed, fallback.", "outcome"),
	failovers: obs.Default.Counter("xdb_failover_total",
		"Queries that survived a mid-query fault (suffix replan or mediator fallback)."),
	edgeRows: obs.Default.CounterVec("xdb_edge_rows_total",
		"Rows observed on attributed wire streams by edge kind (implicit, explicit, result, shared, unknown), counted at the receiving end.", "kind"),
	edgeBytes: obs.Default.CounterVec("xdb_edge_bytes_total",
		"Wire bytes (frame headers included) of attributed result streams by edge kind, counted at the receiving end.", "kind"),
	sampleProbes: obs.Default.CounterVec("xdb_sample_probes_total",
		"Bounded-sample estimate-refinement probes by outcome: sampled (probe corrected an estimate), agreed (probe confirmed it), degraded_error (probe failed, plain estimate kept), skipped_breaker (node's breaker open, probe never sent).", "outcome"),
	sampleDur: obs.Default.Histogram("xdb_sample_probe_duration_seconds",
		"Sampling probe round-trip latency.", nil),
	edgeAttrAmbiguous: obs.Default.Counter("xdb_edge_attr_ambiguous_total",
		"Warm-deployment qid overlaps between concurrent queries: the shared streams are marked kind=shared instead of being credited to the newest query."),
}

// queryOutcome maps a QueryContext result to its metrics label.
func queryOutcome(err error) string {
	if err == nil {
		return "ok"
	}
	var oe *OverloadError
	var de *DrainingError
	switch {
	case errors.As(err, &de):
		return "shed_draining"
	case errors.As(err, &oe):
		if oe.Reason == "queue full" {
			return "shed_overload"
		}
		return "shed_timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// registerSystemGauges publishes the System's live occupancy as
// gather-time gauges. Re-registration replaces the previous System's
// closures (latest wins), matching the registry's process-wide scope.
func registerSystemGauges(s *System) {
	obs.Default.GaugeFunc("xdb_inflight_queries",
		"Queries currently admitted and executing.",
		func() int64 { return int64(s.admit.snapshot().InFlight) })
	obs.Default.GaugeFunc("xdb_queued_queries",
		"Queries waiting in the admission queue.",
		func() int64 { return int64(s.admit.snapshot().Queued) })
	obs.Default.GaugeFunc("xdb_orphans_pending",
		"Short-lived relations currently parked for the janitor.",
		func() int64 { return int64(s.orphans.count()) })
	obs.Default.GaugeFunc("xdb_consult_cache_entries",
		"Consult cache occupancy (0 when ConsultCacheTTL is unset).",
		func() int64 { return int64(s.consults.occupancy()) })
	obs.Default.GaugeFunc("xdb_plan_cache_entries",
		"Plan cache occupancy — warm deployments currently held (0 when PlanCacheSize is unset).",
		func() int64 { return int64(s.plans.occupancy()) })
	obs.Default.GaugeFunc("xdb_deployment_leases",
		"Leases currently held on cached deployments by executing queries.",
		func() int64 { return int64(s.plans.activeLeases()) })
	obs.Default.GaugeFunc("xdb_inflight_registry_entries",
		"Queries registered in the live introspection registry (admission to completion; must drain to 0 with the system idle).",
		func() int64 { return int64(s.inflight.size()) })
}

// observeSeconds records a duration on a histogram.
func observeSeconds(h *obs.Histogram, d time.Duration) {
	h.Observe(d.Seconds())
}
