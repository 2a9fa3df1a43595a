package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"xdb/internal/engine"
	"xdb/internal/obs"
)

// The query lifecycle. The paper's line is straight — optimize, delegate
// (Algorithm 1), run one SELECT on the root DBMS, drop the short-lived
// relations — and a queryRun walks it as five steps:
//
//	plan ──► deploy ──► observe ──► execute ──► settle ──► done
//	 ▲  └─ cache hit ────┘ ▲                      │
//	 │                     └── run-original ──────┤
//	 └────────── retry / reopt ───────────────────┘
//
// A step that cannot hand over to the next one reports to settle, and
// settle is the only place that leaves the line: decide picks the way
// out (the table in TestLifecycleDecide is the specification), and settle
// alone retires a deployment, returns a plan-cache lease, drops what the
// query deployed, or enters the mediator fallback.
//
// Ownership: owned lists, oldest first, the deployments this query must
// drop when it ends — the attempts a fault or a re-optimization retired,
// and at the end the executed one. Until then their surviving objects
// feed the next attempt's reuse index (reuseIndex). A plan-cache entry's
// deployment joins owned only when this query held the entry's last
// lease; otherwise another query's release owns the drop.

// runStep names a lifecycle step.
type runStep int

const (
	stepPlan runStep = iota
	stepDeploy
	stepObserve
	stepExecute
	stepSettle
	stepDone
)

// armCause is what armed the current attempt.
type armCause int

const (
	armFirst armCause = iota // the original run
	armFault                 // a node fault: re-planned around the excluded node
	armReopt                 // a disproved estimate: re-planned with observed cardinalities
)

// outcome is what a step reported to settle.
type outcome int

const (
	ranOK      outcome = iota // the XDB query delivered its rows
	diverged                  // a barrier disproved its estimate
	planFailed                // the optimizer pipeline returned an error
	nodeFault                 // deploy, barrier or execution failed, pinned on a node (classifyFault)
	finalFault                // ... failed with nothing a re-plan can fix: SQL error, cancellation
)

// verdict is a way out of settle.
type verdict int

const (
	verdictDone        verdict = iota // deliver the result
	verdictProceed                    // reopt budget spent: execute the current plan regardless
	verdictRetry                      // charge Replans; exclude the node, back off, re-plan
	verdictReopt                      // charge Reopts; re-plan with the observed cardinalities
	verdictRunOriginal                // the re-optimization has no plan: execute the superseded one
	verdictFallback                   // in-situ recovery exhausted: finish on the middleware
	verdictFail
)

// decide is the lifecycle's one decision: the verdict, plus the
// xdb_replans_total and xdb_reopts_total labels to count ("" for none).
// MaxReplans and MaxReopts are two edges of the same graph: a fault
// re-plans while the fault budget lasts, a disproved estimate re-plans
// while the reopt budget lasts, and neither spends the other's budget. A
// failed re-plan is never retried. A failed attempt counts on the replan
// metric only when a fault armed it — a reopt-armed attempt was accounted
// when its plan was produced.
func decide(what outcome, armed armCause, bd *Breakdown, opts *Options) (next verdict, replans, reopts string) {
	exhausted, failed := verdictFail, ""
	if opts.MediatorFallback {
		exhausted = verdictFallback
	}
	if armed == armFault {
		failed = "failed"
	}
	switch {
	case what == ranOK && bd.Replans > 0:
		return verdictDone, "recovered", ""
	case what == ranOK:
		return verdictDone, "", ""
	case what == diverged && bd.Reopts < opts.MaxReopts:
		return verdictReopt, "", ""
	case what == diverged:
		return verdictProceed, "", ""
	case what == planFailed && armed == armFirst:
		// Nothing is deployed and nothing was tried: the planner's error is
		// the answer.
		return verdictFail, "", ""
	case what == planFailed && armed == armReopt:
		// The superseded deployment is intact — a query the cluster can
		// still answer must not fail because its improvement did.
		return verdictRunOriginal, "", "failed"
	case what == planFailed:
		// Typically no healthy placement survives.
		return exhausted, failed, ""
	case what == nodeFault && bd.Replans < opts.MaxReplans:
		return verdictRetry, failed, ""
	case what == nodeFault:
		return exhausted, failed, ""
	}
	return verdictFail, failed, ""
}

// queryRun is one admitted query's walk down the lifecycle. bd, the
// query's record, accumulates across attempts (phase times add up;
// Replans counts the fault-armed attempts, Reopts the cardinality-armed
// ones, so together they number the current attempt).
type queryRun struct {
	s        *System
	ctx      context.Context
	qspan    *obs.Span
	inf      *inflightEntry // nil-safe; keeps the live inspector honest
	sql      string
	cacheKey string // "" when the plan cache is off
	bd       Breakdown

	armed armCause
	// The current attempt: its plan (the last one produced — a failed
	// re-plan leaves it standing), its deployment, and the plan-cache lease
	// when the deployment is a cached entry's.
	plan *Plan
	dep  *Deployment
	ent  *planEntry
	// borrowed: executing the superseded deployment after a failed
	// re-optimization — already retired or still leased elsewhere, so not
	// this attempt's to retire, and already observed.
	borrowed bool

	owned    []*Deployment
	excluded map[string]bool
	// feedback holds the observed cardinalities by logical signature.
	feedback map[string]float64
	// superseded is the deployment of the plan the last re-optimization
	// retired — the plan itself stays in place until a re-plan succeeds —
	// to run if the re-plan fails.
	superseded *Deployment

	// The reporting step and its outcome, for settle. err ends up the
	// query's error.
	at      runStep
	err     error
	trigger *Edge // the barrier that disproved its estimate
	eres    *engine.Result
	res     *Result
}

// lifecycleSteps are the steps, each with the inspector phase it enters
// ("" keeps the current one: observe names its phase only when it has
// barriers to run, settle only when it delivers).
var lifecycleSteps = [...]struct {
	phase string
	do    func(*queryRun) runStep
}{
	stepPlan:    {"planning", (*queryRun).doPlan},
	stepDeploy:  {"delegating", (*queryRun).doDeploy},
	stepObserve: {"", (*queryRun).doObserve},
	stepExecute: {"executing", (*queryRun).doExecute},
	stepSettle:  {"", (*queryRun).settle},
}

// run walks the steps. Before each one the inspector gets the record as
// the last step left it.
func (r *queryRun) run() (*Result, error) {
	for step := stepPlan; step != stepDone; {
		r.inf.setPhase(lifecycleSteps[step].phase, &r.bd)
		step = lifecycleSteps[step].do(r)
	}
	return r.res, r.err
}

// report hands a step's outcome to settle.
func (r *queryRun) report(at runStep, err error) runStep {
	r.at, r.err = at, err
	return stepSettle
}

// doPlan produces the attempt's plan. Only the first attempt may hit the
// plan cache; a re-plan always runs the pipeline, so degraded planning can
// exclude a tripped node and annotation can consume the feedback.
func (r *queryRun) doPlan() runStep {
	s := r.s
	r.borrowed = false
	if r.bd.attempt() == 0 && r.cacheKey != "" {
		var stale *planEntry
		if r.ent, stale = s.plans.acquire(r.cacheKey, s.catalog); stale != nil {
			s.dropDeploymentAsync(stale.dep)
		}
		if r.ent != nil {
			r.plan, r.dep = r.ent.plan, r.ent.dep
			r.bd.PlanCacheHit = true
			r.qspan.Set("plan_cache", "hit")
			// A warm deployment keeps its original qid: route its streams
			// here. Concurrent queries sharing the deployment race for the
			// route; the latest registrant wins the overlap.
			r.inf.attach(r.dep.QID, r.plan)
			return stepObserve
		}
	}
	p, err := s.plan(r.ctx, r.sql, &r.bd, r.feedback)
	if err != nil {
		return r.report(stepPlan, err)
	}
	if r.armed == armReopt {
		// Did the corrected costing change the plan (placement or
		// movement), or merely confirm it?
		label := "unchanged"
		if taskSig(p.Root) != taskSig(r.plan.Root) {
			label = "improved"
		}
		met.reopts.With(label).Inc()
	}
	r.plan = p
	return stepDeploy
}

// doDeploy delegates the plan as DDL, adopting the surviving objects of
// the attempts this query retired — above all every materialized stage.
func (r *queryRun) doDeploy() runStep {
	s := r.s
	dctx, span, done := timed(r.ctx, "delegate", &r.bd.Deleg)
	qid := nextQID()
	r.inf.attach(qid, r.plan)
	dep, err := s.deployReusing(dctx, r.plan, qid, s.reuseIndex(r.owned, r.excluded))
	span.Set("ddls", strconv.Itoa(dep.DDLCount))
	done(err)
	r.bd.DDLCount += dep.DDLCount
	r.dep = dep // partial on error: settle keeps it for reuse and owns its drop
	if err != nil {
		return r.report(stepDeploy, err)
	}
	// Cache only clean first-attempt deployments: a later one may lean on
	// objects of retired attempts, which drop when this query ends.
	if r.bd.attempt() == 0 && r.cacheKey != "" {
		var evicted []*planEntry
		r.ent, evicted = s.plans.put(r.cacheKey, r.plan, dep)
		for _, ev := range evicted {
			s.dropDeploymentAsync(ev.dep)
		}
	}
	return stepObserve
}

// doObserve is the cardinality checkpoint (Options.MaxReopts; reopt.go):
// force each materialized stage with a COUNT(*) barrier and read the
// actual row count back before the XDB query runs. The barrier's stored
// rows are adopted by whatever attempt follows, so the probe's work is
// never wasted.
func (r *queryRun) doObserve() runStep {
	s := r.s
	if s.hookBeforeAttempt != nil {
		s.hookBeforeAttempt(r.bd.attempt())
	}
	// A warm plan-cache hit's estimates were vetted when it was built, a
	// borrowed deployment's by the attempt that built it.
	if s.opts.MaxReopts <= 0 || (r.bd.attempt() == 0 && r.bd.PlanCacheHit) || r.borrowed {
		return stepExecute
	}
	if r.feedback == nil {
		r.feedback = map[string]float64{}
	}
	r.inf.setPhase("observing", &r.bd)
	_, _, done := timed(r.ctx, "", &r.bd.Exec)
	trigger, err := s.observeMaterialized(r.ctx, r.qspan, r.plan, r.feedback)
	done(err)
	if err == nil && trigger == nil {
		return stepExecute
	}
	if r.trigger = trigger; trigger != nil {
		r.bd.EstimateErrors++
	}
	return r.report(stepObserve, err)
}

func (r *queryRun) doExecute() runStep {
	_, _, done := timed(r.ctx, "", &r.bd.Exec)
	eres, err := r.s.executeDeployment(r.ctx, r.qspan, r.dep)
	done(err)
	r.eres = eres
	return r.report(stepExecute, err)
}

// settle classifies the reported outcome, asks decide, and acts on the
// verdict.
func (r *queryRun) settle() runStep {
	s, bd := r.s, &r.bd
	what, node, cause := ranOK, "", ""
	switch {
	case r.err == nil && r.at == stepObserve:
		what = diverged
	case r.err == nil:
	case r.at == stepPlan:
		what = planFailed
	default:
		what = finalFault
		if node, cause, _ = s.classifyFault(r.ctx, r.err); node != "" {
			what = nodeFault
			if r.at != stepDeploy {
				// The data-plane stream's single breaker feed; deploy RPCs
				// fed it at their own call sites.
				s.health.record(node, r.err)
			}
		}
	}
	next, replans, reopts := decide(what, r.armed, bd, &s.opts)
	if replans != "" {
		met.replans.With(replans).Inc()
	}
	if reopts != "" {
		met.reopts.With(reopts).Inc()
	}
	switch next {
	case verdictDone:
		return r.deliver()
	case verdictProceed:
		return stepExecute
	case verdictRunOriginal:
		sp := r.qspan.Child("reopt_fallback")
		sp.SetErr(r.err)
		sp.Finish()
		r.dep, r.borrowed = r.superseded, true
		return stepObserve
	case verdictReopt:
		bd.Reopts++
		r.superseded = r.dep
		r.release(true)
		// No exclusion, no breaker trip, no backoff: the cluster is
		// healthy — only the estimate was wrong.
		e := r.trigger
		return r.rearm(armReopt, "reopt", "cause", "cardinality", "node", e.To.Node, "rel", e.Placeholder.Rel,
			"est", strconv.FormatFloat(e.EstRows, 'f', 0, 64),
			"actual", strconv.FormatFloat(r.feedback[e.Sig], 'f', 0, 64))
	case verdictRetry:
		bd.Replans++
		r.release(true)
		// The tripped breaker's transition hook drops the node's cached
		// plans and consulted costs before the re-plan.
		r.excluded[node] = true
		s.health.tripNode(node, r.err)
		r.rearm(armFault, "replan", "cause", cause, "excluded", node)
		if s.replanWait(r.ctx, bd.Replans-1) == nil {
			return stepPlan
		}
		next = verdictFail
	}
	r.release(true)
	if next == verdictFallback {
		eres, ferr := s.mediatorFallback(r.ctx, r.qspan, r.sql)
		if ferr == nil {
			bd.FailedOver, bd.MediatorFallback = true, true
			met.replans.With("fallback").Inc()
			return r.finish(eres)
		}
		r.err = fmt.Errorf("%w (mediator fallback: %v)", r.err, ferr)
	}
	return r.finish(nil)
}

// rearm starts the next attempt, leaving one span that says why.
func (r *queryRun) rearm(armed armCause, span string, kv ...string) runStep {
	r.armed = armed
	sp := r.qspan.Child(span)
	for i := 0; i+1 < len(kv); i += 2 {
		sp.Set(kv[i], kv[i+1])
	}
	sp.Set("attempt", strconv.Itoa(r.bd.attempt()))
	sp.SetErr(r.err)
	sp.Finish()
	return stepPlan
}

// release ends the current attempt's hold on its deployment without
// dropping it: the lease on a cached entry goes back (poisoning the entry
// when the attempt failed or was superseded), and the deployment joins
// owned if it is this query's to drop — never a borrowed one, and a cached
// entry's only when this was its last lease out.
func (r *queryRun) release(poison bool) {
	mine := r.dep != nil && !r.borrowed
	if r.ent != nil {
		mine = r.s.plans.release(r.ent, poison)
	}
	if mine {
		r.owned = append(r.owned, r.dep)
	}
	r.ent, r.dep = nil, nil
}

// deliver ends a query whose execution succeeded.
func (r *queryRun) deliver() runStep {
	dep := r.dep
	r.bd.FailedOver = r.bd.Replans > 0
	r.inf.setPhase("finishing", &r.bd)
	// Post-hoc cardinality feedback from the implicit edges this execution
	// pulled over the wire — the flow-accounting counterpart of the
	// barriers (reopt.go): strictly cross-query, the finished query is
	// untouched. qid scopes the lookup to the attempt that executed.
	for _, e := range r.plan.Edges {
		if actual, done := r.inf.flowObserved(dep.QID, e.From.ID); done && e.Move == MoveImplicit {
			r.s.feedObservedRows(e, float64(actual))
		}
	}
	r.release(false) // a healthy cached entry stays warm
	r.finish(r.eres)
	r.res.XDBQuery, r.res.RootNode, r.res.QID = dep.XDBQuery, dep.Node, dep.QID
	return stepDone
}

// finish drops everything the query owns, newest first — a later attempt's
// objects may reference an earlier attempt's — and ends the query: with
// the rows that answer it, or (nil) with the error that settled it. Failed
// drops are parked as orphans by cleanupDeployment; the outcome carries
// them either way.
func (r *queryRun) finish(eres *engine.Result) runStep {
	var errs []error
	for i := len(r.owned) - 1; i >= 0; i-- {
		if err := r.s.cleanupDeployment(r.ctx, r.owned[i]); err != nil {
			errs = append(errs, err)
		}
	}
	r.owned = nil
	cerr := errors.Join(errs...)
	if eres == nil {
		if cerr != nil {
			r.err = fmt.Errorf("%w (cleanup after failure: %v)", r.err, cerr)
		}
		return stepDone
	}
	r.res, r.err = &Result{
		Result: eres, Plan: r.plan, Breakdown: r.bd, RootNode: r.s.node,
		CleanupErr: cerr, Trace: r.qspan, Flows: r.inf.flowsSnapshot(),
	}, nil
	return stepDone
}
