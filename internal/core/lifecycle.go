package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"xdb/internal/engine"
	"xdb/internal/obs"
	"xdb/internal/planner"
)

// The query lifecycle. The paper's line is straight — optimize, delegate
// (Algorithm 1), run one SELECT on the root DBMS, drop the short-lived
// relations — and a queryRun walks it as four steps:
//
//	plan ──► deploy ──► execute ──► settle ──► done
//	 ▲  └─ cache hit ────┘             │
//	 └────────── retry ────────────────┘
//
// A step that cannot hand over to the next one reports to settle, and
// settle is the only place that leaves the line: decide picks the way
// out (the table in TestLifecycleDecide is the specification), and settle
// alone retires a deployment, returns a plan-cache lease, drops what the
// query deployed, or enters the mediator fallback.
//
// Ownership: owned lists the deployments this query must drop when it
// ends — the attempts a fault retired, and at the end the executed one.
// Every attempt deploys its whole plan under its own qid, so no attempt
// reads another's objects. A plan-cache entry's deployment joins owned
// only when this query held the entry's last lease; otherwise another
// query's release owns the drop.

// runStep names a lifecycle step.
type runStep int

const (
	stepPlan runStep = iota
	stepDeploy
	stepExecute
	stepSettle
	stepDone
)

// armCause is what armed the current attempt.
type armCause int

const (
	armFirst armCause = iota // the original run
	armFault                 // a node fault: re-planned around the excluded node
)

// outcome is what a step reported to settle.
type outcome int

const (
	ranOK      outcome = iota // the XDB query delivered its rows
	planFailed                // the optimizer pipeline returned an error
	nodeFault                 // deployment or execution failed, pinned on a node (classifyFault)
	finalFault                // ... failed with nothing a re-plan can fix: SQL error, cancellation
)

// verdict is a way out of settle.
type verdict int

const (
	verdictDone     verdict = iota // deliver the result
	verdictRetry                   // charge Replans; exclude the node, back off, re-plan
	verdictFallback                // in-situ recovery exhausted: finish on the middleware
	verdictFail
)

// decide is the lifecycle's one decision: the verdict, plus the
// xdb_replans_total label to count ("" for none). A fault re-plans while
// the fault budget (MaxReplans) lasts; a failed re-plan is never retried.
func decide(what outcome, armed armCause, bd *Breakdown, opts *Options) (next verdict, replans string) {
	exhausted, failed := verdictFail, ""
	if opts.MediatorFallback {
		exhausted = verdictFallback
	}
	if armed == armFault {
		failed = "failed"
	}
	switch {
	case what == ranOK && bd.Replans > 0:
		return verdictDone, "recovered"
	case what == ranOK:
		return verdictDone, ""
	case what == planFailed && armed == armFirst:
		// Nothing is deployed and nothing was tried: the planner's error is
		// the answer.
		return verdictFail, ""
	case what == planFailed:
		// Typically no healthy placement survives.
		return exhausted, failed
	case what == nodeFault && bd.Replans < opts.MaxReplans:
		return verdictRetry, failed
	case what == nodeFault:
		return exhausted, failed
	}
	return verdictFail, failed
}

// queryRun is one admitted query's walk down the lifecycle. bd, the
// query's record, accumulates across attempts (phase times add up;
// Replans counts the fault-armed attempts, so it numbers the current
// one).
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
	plan *planner.Plan
	dep  *Deployment
	ent  *planEntry

	owned []*Deployment

	// The reporting step and its outcome, for settle. err ends up the
	// query's error.
	at   runStep
	err  error
	eres *engine.Result
	res  *Result
}

// lifecycleSteps are the steps, each with the inspector phase it enters
// ("" keeps the current one: execute names its phase after the test hook,
// settle only when it delivers).
var lifecycleSteps = [...]struct {
	phase string
	do    func(*queryRun) runStep
}{
	stepPlan:    {"planning", (*queryRun).doPlan},
	stepDeploy:  {"delegating", (*queryRun).doDeploy},
	stepExecute: {"", (*queryRun).doExecute},
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
// exclude a tripped node.
func (r *queryRun) doPlan() runStep {
	s := r.s
	if r.bd.Replans == 0 && r.cacheKey != "" {
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
			return stepExecute
		}
	}
	p, err := s.plan(r.ctx, r.sql, &r.bd)
	if err != nil {
		return r.report(stepPlan, err)
	}
	r.plan = p
	return stepDeploy
}

// doDeploy delegates the whole plan as DDL under a fresh qid.
func (r *queryRun) doDeploy() runStep {
	s := r.s
	dctx, span, done := timed(r.ctx, "delegate", &r.bd.Deleg)
	qid := nextQID()
	r.inf.attach(qid, r.plan)
	dep, err := s.deploy(dctx, r.plan, qid)
	span.Set("ddls", strconv.Itoa(dep.DDLCount))
	done(err)
	r.bd.DDLCount += dep.DDLCount
	r.dep = dep // partial on error: settle owns its drop
	if err != nil {
		return r.report(stepDeploy, err)
	}
	// Cache only first-attempt deployments: a re-plan's placement avoids
	// the node this query's fault excluded, which says nothing about the
	// next query.
	if r.bd.Replans == 0 && r.cacheKey != "" {
		var evicted []*planEntry
		r.ent, evicted = s.plans.put(r.cacheKey, r.plan, dep)
		for _, ev := range evicted {
			s.dropDeploymentAsync(ev.dep)
		}
	}
	return stepExecute
}

func (r *queryRun) doExecute() runStep {
	if r.s.hookBeforeAttempt != nil {
		r.s.hookBeforeAttempt(r.bd.Replans)
	}
	r.inf.setPhase("executing", &r.bd)
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
	next, replans := decide(what, r.armed, bd, &s.opts)
	if replans != "" {
		met.replans.With(replans).Inc()
	}
	switch next {
	case verdictDone:
		return r.deliver()
	case verdictRetry:
		bd.Replans++
		r.release(true)
		// The tripped breaker keeps the re-plan off the node, and its
		// transition hook drops the node's cached plans and consulted costs
		// first.
		s.health.tripNode(node, r.err)
		// One span says why the next attempt was armed.
		r.armed = armFault
		sp := r.qspan.Child("replan")
		sp.Set("cause", cause)
		sp.Set("excluded", node)
		sp.Set("attempt", strconv.Itoa(bd.Replans))
		sp.SetErr(r.err)
		sp.Finish()
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

// release ends the current attempt's hold on its deployment without
// dropping it: the lease on a cached entry goes back (poisoning the entry
// when the attempt failed), and the deployment joins owned if it is this
// query's to drop — a cached entry's only when this was its last lease
// out.
func (r *queryRun) release(poison bool) {
	mine := r.dep != nil
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
	// Every edge this execution drained — pulled or materialized —
	// corrects the catalog for the next query (Catalog.Observe); the finished
	// query is untouched. qid scopes the lookup to the attempt that
	// executed.
	for _, e := range r.plan.Edges {
		if actual, done := r.inf.flowObserved(dep.QID, e.From.ID); done {
			r.s.catalog.Observe(e, float64(actual))
		}
	}
	r.release(false) // a healthy cached entry stays warm
	r.finish(r.eres)
	r.res.XDBQuery, r.res.RootNode, r.res.QID = dep.XDBQuery, dep.Node, dep.QID
	return stepDone
}

// finish drops everything the query owns and ends the query: with the
// rows that answer it, or (nil) with the error that settled it. Failed
// drops are parked as orphans by cleanupDeployment; the outcome carries
// them either way.
func (r *queryRun) finish(eres *engine.Result) runStep {
	var errs []error
	for _, dep := range r.owned {
		if err := r.s.cleanupDeployment(r.ctx, dep); err != nil {
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
