package core

import "testing"

// TestLifecycleDecide is the lifecycle's transition table: for every
// outcome × arming cause × budget state it pins the verdict — verdictRetry
// is the one that charges Replans, verdictReopt the one that charges
// Reopts — and the replan/reopt metric label. decide is pure: no System,
// no connector, no socket.
func TestLifecycleDecide(t *testing.T) {
	type budgets struct {
		replans, maxReplans, reopts, maxReopts int
		mediator                               bool
	}
	rows := []struct {
		name  string
		what  outcome
		armed armCause
		b     budgets

		next            verdict
		replans, reopts string
	}{
		// Execution succeeded.
		{"clean run", ranOK, armFirst, budgets{}, verdictDone, "", ""},
		{"success after a fault replan", ranOK, armFault, budgets{replans: 1, maxReplans: 2}, verdictDone, "recovered", ""},
		{"success after a reopt", ranOK, armReopt, budgets{reopts: 1, maxReopts: 2}, verdictDone, "", ""},
		{"success after a fault replan, then a reopt", ranOK, armReopt, budgets{replans: 1, maxReplans: 1, reopts: 1, maxReopts: 1}, verdictDone, "recovered", ""},

		// A barrier disproved its estimate: the reopt budget alone decides.
		{"divergence, budget left", diverged, armFirst, budgets{maxReopts: 2}, verdictReopt, "", ""},
		{"divergence on a re-optimized plan, budget left", diverged, armReopt, budgets{reopts: 1, maxReopts: 2}, verdictReopt, "", ""},
		{"divergence, budget spent", diverged, armReopt, budgets{reopts: 2, maxReopts: 2}, verdictProceed, "", ""},
		{"divergence with the fault budget spent", diverged, armFault, budgets{replans: 1, maxReplans: 1, maxReopts: 1}, verdictReopt, "", ""},
		{"divergence with re-optimization off", diverged, armFirst, budgets{}, verdictProceed, "", ""},

		// Planning failed: never retried, whatever the budgets.
		{"first plan fails", planFailed, armFirst, budgets{maxReplans: 2, maxReopts: 2, mediator: true}, verdictFail, "", ""},
		{"reopt re-plan fails", planFailed, armReopt, budgets{reopts: 1, maxReopts: 2}, verdictRunOriginal, "", "failed"},
		{"reopt re-plan fails, failover and mediator on", planFailed, armReopt, budgets{reopts: 1, maxReopts: 1, maxReplans: 2, mediator: true}, verdictRunOriginal, "", "failed"},
		{"fault re-plan fails", planFailed, armFault, budgets{replans: 1, maxReplans: 3}, verdictFail, "failed", ""},
		{"fault re-plan fails, mediator on", planFailed, armFault, budgets{replans: 1, maxReplans: 3, mediator: true}, verdictFallback, "failed", ""},

		// Deployment, a barrier or execution failed on a node: the fault
		// budget alone decides, then the mediator.
		{"node fault, failover off", nodeFault, armFirst, budgets{}, verdictFail, "", ""},
		{"node fault, failover off, mediator on", nodeFault, armFirst, budgets{mediator: true}, verdictFallback, "", ""},
		{"node fault, budget left", nodeFault, armFirst, budgets{maxReplans: 2, mediator: true}, verdictRetry, "", ""},
		{"node fault on a fault replan, budget left", nodeFault, armFault, budgets{replans: 1, maxReplans: 2}, verdictRetry, "failed", ""},
		{"node fault on a fault replan, budget spent", nodeFault, armFault, budgets{replans: 2, maxReplans: 2}, verdictFail, "failed", ""},
		{"node fault on a fault replan, budget spent, mediator on", nodeFault, armFault, budgets{replans: 2, maxReplans: 2, mediator: true}, verdictFallback, "failed", ""},
		{"node fault on a reopt, reopt budget spent", nodeFault, armReopt, budgets{reopts: 2, maxReopts: 2, maxReplans: 1}, verdictRetry, "", ""},
		{"node fault on a reopt, failover off", nodeFault, armReopt, budgets{reopts: 1, maxReopts: 2}, verdictFail, "", ""},

		// ... or failed for good: no budget and no mediator helps.
		{"final fault", finalFault, armFirst, budgets{maxReplans: 2, mediator: true}, verdictFail, "", ""},
		{"final fault on a fault replan", finalFault, armFault, budgets{replans: 1, maxReplans: 2, mediator: true}, verdictFail, "failed", ""},
		{"final fault on a reopt", finalFault, armReopt, budgets{reopts: 1, maxReopts: 2, maxReplans: 2, mediator: true}, verdictFail, "", ""},
	}
	for _, r := range rows {
		bd := &Breakdown{Replans: r.b.replans, Reopts: r.b.reopts}
		opts := &Options{MaxReplans: r.b.maxReplans, MaxReopts: r.b.maxReopts, MediatorFallback: r.b.mediator}
		next, replans, reopts := decide(r.what, r.armed, bd, opts)
		if next != r.next || replans != r.replans || reopts != r.reopts {
			t.Errorf("%s: decide = (%d, %q, %q), want (%d, %q, %q)",
				r.name, next, replans, reopts, r.next, r.replans, r.reopts)
		}
	}
}
