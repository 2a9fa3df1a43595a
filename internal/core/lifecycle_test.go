package core

import "testing"

// TestLifecycleDecide is the lifecycle's transition table: for every
// outcome × arming cause × budget state it pins the verdict — verdictRetry
// is the one that charges Replans — and the replan metric label. decide is
// pure: no System, no connector, no socket.
func TestLifecycleDecide(t *testing.T) {
	type budgets struct {
		replans, maxReplans int
		mediator            bool
	}
	rows := []struct {
		name  string
		what  outcome
		armed armCause
		b     budgets

		next    verdict
		replans string
	}{
		// Execution succeeded.
		{"clean run", ranOK, armFirst, budgets{}, verdictDone, ""},
		{"success after a fault replan", ranOK, armFault, budgets{replans: 1, maxReplans: 2}, verdictDone, "recovered"},

		// Planning failed: never retried, whatever the budgets.
		{"first plan fails", planFailed, armFirst, budgets{maxReplans: 2, mediator: true}, verdictFail, ""},
		{"fault re-plan fails", planFailed, armFault, budgets{replans: 1, maxReplans: 3}, verdictFail, "failed"},
		{"fault re-plan fails, mediator on", planFailed, armFault, budgets{replans: 1, maxReplans: 3, mediator: true}, verdictFallback, "failed"},

		// Deployment or execution failed on a node: the fault budget alone
		// decides, then the mediator.
		{"node fault, failover off", nodeFault, armFirst, budgets{}, verdictFail, ""},
		{"node fault, failover off, mediator on", nodeFault, armFirst, budgets{mediator: true}, verdictFallback, ""},
		{"node fault, budget left", nodeFault, armFirst, budgets{maxReplans: 2, mediator: true}, verdictRetry, ""},
		{"node fault on a fault replan, budget left", nodeFault, armFault, budgets{replans: 1, maxReplans: 2}, verdictRetry, "failed"},
		{"node fault on a fault replan, budget spent", nodeFault, armFault, budgets{replans: 2, maxReplans: 2}, verdictFail, "failed"},
		{"node fault on a fault replan, budget spent, mediator on", nodeFault, armFault, budgets{replans: 2, maxReplans: 2, mediator: true}, verdictFallback, "failed"},

		// ... or failed for good: no budget and no mediator helps.
		{"final fault", finalFault, armFirst, budgets{maxReplans: 2, mediator: true}, verdictFail, ""},
		{"final fault on a fault replan", finalFault, armFault, budgets{replans: 1, maxReplans: 2, mediator: true}, verdictFail, "failed"},
	}
	for _, r := range rows {
		bd := &Breakdown{Replans: r.b.replans}
		opts := &Options{MaxReplans: r.b.maxReplans, MediatorFallback: r.b.mediator}
		next, replans := decide(r.what, r.armed, bd, opts)
		if next != r.next || replans != r.replans {
			t.Errorf("%s: decide = (%d, %q), want (%d, %q)",
				r.name, next, replans, r.next, r.replans)
		}
	}
}
