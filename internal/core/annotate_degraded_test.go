package core

import (
	"context"
	"testing"

	"xdb/internal/sqlparser"
)

// TestAnnotateDegraded exercises the degraded-planning paths: annotation
// must always produce a valid plan on a reachable candidate — never abort —
// and count every decision it made without consulting a DBMS.
func TestAnnotateDegraded(t *testing.T) {
	const sql = "SELECT s.s_name FROM small s, medium m WHERE s.s_id = m.m_sid"

	cases := []struct {
		name      string
		unhealthy []string
		erroring  []string
		opts      Options
		// wantNode is the placement the join must land on ("" = any
		// candidate is acceptable).
		wantNode string
		// wantDegraded: whether DegradedProbes must be > 0.
		wantDegraded bool
		// forbidProbes lists nodes that must never receive a probe.
		forbidProbes []string
		// wantConsults: whether real consult rounds must still happen.
		wantConsults bool
	}{
		{
			name:         "healthy baseline: no degradation recorded",
			wantDegraded: false,
			wantConsults: true,
		},
		{
			name:         "open breaker excludes candidate, falls back to healthy input site",
			unhealthy:    []string{"db2"},
			wantNode:     "db1",
			wantDegraded: true,
			forbidProbes: []string{"db2"},
		},
		{
			name:         "erroring probe falls back to local cost model, plan survives",
			erroring:     []string{"db2"},
			wantDegraded: true,
			wantConsults: true, // db1 still answers
		},
		{
			name:         "all candidates unhealthy: kept anyway, priced locally",
			unhealthy:    []string{"db1", "db2"},
			wantDegraded: true,
			forbidProbes: []string{"db1", "db2"},
		},
		{
			name:         "full candidate set skips unhealthy third node",
			unhealthy:    []string{"db3"},
			opts:         Options{FullCandidateSet: true},
			wantDegraded: true,
			forbidProbes: []string{"db3"},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newTestCatalog()
			sel, err := sqlparser.ParseSelect(sql)
			if err != nil {
				t.Fatal(err)
			}
			b, conjs, canon, err := buildLogical(c, sel)
			if err != nil {
				t.Fatal(err)
			}
			joined, err := orderJoins(b, conjs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			coster := &fakeCoster{
				nodes:     []string{"db1", "db2", "db3"},
				unhealthy: map[string]bool{},
				erroring:  map[string]bool{},
			}
			for _, n := range tc.unhealthy {
				coster.unhealthy[n] = true
			}
			for _, n := range tc.erroring {
				coster.erroring[n] = true
			}
			root := &Final{In: joined, Sel: canon}
			ann, err := annotate(context.Background(), root, coster, nil, tc.opts)
			if err != nil {
				t.Fatalf("annotate must not abort under degradation: %v", err)
			}

			join := root.In.(*Join)
			placed := ann.Node[join]
			if placed == "" {
				t.Fatal("join received no placement")
			}
			if tc.wantNode != "" && placed != tc.wantNode {
				t.Errorf("join placed on %s, want %s", placed, tc.wantNode)
			}
			if tc.wantDegraded && ann.DegradedProbes == 0 {
				t.Error("DegradedProbes = 0, want > 0")
			}
			if !tc.wantDegraded && ann.DegradedProbes != 0 {
				t.Errorf("DegradedProbes = %d, want 0", ann.DegradedProbes)
			}
			for _, n := range tc.forbidProbes {
				if got := coster.callsTo(n); got != 0 {
					t.Errorf("node %s was consulted %d times, want 0", n, got)
				}
			}
			if tc.wantConsults && ann.ConsultRounds == 0 {
				t.Error("ConsultRounds = 0, want > 0")
			}
			// Every operator must be annotated regardless of degradation.
			if ann.Node[root] == "" || ann.Node[join.L] == "" || ann.Node[join.R] == "" {
				t.Errorf("incomplete annotation: %v", ann.Node)
			}
		})
	}
}
