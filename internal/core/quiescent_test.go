package core

import (
	"sort"
	"strings"
	"testing"

	"xdb/internal/engine"
)

// leftoverXDB lists, as "node: name", the short-lived relations (xdb*
// views and tables) still live on the engines, skipping the named nodes.
func leftoverXDB(engines map[string]*engine.Engine, skip map[string]bool) []string {
	var out []string
	for node, eng := range engines {
		if skip[node] {
			continue
		}
		for _, name := range append(eng.Catalog().ViewNames(), eng.Catalog().TableNames()...) {
			if strings.HasPrefix(name, "xdb") {
				out = append(out, node+": "+name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// assertQuiescent is the no-leak invariant of an idle System: no
// short-lived relation left on any engine but a warm plan-cache entry's,
// no orphan parked, no plan-cache lease held, and the in-flight registry
// and the process-wide flow router empty. The nodes named in except are known casualties (dead or cut off):
// their leftover objects and the orphans parked for them are what the next
// sweep is for.
func assertQuiescent(t testing.TB, sys *System, engines map[string]*engine.Engine, except ...string) {
	t.Helper()
	skip := map[string]bool{}
	for _, n := range except {
		skip[n] = true
	}
	warm := map[string]bool{}
	if sys.plans != nil {
		sys.plans.mu.Lock()
		for _, ent := range sys.plans.entries {
			// A drop's last word names its object ("DROP VIEW IF EXISTS
			// xdb7_t1").
			ent.dep.mu.Lock()
			for _, item := range ent.dep.cleanup {
				f := strings.Fields(item.sql)
				warm[item.node+": "+f[len(f)-1]] = true
			}
			ent.dep.mu.Unlock()
		}
		sys.plans.mu.Unlock()
	}
	for _, obj := range leftoverXDB(engines, skip) {
		if !warm[obj] {
			t.Errorf("leftover on %s", obj)
		}
	}
	for _, o := range sys.Orphans() {
		if !skip[o.Node] {
			t.Errorf("orphan parked on %s: %s", o.Node, o.SQL)
		}
	}
	if n := sys.plans.activeLeases(); n != 0 {
		t.Errorf("%d plan-cache leases held with the system idle", n)
	}
	if n := sys.inflight.size(); n != 0 {
		t.Errorf("inflight registry holds %d entries with the system idle", n)
	}
	flowRouter.RLock()
	routes := len(flowRouter.m)
	flowRouter.RUnlock()
	if routes != 0 {
		t.Errorf("flow router holds %d routes with the system idle", routes)
	}
}

// AssertQuiescent exports the invariant to the core_test package.
var AssertQuiescent = assertQuiescent
