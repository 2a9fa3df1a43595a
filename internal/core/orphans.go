package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Orphan-DDL garbage collection. A failed cleanup drop (dead node, cut
// link, timeout) no longer loses the object: the item is parked in a
// system-level orphan registry and a janitor retries the drop — on demand
// via SweepOrphans, and automatically when the node's breaker closes again
// (recovery). The qid-scoped object naming (xdb<qid>_t<task>) makes the
// sweep precise: a retried DROP can only ever hit the short-lived relation
// it was recorded for, and every drop renders as IF EXISTS, so retrying an
// already-gone object is a no-op.

// Orphan is one short-lived relation whose drop failed and is awaiting the
// janitor.
type Orphan struct {
	// Node is the DBMS holding the object.
	Node string
	// SQL is the DROP statement to retry.
	SQL string
	// LastErr is the most recent failure's message.
	LastErr string
	// Since is when the object was first orphaned.
	Since time.Time
	// Attempts counts failed drop attempts.
	Attempts int
}

// orphanRegistry holds orphans pending collection. Safe for concurrent
// use.
type orphanRegistry struct {
	mu    sync.Mutex
	items map[string]*Orphan // keyed node + "\x00" + sql
}

func newOrphanRegistry() *orphanRegistry {
	return &orphanRegistry{items: map[string]*Orphan{}}
}

func orphanKey(node, sql string) string { return node + "\x00" + sql }

// add parks one failed drop, deduping on (node, SQL) so a re-failed sweep
// does not multiply entries.
func (r *orphanRegistry) add(node, sql, errMsg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := orphanKey(node, sql)
	if o, ok := r.items[key]; ok {
		o.LastErr = errMsg
		o.Attempts++
		return
	}
	met.orphansParked.Inc()
	r.items[key] = &Orphan{Node: node, SQL: sql, LastErr: errMsg, Since: time.Now(), Attempts: 1}
}

// remove clears a collected orphan.
func (r *orphanRegistry) remove(node, sql string) {
	r.mu.Lock()
	delete(r.items, orphanKey(node, sql))
	r.mu.Unlock()
}

// snapshot lists pending orphans; node filters to one node when non-empty.
func (r *orphanRegistry) snapshot(node string) []Orphan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Orphan, 0, len(r.items))
	for _, o := range r.items {
		if node != "" && o.Node != node {
			continue
		}
		out = append(out, *o)
	}
	return out
}

func (r *orphanRegistry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// Orphans lists the short-lived relations whose drops failed and are
// pending garbage collection.
func (s *System) Orphans() []Orphan { return s.orphans.snapshot("") }

// SweepOrphans retries every parked drop (or only one node's when node is
// non-empty — the recovery path), one DROP script per node, the nodes at
// once. Collected orphans leave the registry;
// drops that fail again stay parked with their updated error. It returns
// the number of objects dropped and the number still parked, plus an error
// summarizing the remaining failures.
//
// Sweeps are serialized: the recovery hook and on-demand callers may race,
// and the DROPs are IF EXISTS, so a sweep is idempotent but still cheaper
// run once.
func (s *System) SweepOrphans() (dropped, remaining int, err error) {
	return s.sweepOrphans("")
}

func (s *System) sweepOrphans(node string) (dropped, remaining int, err error) {
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	orphans := s.orphans.snapshot(node)
	items := make([]cleanupItem, len(orphans))
	for i, o := range orphans {
		items[i] = cleanupItem{node: o.Node, sql: o.SQL}
	}
	var errs []string
	// Ungated: the sweep is the recovery probe of a node whose breaker is
	// open.
	for i, dropErr := range s.dropItems(items, false) {
		o := orphans[i]
		if dropErr != nil {
			s.orphans.add(o.Node, o.SQL, dropErr.Error())
			remaining++
			errs = append(errs, fmt.Sprintf("%s on %s: %v", o.SQL, o.Node, dropErr))
			continue
		}
		s.orphans.remove(o.Node, o.SQL)
		met.orphansSwept.Inc()
		dropped++
	}
	if len(errs) > 0 {
		err = fmt.Errorf("core: orphan sweep: %s", strings.Join(errs, "; "))
	}
	return dropped, remaining, err
}

// nodeRecovered is the health tracker's recovery hook: when a node's
// breaker closes after an outage, its parked drops are retried in the
// background.
func (s *System) nodeRecovered(node string) {
	if len(s.orphans.snapshot(node)) == 0 {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		s.sweepOrphans(node)
	}()
}

// Deployment janitor. The plan cache keeps deployed views and foreign
// tables warm across queries; the janitor bounds how long an idle one
// lingers. It shares the orphan machinery end to end: expired (and
// invalidated, and flushed) deployments are dropped through
// cleanupDeployment, so a drop that fails parks the objects here for the
// sweeps above.

// startDeploymentJanitor launches the TTL sweep for cached deployments.
// No-op while the plan cache is disabled.
func (s *System) startDeploymentJanitor() {
	if s.plans == nil {
		return
	}
	period := s.plans.ttl / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.planStop:
				return
			case now := <-tick.C:
				s.expireDeployments(now)
			}
		}
	}()
}

// stopDeploymentJanitor halts the TTL sweep. Idempotent; Close calls it
// before draining so no sweep races the final flush.
func (s *System) stopDeploymentJanitor() {
	s.planStopOnce.Do(func() { close(s.planStop) })
}

// expireDeployments drops every cached deployment idle past the TTL.
func (s *System) expireDeployments(now time.Time) {
	for _, ent := range s.plans.expire(now) {
		s.cleanupDeployment(context.Background(), ent.dep)
	}
}

// FlushPlans empties the plan cache and drops the idle warm deployments
// now; entries leased by in-flight queries are dropped by their final
// release. Drops that fail park as orphans. Close flushes automatically —
// FlushPlans exists for tests and operators forcing a cold cache.
func (s *System) FlushPlans() {
	for _, ent := range s.plans.invalidateAll() {
		s.cleanupDeployment(context.Background(), ent.dep)
	}
}

// invalidateNode forgets what was derived from a node's state once its
// breaker changes state: the node's consulted costs, and its cached plans,
// whose objects a crash may have taken with it; their deployments drop in
// the background (no caller should block on remote DROPs).
func (s *System) invalidateNode(node string) {
	s.consults.invalidateNode(node)
	for _, ent := range s.plans.invalidateNode(node) {
		s.dropDeploymentAsync(ent.dep)
	}
}

// dropDeploymentAsync drops a deployment's objects on a background
// goroutine tracked by s.bg (the nodeRecovered idiom), detached from any
// query context.
func (s *System) dropDeploymentAsync(dep *Deployment) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		s.cleanupDeployment(context.Background(), dep)
	}()
}
