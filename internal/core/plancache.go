package core

import (
	"sync"
	"time"

	"xdb/internal/planner"
)

// The delegation-plan cache. Every query normally pays logical
// optimization, annotation, DDL deployment, and a drop-per-query cleanup —
// even for an identical repeat statement ("short-lived relations",
// Sec. III). With warm annotation down to microseconds, deployment DDL is
// the repeat-query bottleneck, so the middleware memoizes the whole
// delegation: the plan AND its deployed objects, keyed on the normalized
// AST (the canonical rendering of the parsed statement). A cached
// deployment is kept alive by refcounted leases — every executing query
// holds one, so invalidation can never drop a view out from under a
// running cascade — and a janitor drops deployments idle past
// Options.DeploymentTTL.
//
// Freshness:
//
//   - an entry is served only while the catalog still holds what its plan
//     was built from: every table the plan read registered on the same
//     node with equal planning statistics (Catalog.Holds, checked on every
//     acquire). A refresh, a learned correction or a re-registration that
//     touched one of those tables invalidates the entry at its next
//     lookup, and only that entry;
//   - a breaker state transition on a node invalidates every cached plan
//     deployed there (the plan was costed against a node state that no
//     longer holds, and its objects may be gone);
//   - an execution failure on a cached deployment poisons that entry: its
//     objects may be partially gone, so they are dropped rather than
//     reused.
//
// Lock order: acquire takes the catalog's lock inside the cache's; no
// path takes them the other way round.
//
// A nil *planCache (Options.PlanCacheSize == 0, the paper configuration)
// is a valid no-op receiver for every method, matching consultCache.

// DefaultDeploymentTTL is how long an idle cached deployment stays warm
// when Options.DeploymentTTL is unset.
const DefaultDeploymentTTL = 30 * time.Second

// PlanCacheStats is a point-in-time snapshot of the delegation-plan cache
// (System.PlanCacheStats / SystemStats.PlanCache).
type PlanCacheStats struct {
	// Entries is the current occupancy — each entry holds one live
	// deployment (0 when the cache is disabled).
	Entries int
	// ActiveLeases counts the leases currently held by executing queries
	// across all entries.
	ActiveLeases int
	// Hits and Misses count lookups over the cache's life. A hit serves
	// the query with zero planning round trips and zero DDLs.
	Hits, Misses int64
	// Evictions counts entries dropped by capacity pressure or TTL
	// expiry; Invalidations counts entries dropped because the catalog
	// no longer held what they were planned from, by a breaker
	// transition, or by an execution failure.
	Evictions, Invalidations int64
}

// planEntry is one cached delegation: the plan, its live deployment, and
// the lease bookkeeping. All fields past the identity are guarded by the
// owning cache's mutex.
type planEntry struct {
	key  string
	plan *planner.Plan
	dep  *Deployment
	// nodes is every DBMS the deployment placed objects on — the
	// invalidation fan-in for breaker transitions.
	nodes map[string]bool

	refs     int  // leases held by executing queries
	dead     bool // invalidated/evicted; drop the deployment once idle
	dropped  bool // the drop has been claimed (exactly-once)
	lastUsed time.Time
}

// planCache memoizes delegation plans and their live deployments across
// queries. Safe for concurrent use. The cache only does bookkeeping — the
// System owns the actual DDL drops for entries the cache hands back.
type planCache struct {
	size int
	ttl  time.Duration

	mu      sync.Mutex
	entries map[string]*planEntry

	hits, misses, evictions, invalidations int64
}

// newPlanCache returns the cache, or nil (disabled) when size <= 0. A
// non-positive ttl falls back to DefaultDeploymentTTL.
func newPlanCache(size int, ttl time.Duration) *planCache {
	if size <= 0 {
		return nil
	}
	if ttl <= 0 {
		ttl = DefaultDeploymentTTL
	}
	return &planCache{size: size, ttl: ttl, entries: map[string]*planEntry{}}
}

// acquire looks the key up and, on a hit, takes a lease on the entry —
// the caller must pair it with release. Dead entries are unreachable:
// invalidation removes them from the map immediately. An entry whose plan
// the catalog no longer holds (Catalog.Holds) is invalidated instead and
// the lookup misses; stale is that entry when its deployment is idle, for
// the caller to drop.
func (c *planCache) acquire(key string, catalog *planner.Catalog) (hit, stale *planEntry) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[key]
	if ok && !catalog.Holds(ent.plan.Scans) {
		if c.invalidateLocked(ent) {
			stale = ent
		}
		ok = false
	}
	if !ok {
		c.misses++
		met.planMisses.Inc()
		return nil, stale
	}
	ent.refs++
	ent.lastUsed = time.Now()
	c.hits++
	return ent, nil
}

// put caches a freshly deployed plan under a lease held by the caller. It
// returns the new entry (nil when the deployment could not be cached: the
// key raced in concurrently, or the cache is full of busy entries — the
// caller then cleans its deployment up per-query as usual) plus any
// entries evicted for capacity, whose deployments the caller must drop.
func (c *planCache) put(key string, plan *planner.Plan, dep *Deployment) (*planEntry, []*planEntry) {
	if c == nil {
		return nil, nil
	}
	nodes := map[string]bool{}
	for _, t := range plan.Tasks {
		nodes[t.Node] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return nil, nil // a concurrent identical query won the insert
	}
	var evicted []*planEntry
	for len(c.entries) >= c.size {
		victim := c.oldestIdleLocked()
		if victim == nil {
			return nil, evicted // every entry is leased: nothing to evict
		}
		delete(c.entries, victim.key)
		victim.dead, victim.dropped = true, true
		c.evictions++
		met.planEvictions.Inc()
		evicted = append(evicted, victim)
	}
	ent := &planEntry{
		key: key, plan: plan, dep: dep, nodes: nodes,
		refs: 1, lastUsed: time.Now(),
	}
	c.entries[key] = ent
	return ent, evicted
}

// oldestIdleLocked returns the least-recently-used entry with no live
// lease, or nil when every entry is busy. Caller holds c.mu.
func (c *planCache) oldestIdleLocked() *planEntry {
	var victim *planEntry
	for _, ent := range c.entries {
		if ent.refs > 0 {
			continue
		}
		if victim == nil || ent.lastUsed.Before(victim.lastUsed) {
			victim = ent
		}
	}
	return victim
}

// release returns a lease. poison marks the entry dead first — its
// execution failed — so no later query acquires it. It reports whether the caller must drop the entry's
// deployment: true only when the entry is dead (poisoned now, or
// invalidated while it executed) and this was the last lease out.
func (c *planCache) release(ent *planEntry, poison bool) (drop bool) {
	if c == nil || ent == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if poison && c.entries[ent.key] == ent {
		c.invalidateLocked(ent) // still leased: the drop is claimed below
	}
	ent.refs--
	ent.lastUsed = time.Now()
	return c.claimDropLocked(ent)
}

// invalidateLocked removes a live entry from the cache and marks it dead,
// reporting whether the caller must drop its deployment now: true when no
// lease is out, else the last release drops it. Caller holds c.mu.
func (c *planCache) invalidateLocked(ent *planEntry) bool {
	delete(c.entries, ent.key)
	ent.dead = true
	c.invalidations++
	met.planEvictions.Inc()
	return c.claimDropLocked(ent)
}

// claimDropLocked claims the exactly-once drop of a dead, idle entry.
// Caller holds c.mu.
func (c *planCache) claimDropLocked(ent *planEntry) bool {
	if ent.dead && ent.refs <= 0 && !ent.dropped {
		ent.dropped = true
		return true
	}
	return false
}

// invalidateNode drops every cached plan deployed on the node, returning
// the entries whose deployments the caller must drop now. Entries still
// leased by executing queries are only marked dead — the last release
// drops them — so a running cascade never loses its views mid-flight.
func (c *planCache) invalidateNode(node string) []*planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var drops []*planEntry
	for _, ent := range c.entries {
		if ent.nodes[node] && c.invalidateLocked(ent) {
			drops = append(drops, ent)
		}
	}
	return drops
}

// invalidateAll empties the cache (shutdown), returning the idle entries
// to drop; busy entries drop on their final release.
func (c *planCache) invalidateAll() []*planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var drops []*planEntry
	for _, ent := range c.entries {
		if c.invalidateLocked(ent) {
			drops = append(drops, ent)
		}
	}
	return drops
}

// expire removes entries idle past the TTL (the janitor's sweep),
// returning them for the caller to drop. Leased entries never expire —
// lastUsed refreshes on acquire and release.
func (c *planCache) expire(now time.Time) []*planEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var drops []*planEntry
	for key, ent := range c.entries {
		if ent.refs > 0 || now.Sub(ent.lastUsed) < c.ttl {
			continue
		}
		delete(c.entries, key)
		ent.dead, ent.dropped = true, true
		c.evictions++
		met.planEvictions.Inc()
		drops = append(drops, ent)
	}
	return drops
}

// occupancy returns the current entry count.
func (c *planCache) occupancy() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// activeLeases returns the leases currently held across all entries.
func (c *planCache) activeLeases() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ent := range c.entries {
		n += ent.refs
	}
	return n
}

// stats snapshots the cache counters.
func (c *planCache) stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	leases := 0
	for _, ent := range c.entries {
		leases += ent.refs
	}
	return PlanCacheStats{
		Entries:       len(c.entries),
		ActiveLeases:  leases,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}
