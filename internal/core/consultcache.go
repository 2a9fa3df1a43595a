package core

import (
	"math"
	"sync"
	"time"

	"xdb/internal/engine"
)

// The cross-query consult cache. The annotation phase prices every
// cross-database operator by consulting the underlying DBMSes (Eq. 1),
// and those round trips dominate the optimizer's cost (Fig. 15). Two
// queries over the same tables ask the engines nearly identical
// questions, so the middleware memoizes the answers across queries: a
// join's five prices at a node (engine.JoinPrices), keyed by (node,
// bucketed left, right and output cardinalities). Bucketing to three
// significant digits folds near-identical estimates onto one entry without
// letting materially different operators collide.
//
// Freshness rules (stale costs must not outlive the state they priced):
//
//   - every entry ages out after Options.ConsultCacheTTL;
//   - a breaker state transition on a node drops that node's entries —
//     costs consulted before an outage say nothing about the node after
//     it (and nothing during it);
//   - a change of a node's calibration factor drops that node's entries —
//     they are priced in the old units.
//
// Table statistics need no rule: the engine prices a join from the
// cardinalities in the key and its vendor profile alone, so a table
// change can only change which key is asked.
//
// A nil *consultCache (Options.ConsultCacheTTL == 0, the paper
// configuration) is a valid no-op receiver for every method, so the
// disabled path costs nothing and records no cache metrics.

// consultKey identifies one memoizable consultation.
type consultKey struct {
	node             string
	left, right, out float64
}

type consultEntry struct {
	prices  engine.JoinPrices
	expires time.Time
}

// ConsultCacheStats is a point-in-time snapshot of the consult cache
// (System.Stats().ConsultCache).
type ConsultCacheStats struct {
	// Entries is the current occupancy (0 when the cache is disabled).
	Entries int
	// Hits and Misses count lookups over the cache's life; Evictions
	// counts entries dropped by TTL expiry or invalidation (breaker
	// transitions, calibration changes).
	Hits, Misses, Evictions int64
}

// consultCache memoizes consultation probe results across queries. Safe
// for concurrent use.
type consultCache struct {
	ttl time.Duration

	mu                      sync.Mutex
	entries                 map[consultKey]consultEntry
	hits, misses, evictions int64
}

// newConsultCache returns the cache, or nil (disabled) when ttl <= 0.
func newConsultCache(ttl time.Duration) *consultCache {
	if ttl <= 0 {
		return nil
	}
	return &consultCache{ttl: ttl, entries: map[consultKey]consultEntry{}}
}

// bucketCard quantizes a cardinality to three significant digits, so
// near-identical estimates share a cache entry while materially different
// operators stay apart.
func bucketCard(x float64) float64 {
	if x <= 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return 0
	}
	scale := math.Pow(10, math.Floor(math.Log10(x))-2)
	return math.Round(x/scale) * scale
}

func (c *consultCache) key(node string, left, right, out float64) consultKey {
	return consultKey{node: node, left: bucketCard(left), right: bucketCard(right), out: bucketCard(out)}
}

// cacheable rejects non-finite cardinalities. bucketCard folds NaN/Inf
// onto the 0 bucket, where a poisoned estimate would collide with a
// legitimate zero-cardinality probe and serve it a wrong cached cost —
// such probes bypass the cache entirely: never keyed, never stored, and
// never counted as a hit or miss.
func cacheable(left, right, out float64) bool {
	finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
	return finite(left) && finite(right) && finite(out)
}

// lookup returns the cached prices for the probe, expiring the entry (and
// counting an eviction) when its TTL has passed.
func (c *consultCache) lookup(node string, left, right, out float64) (engine.JoinPrices, bool) {
	if c == nil || !cacheable(left, right, out) {
		return engine.JoinPrices{}, false
	}
	k := c.key(node, left, right, out)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if ok && time.Now().After(e.expires) {
		delete(c.entries, k)
		c.evictions++
		met.cacheEvictions.Inc()
		ok = false
	}
	if !ok {
		c.misses++
		met.cacheMisses.Inc()
		return engine.JoinPrices{}, false
	}
	c.hits++
	return e.prices, true
}

// store memoizes one successful probe's prices. Failed probes are never
// cached — a degraded estimate must not outlive the failure that caused
// it.
func (c *consultCache) store(node string, left, right, out float64, prices engine.JoinPrices) {
	if c == nil || !cacheable(left, right, out) {
		return
	}
	k := c.key(node, left, right, out)
	c.mu.Lock()
	c.entries[k] = consultEntry{prices: prices, expires: time.Now().Add(c.ttl)}
	c.mu.Unlock()
}

// invalidateNode drops every entry consulted at the node, returning how
// many were evicted.
func (c *consultCache) invalidateNode(node string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	n := 0
	for k := range c.entries {
		if k.node == node {
			delete(c.entries, k)
			n++
		}
	}
	c.evictions += int64(n)
	c.mu.Unlock()
	met.cacheEvictions.Add(int64(n))
	return n
}

// occupancy returns the current entry count.
func (c *consultCache) occupancy() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// stats snapshots the cache counters.
func (c *consultCache) stats() ConsultCacheStats {
	if c == nil {
		return ConsultCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return ConsultCacheStats{
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
