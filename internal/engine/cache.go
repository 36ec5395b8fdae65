package engine

import (
	"container/list"
	"strconv"
	"sync"

	"repro/internal/journal"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// DefaultMaxEntries bounds the cache when no explicit entry bound is
// configured: one entry per distinct circuit structure. A flow run
// touches two structures (the scan circuit and its combinational
// model); the bound only matters to long-lived processes churning
// through many circuits.
const DefaultMaxEntries = 64

// CacheStats is a point-in-time snapshot of a cache's occupancy and
// lifetime probe outcomes, as reported by Stats.
type CacheStats struct {
	Entries    int   // resident circuit structures
	Bytes      int64 // accounted resident bytes across all entries
	Budget     int64 // configured byte budget (0 = unbounded)
	MaxEntries int   // configured entry bound
	Hits       int64 // probes served from cache
	Misses     int64 // probes that built a fresh entry
	Evictions  int64 // entries discarded under budget/entry pressure
}

// Cache memoizes derived artifacts per circuit structure, with
// least-recently-used eviction under two independent bounds: a count
// bound (DefaultMaxEntries) and an optional byte
// budget (SetBudget). The zero value is not usable; construct with New
// (or use the process-wide Default). All methods are safe for
// concurrent use.
//
// Because artifacts materialize lazily after insertion (each under its
// own sync.Once), an entry's footprint grows over its lifetime; the
// cache resynchronizes its per-entry byte accounting at every probe
// and evicts from the LRU tail until back under both bounds. Eviction
// therefore happens at probe boundaries, not at materialization time —
// between probes the cache can transiently exceed its budget by the
// artifacts materialized since the last probe. The entry being served
// is never the eviction victim, and evicted Artifacts values remain
// fully usable by callers already holding them (they are immutable and
// self-contained); eviction only drops the cache's reference.
type Cache struct {
	mu         sync.Mutex
	entries    map[uint64]*list.Element // value: *cacheEntry
	lru        *list.List               // front = most recently used
	accounted  int64                    // sum of entry accounted bytes
	budget     int64                    // bytes; <= 0 = unbounded
	maxEntries int
	bypass     bool

	hits, misses, evictions int64
}

// cacheEntry is one resident structure: the artifacts plus the byte
// count the cache last accounted for them (resynced from the artifacts'
// live size at every probe).
type cacheEntry struct {
	hash      uint64
	arts      *Artifacts
	accounted int64
}

// New returns an empty artifact cache with the default entry bound and
// no byte budget.
func New() *Cache {
	return &Cache{
		entries:    make(map[uint64]*list.Element),
		lru:        list.New(),
		maxEntries: DefaultMaxEntries,
	}
}

// Bypass returns a cache that never memoizes: every For call hands back
// a fresh Artifacts value, so each phase rebuilds its derived
// structures from scratch. This is the cold-rebuild reference the
// determinism tests and the cache-on/off benchmarks compare against.
func Bypass() *Cache {
	ca := New()
	ca.bypass = true
	return ca
}

var defaultCache = New()

// Default returns the process-wide shared cache, used whenever a caller
// does not supply an explicit one.
func Default() *Cache { return defaultCache }

// Resolve maps a possibly-nil cache to a usable one (nil selects
// Default), letting option structs treat "no cache configured" as
// "share the process-wide cache".
func Resolve(c *Cache) *Cache {
	if c == nil {
		return Default()
	}
	return c
}

// SetBudget sets the cache's byte budget: after each probe, entries are
// evicted least-recently-used-first until the accounted total is at or
// under the budget. budget <= 0 means unbounded bytes (the entry bound
// still applies). Lowering the budget takes effect at the next probe.
func (ca *Cache) SetBudget(budget int64) {
	ca.mu.Lock()
	ca.budget = budget
	ca.mu.Unlock()
}

// Stats returns a snapshot of the cache's occupancy and lifetime
// counters, with byte accounting resynchronized against the live
// artifact sizes first.
func (ca *Cache) Stats() CacheStats {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.resyncLocked()
	return CacheStats{
		Entries:    len(ca.entries),
		Bytes:      ca.accounted,
		Budget:     ca.budget,
		MaxEntries: ca.maxEntries,
		Hits:       ca.hits,
		Misses:     ca.misses,
		Evictions:  ca.evictions,
	}
}

// For returns the artifact set for circuit c, creating it on first use.
// The entry is keyed by c's structural hash; if a previously cached
// circuit with the same hash has since been mutated (its current hash
// no longer matches the key it was stored under), the stale entry is
// replaced rather than served.
func (ca *Cache) For(c *netlist.Circuit) *Artifacts {
	a, _ := ca.lookup(c)
	return a
}

// ForObs is For plus probe observability. Every probe increments
// engine.cache.probes and is mirrored as a cache event into col's
// journal when a flight recorder is attached; engine.cache.hits /
// engine.cache.misses count each distinct structure once per collector
// (first probe decides), so a single job's repeated probes of its own
// working set cannot inflate the hit rate. With col == nil it is
// exactly For.
func (ca *Cache) ForObs(c *netlist.Circuit, col *obs.Collector) *Artifacts {
	a, hit := ca.lookup(c)
	if col.Enabled() {
		col.Counter("engine.cache.probes").Inc()
		if col.MarkOnce("engine.cache.seen:" + strconv.FormatUint(a.hash, 16)) {
			if hit {
				col.Counter("engine.cache.hits").Inc()
			} else {
				col.Counter("engine.cache.misses").Inc()
			}
		}
		col.Journal().Emit(journal.Cache("artifacts", hit))
	}
	return a
}

// lookup resolves c's artifact entry and reports whether it was served
// from cache (bypass caches always rebuild, so they always miss).
func (ca *Cache) lookup(c *netlist.Circuit) (*Artifacts, bool) {
	if ca.bypass {
		return newArtifacts(c), false
	}
	h := c.StructuralHash()
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if el, ok := ca.entries[h]; ok {
		e := el.Value.(*cacheEntry)
		if e.arts.c == c || e.arts.c.StructuralHash() == h {
			ca.lru.MoveToFront(el)
			ca.hits++
			ca.resyncLocked()
			ca.evictLocked(e)
			return e.arts, true
		}
		// The cached circuit mutated after being cached; its artifacts
		// no longer describe the structure hashed under this key.
		ca.removeLocked(el)
	}
	a := newArtifacts(c)
	e := &cacheEntry{hash: h, arts: a, accounted: a.SizeBytes()}
	ca.entries[h] = ca.lru.PushFront(e)
	ca.accounted += e.accounted
	ca.misses++
	ca.resyncLocked()
	ca.evictLocked(e)
	return a, false
}

// resyncLocked pulls each entry's live artifact size into the cache's
// byte accounting. Artifacts grow after insertion (lazy
// materialization), so accounted sizes drift between probes; this walk
// is O(entries), which probes — per-job-phase events — absorb easily.
func (ca *Cache) resyncLocked() {
	for el := ca.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if cur := e.arts.SizeBytes(); cur != e.accounted {
			ca.accounted += cur - e.accounted
			e.accounted = cur
		}
	}
}

// evictLocked discards LRU-tail entries until the cache is within both
// its bounds, never evicting keep (the entry being served): a budget
// smaller than one working set degrades to caching just that set, not
// to thrashing it.
func (ca *Cache) evictLocked(keep *cacheEntry) {
	for len(ca.entries) > ca.maxEntries || (ca.budget > 0 && ca.accounted > ca.budget) {
		el := ca.lru.Back()
		if el == nil || el.Value.(*cacheEntry) == keep {
			return
		}
		ca.removeLocked(el)
		ca.evictions++
	}
}

// removeLocked drops one entry from the map, the LRU list and the byte
// accounting.
func (ca *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	ca.lru.Remove(el)
	delete(ca.entries, e.hash)
	ca.accounted -= e.accounted
}

// Len reports the number of cached circuit entries (for tests).
func (ca *Cache) Len() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return len(ca.entries)
}
