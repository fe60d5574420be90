package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
)

// cacheShards fixes the shard count; keys are spread by FNV-1a so
// concurrent sweeps over disjoint methods rarely contend on one lock.
const cacheShards = 16

// DefaultCacheCapacity holds a full Chapter-7 sweep: ~1,600 methods × 6
// configurations, with headroom for ad-hoc requests.
const DefaultCacheCapacity = 12288

// cacheKey identifies one deployment: the method signature and the fabric
// geometry it was deployed on. Keying by geometry instead of configuration
// name lets every configuration sharing a fabric pattern — Compact10,
// Compact4 and Compact2 differ only in serial clocking — share one cached
// placement (ROADMAP "cross-config deployment sharing").
type cacheKey struct {
	Signature string
	Geometry  string
}

// cacheEntry memoizes the full deploy outcome. Failures (LoadError for
// switch/jsr methods, resolution errors) are cached too: a population sweep
// re-encounters the same rejected methods on every configuration, and
// re-verifying them per run would defeat the cache for exactly the methods
// that are most expensive to reject. fab records the fabric the deploy ran
// against so failed entries (res == nil) can still be geometry-checked.
type cacheEntry struct {
	res *fabric.Resolution
	err error
	fab *fabric.Fabric
}

// cacheShard is one LRU segment.
type cacheShard struct {
	mu    sync.Mutex
	order *list.List // front = most recently used; values are *cacheItem
	items map[cacheKey]*list.Element
}

type cacheItem struct {
	key   cacheKey
	entry cacheEntry
}

// DeploymentCache is a sharded LRU of verified, loaded, address-resolved
// methods keyed by (method signature, fabric geometry). A hit skips the
// whole Figure 20 + Figure 22 pipeline; the cached Resolution is immutable
// and shared freely across concurrent executions. Although the geometry
// key already encodes structure, each hit is still guarded by a structural
// fabric comparison — a key collision across different geometries degrades
// to a miss instead of returning a wrong placement.
//
// Deployments live only here, for the life of the process: a miss runs
// the pipeline, which costs less than reading a stored deployment back
// would, and a restarted process recomputes what it needs.
type DeploymentCache struct {
	shards   [cacheShards]cacheShard
	perShard int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewDeploymentCache builds a cache bounded at capacity entries (0 uses
// DefaultCacheCapacity). The bound is split evenly across shards.
func NewDeploymentCache(capacity int) *DeploymentCache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	perShard := (capacity + cacheShards - 1) / cacheShards
	c := &DeploymentCache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].order = list.New()
		c.shards[i].items = make(map[cacheKey]*list.Element)
	}
	return c
}

// shardFor spreads keys across shards with FNV-1a over both key fields.
func (c *DeploymentCache) shardFor(k cacheKey) *cacheShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.Signature); i++ {
		h ^= uint64(k.Signature[i])
		h *= prime64
	}
	h ^= 0xff
	h *= prime64
	for i := 0; i < len(k.Geometry); i++ {
		h ^= uint64(k.Geometry[i])
		h *= prime64
	}
	return &c.shards[h%cacheShards]
}

// sameFabric reports whether a cached placement's fabric is structurally
// identical to the requesting configuration's (width, collapse, pattern).
func sameFabric(a, b *fabric.Fabric) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Width != b.Width || a.Collapsed != b.Collapsed || len(a.Pattern) != len(b.Pattern) {
		return false
	}
	for i := range a.Pattern {
		if a.Pattern[i] != b.Pattern[i] {
			return false
		}
	}
	return true
}

// ResolveMethod returns the deployment of m under cfg, computing and
// memoizing it on first use. It plugs directly into sim.Runner.Resolve.
func (c *DeploymentCache) ResolveMethod(cfg sim.Config, m *classfile.Method) (*fabric.Resolution, error) {
	key := cacheKey{Signature: m.Signature(), Geometry: cfg.Fabric.GeometryKey()}
	shard := c.shardFor(key)

	shard.mu.Lock()
	if el, ok := shard.items[key]; ok {
		it := el.Value.(*cacheItem)
		if sameFabric(it.entry.fab, cfg.Fabric) {
			shard.order.MoveToFront(el)
			entry := it.entry
			shard.mu.Unlock()
			c.hits.Add(1)
			return entry.res, entry.err
		}
		// Same key, different geometry (hash collision): drop the stale
		// entry.
		shard.order.Remove(el)
		delete(shard.items, key)
	}
	shard.mu.Unlock()
	c.misses.Add(1)

	// Deploy outside the shard lock: resolution is pure, so concurrent
	// duplicate work is wasted effort at worst, never a correctness issue.
	res, err := sim.DeployMethod(cfg, m)
	entry := c.insert(shard, key, cacheEntry{res: res, err: err, fab: cfg.Fabric})
	return entry.res, entry.err
}

// insert memoizes entry under key, keeping a racing goroutine's entry if
// one landed first and evicting past the per-shard bound. It returns the
// entry that ended up cached.
func (c *DeploymentCache) insert(shard *cacheShard, key cacheKey, entry cacheEntry) cacheEntry {
	shard.mu.Lock()
	defer shard.mu.Unlock()
	if el, ok := shard.items[key]; ok {
		// Another goroutine won the race; keep its entry.
		shard.order.MoveToFront(el)
		return el.Value.(*cacheItem).entry
	}
	shard.items[key] = shard.order.PushFront(&cacheItem{key: key, entry: entry})
	for shard.order.Len() > c.perShard {
		oldest := shard.order.Back()
		shard.order.Remove(oldest)
		delete(shard.items, oldest.Value.(*cacheItem).key)
		c.evictions.Add(1)
	}
	return entry
}

// Len returns the live entry count across all shards.
func (c *DeploymentCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].order.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      int64 `json:"hits" prom:"javaflow_cache_hits_total,counter" help:"Deployment-cache hits."`
	Misses    int64 `json:"misses" prom:"javaflow_cache_misses_total,counter" help:"Deployment-cache misses."`
	Evictions int64 `json:"evictions" prom:"javaflow_cache_evictions_total,counter" help:"Deployment-cache evictions."`
	Entries   int   `json:"entries" prom:"javaflow_cache_entries,gauge" help:"Deployments currently cached."`
}

// Stats snapshots the cache counters.
func (c *DeploymentCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}
