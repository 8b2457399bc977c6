package core

import (
	"math/rand"

	"streamkm/internal/basen"
	"streamkm/internal/coreset"
	"streamkm/internal/coretree"
	"streamkm/internal/geom"
)

// CCStats counts how queries against a CC structure were resolved. The
// three outcomes correspond to the branches of Algorithm 3: an exact cache
// hit for the current N, a hit on the major prefix (the fast path the
// caching design exists for), or a full fall back to the coreset tree.
type CCStats struct {
	ExactHits int64 // coreset for [1, N] already cached
	MajorHits int64 // coreset for [1, major(N)] cached, or the tree's bucket when major(N) = r^α; merged with <= r-1 tree buckets
	Fallbacks int64 // cache useless; merged all active tree buckets (CT behaviour)
}

// Queries returns the total number of coreset queries answered.
func (s CCStats) Queries() int64 { return s.ExactHits + s.MajorHits + s.Fallbacks }

// CC is the Cached Coreset Tree (Algorithm 3): a coreset tree plus a
// coreset cache. Updates are identical to CT. At query time, instead of
// merging up to (r-1)·log_r N buckets across all tree levels, CC merges the
// cached coreset for span [1, major(N,r)] with the at most r-1 tree buckets
// covering (major(N,r), N] — no more than r buckets in total — and caches
// the result for future queries.
//
// If the needed prefix is not cached (queries are infrequent), CC falls
// back to exactly CT's query path, so it is never worse than CT.
//
// PrefixView keeps the cache ahead of queries instead: it caches every
// key of prefixsum(N) (Lemma 4's precondition) with one reduce of at most
// r·m points per new key, and returns the coreset for [1, major(N)] plus
// the tree buckets covering (major(N), N] without reducing them. Serving
// lanes publish that view at the end of each ingest batch, so queries
// union views and never reduce.
type CC struct {
	tree    *coretree.Tree
	cache   *coresetCache
	r       int
	m       int
	builder coreset.Builder
	rng     *rand.Rand
	stats   CCStats
}

// NewCC returns an empty cached coreset tree with merge degree r and
// coreset size m.
func NewCC(r, m int, b coreset.Builder, rng *rand.Rand) *CC {
	return &CC{
		tree:    coretree.New(r, m, b, rng),
		cache:   newCoresetCache(),
		r:       r,
		m:       m,
		builder: b,
		rng:     rng,
	}
}

// Update implements Structure (CC-Update): identical to CT's update; the
// cache is maintained at query time, or ahead of it by PrefixView.
func (c *CC) Update(bucket []geom.Weighted) { c.tree.Update(bucket) }

// Coreset implements Structure (CC-Coreset). The returned slice must not be
// mutated by the caller: it aliases cached storage.
func (c *CC) Coreset() []geom.Weighted { return c.CoresetBucket().Points }

// CoresetBucket runs Algorithm 3's query path and returns the resulting
// bucket, exposing the coreset level for diagnostics (Lemma 5 bounds it by
// ceil(2·log_r N) - 1 when queries arrive every bucket).
func (c *CC) CoresetBucket() coretree.Bucket {
	n := c.tree.N()
	if n == 0 {
		return coretree.Bucket{}
	}
	// Exact hit: the coreset for [1, N] is already cached.
	if b, ok := c.cache.get(n); ok {
		c.stats.ExactHits++
		return b
	}

	var parts []coretree.Bucket
	major := basen.Major(n, c.r)
	if b1, ok := c.prefix(major); major > 0 && ok {
		// Fast path: cached [1, major] plus the beta <= r-1 tree buckets at
		// the minor term's level, which span exactly (major, N].
		c.stats.MajorHits++
		mt, _ := basen.MinorTerm(n, c.r)
		parts = append(parts, b1)
		parts = append(parts, c.tree.BucketsAtLevel(mt.Alpha)...)
	} else {
		// Cache miss: fall back to CT's full union.
		c.stats.Fallbacks++
		parts = c.tree.ActiveBuckets()
	}

	merged := coretree.MergeBuckets(c.builder, c.rng, c.m, parts...)
	merged.Start, merged.End = 1, n
	c.cache.put(n, merged)
	c.cache.evictTo(n, c.r)
	return merged
}

// prefix returns a coreset for base buckets [1, key], where key > 0 is a
// member of prefixsum(N): the cached one if there is one, else, when key
// is 1·r^α, the tree's own bucket at level α. N's top digit is then 1 at
// position α, so that bucket is the only one there and spans [1, key].
func (c *CC) prefix(key int) (coretree.Bucket, bool) {
	if b, ok := c.cache.get(key); ok {
		return b, true
	}
	if mt, _ := basen.MinorTerm(key, c.r); mt.Value == key && mt.Beta == 1 {
		if bs := c.tree.BucketsAtLevel(mt.Alpha); len(bs) == 1 {
			return bs[0], true
		}
	}
	return coretree.Bucket{}, false
}

// PrefixView makes sure the coreset for every key of prefixsum(N) is
// available and returns the coreset for [1, major(N)] (absent when N has
// a single non-zero digit) followed by the tree buckets at N's minor
// level, which span (major(N), N]. The parts are not reduced together: a
// union of coresets is a coreset of the union (Observation 1).
//
// Keys are built smallest first, each K from [1, major(K)] and the β <=
// r-1 tree buckets at K's minor level — the buckets the tree at N holds
// there, since N and K agree on that digit. That is Algorithm 3's fast
// path at exactly the keys Lemma 4 needs, so a key costs one reduce of at
// most r·m points, and only when it is new. A key 1·r^α is the tree's own
// bucket and is not cached. The cache is then evicted to prefixsum(N) ∪
// {N}, as after a query. Stats are not touched. The returned buckets
// alias cached and tree storage; callers must not mutate them.
func (c *CC) PrefixView() []coretree.Bucket {
	n := c.tree.N()
	if n == 0 {
		return nil
	}
	terms := basen.Terms(n, c.r)
	var head coretree.Bucket // coreset for [1, key]
	key := 0
	for i := len(terms) - 1; i > 0; i-- {
		t := terms[i]
		b, ok := c.prefix(key + t.Value)
		if !ok {
			parts := make([]coretree.Bucket, 0, t.Beta+1)
			if key > 0 {
				parts = append(parts, head)
			}
			parts = append(parts, c.tree.BucketsAtLevel(t.Alpha)...)
			b = coretree.MergeBuckets(c.builder, c.rng, c.m, parts...)
			c.cache.put(key+t.Value, b)
		}
		head, key = b, key+t.Value
	}
	c.cache.evictTo(n, c.r)
	minor := c.tree.BucketsAtLevel(terms[0].Alpha)
	view := make([]coretree.Bucket, 0, len(minor)+1)
	if key > 0 {
		view = append(view, head)
	}
	return append(view, minor...)
}

// PointsStored implements Structure: tree plus cache contents.
func (c *CC) PointsStored() int { return c.tree.PointsStored() + c.cache.pointsStored() }

// Name implements Structure.
func (c *CC) Name() string { return "CC" }

// ScaleWeights multiplies every stored weight — tree and cache — by factor
// (forward-decay epoch support).
func (c *CC) ScaleWeights(factor float64) {
	c.tree.ScaleWeights(factor)
	for _, key := range c.cache.keys() {
		b, _ := c.cache.get(key)
		for i := range b.Points {
			b.Points[i].W *= factor
		}
	}
}

// Stats returns a snapshot of the query-resolution counters.
func (c *CC) Stats() CCStats { return c.stats }

// Tree exposes the underlying coreset tree (tests, persistence).
func (c *CC) Tree() *coretree.Tree { return c.tree }

// CacheKeys returns the currently cached span endpoints in ascending order
// (test hook for Lemma 4 / the eviction rule).
func (c *CC) CacheKeys() []int { return c.cache.keys() }

// CachedBucket returns the cached coreset for [1, key], if any (test
// hook; the bucket aliases cached storage).
func (c *CC) CachedBucket(key int) (coretree.Bucket, bool) { return c.cache.get(key) }
