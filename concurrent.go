package streamkm

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"streamkm/internal/geom"
	"streamkm/internal/parallel"
	"streamkm/internal/persist"
)

// Concurrent is a thread-safe streaming clusterer built for serving
// traffic: many producer goroutines ingest concurrently while any number
// of goroutines query Centers, with neither side serializing the other.
//
// Ingest is sharded P ways (the paper's Section 6 open question on
// parallel streams, resolved by the coreset union property: the union of
// per-shard coresets is a coreset of the union of the substreams). Each
// shard is independently locked, so producers pinned to distinct shards
// never contend; AddBatch amortizes one lock acquisition over a whole
// batch, and ends it by warming the shard: a CC or RCC shard that
// completed a bucket runs its coreset query there, so a recomputation
// finds every shard's coreset cached instead of reducing on the query
// path. Shards copy the coordinates they keep into storage they own, so
// callers may reuse their point slices once an add returns.
//
// Queries take the cached-centers fast path: the centers computed by the
// previous query are reused until the stream has grown by more than a
// factor Alpha since they were computed — the same cost-staleness idea
// OnlineCC (Algorithm 7) uses to answer most queries in O(1). A stale
// cache triggers exactly one recomputation (single-flight); concurrent
// queries keep being served the previous centers meanwhile, so query
// latency stays flat under heavy read traffic.
type Concurrent struct {
	inner *parallel.Sharded
	k     int
	alpha float64
	algo  Algo
	dim   int // dimension recorded in the snapshot this was restored from; 0 otherwise

	cache atomic.Pointer[centersSnapshot]

	refreshMu sync.Mutex // single-flight guard for recomputation

	hits, misses atomic.Int64
}

// centersSnapshot is one immutable cache entry: the centers computed by a
// query and the stream count at the moment the computation started.
type centersSnapshot struct {
	centers []Point
	count   int64
}

// NewConcurrent creates a thread-safe clusterer with p ingest shards.
// algo selects the per-shard summary structure (AlgoCT, AlgoCC or
// AlgoRCC; the other algorithms have no coreset to union and are
// rejected). cfg is interpreted as for New, with one addition: Alpha (>1,
// default 1.2) is the cached-centers staleness threshold — queries
// recompute only once the stream has grown past Alpha times the count at
// the previous computation.
func NewConcurrent(algo Algo, p int, cfg Config) (*Concurrent, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	switch algo {
	case AlgoCT, AlgoCC, AlgoRCC:
	default:
		return nil, fmt.Errorf("streamkm: Concurrent supports CT, CC and RCC, not %q", algo)
	}
	inner, err := newShardedInner(p, algo, cfg)
	if err != nil {
		return nil, err
	}
	return &Concurrent{inner: inner, k: cfg.K, alpha: cfg.Alpha, algo: algo}, nil
}

// MustNewConcurrent is NewConcurrent that panics on configuration errors.
func MustNewConcurrent(algo Algo, p int, cfg Config) *Concurrent {
	c, err := NewConcurrent(algo, p, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Add observes one point, routing it round-robin across shards. Safe for
// concurrent use; producers that can pin a shard should prefer AddTo.
func (c *Concurrent) Add(p Point) {
	c.inner.Add(geom.Point(p))
}

// AddWeighted observes one weighted point, routed round-robin.
func (c *Concurrent) AddWeighted(p Point, w float64) {
	c.inner.AddWeighted(geom.Weighted{P: geom.Point(p), W: w})
}

// AddTo feeds one point to a specific shard (0 <= shard < NumShards).
// One producer goroutine per shard is the contention-free discipline.
func (c *Concurrent) AddTo(shard int, p Point) {
	c.inner.AddTo(shard, geom.Point(p))
}

// AddBatch observes a batch of points under a single shard lock
// acquisition — the preferred ingest path for networked producers.
// Successive batches rotate round-robin across shards.
func (c *Concurrent) AddBatch(pts []Point) {
	if len(pts) == 0 {
		return
	}
	wps := make([]geom.Weighted, len(pts))
	for i, p := range pts {
		wps[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	c.inner.AddBatchTo(c.inner.NextShard(), wps)
}

// Centers returns k cluster centers for everything observed so far. Safe
// for concurrent use with all ingest methods. If centers computed by an
// earlier query are still fresh (stream grown by at most a factor Alpha
// since), they are returned without touching the shards; otherwise one
// caller recomputes while any concurrent queries continue to be served
// the previous centers. The returned slices are copies owned by the
// caller.
func (c *Concurrent) Centers() []Point {
	n := c.inner.Count()
	if snap := c.cache.Load(); snap != nil && fresh(n, snap.count, c.alpha) {
		c.hits.Add(1)
		return clonePoints(snap.centers)
	}
	c.misses.Add(1)
	return c.recompute()
}

// Refresh recomputes the centers unconditionally, replaces the cache, and
// returns them. Use it when an up-to-the-last-point answer matters more
// than latency.
func (c *Concurrent) Refresh() []Point {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	return clonePoints(c.refreshLocked())
}

// recompute is the single-flight slow path: the first goroutine to find
// the cache stale recomputes; goroutines that queue behind it re-check on
// wake and reuse its result instead of recomputing again.
func (c *Concurrent) recompute() []Point {
	n := c.inner.Count()
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	if snap := c.cache.Load(); snap != nil && fresh(n, snap.count, c.alpha) {
		return clonePoints(snap.centers)
	}
	return clonePoints(c.refreshLocked())
}

// refreshLocked unions the shard coresets, runs k-means++, and installs
// the new cache entry. Caller holds refreshMu. The count is read before
// the union so points racing in during the computation conservatively
// age the new entry rather than extending its life.
func (c *Concurrent) refreshLocked() []Point {
	count := c.inner.Count()
	cs := c.inner.Centers()
	centers := make([]Point, len(cs))
	for i, p := range cs {
		centers[i] = []float64(p)
	}
	c.cache.Store(&centersSnapshot{centers: centers, count: count})
	return centers
}

// fresh reports whether a cache entry computed at count `cached` still
// answers a query arriving at count `now` under staleness threshold
// alpha. An entry computed on an empty stream is only fresh while the
// stream is still empty.
func fresh(now, cached int64, alpha float64) bool {
	if cached == 0 {
		return now == 0
	}
	return float64(now) <= alpha*float64(cached)
}

// clonePoints deep-copies centers so callers can never corrupt the shared
// cache entry.
func clonePoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = append([]float64(nil), p...)
	}
	return out
}

// Count returns the number of points observed so far (one atomic load).
func (c *Concurrent) Count() int64 { return c.inner.Count() }

// NumShards returns the ingest shard count.
func (c *Concurrent) NumShards() int { return c.inner.NumShards() }

// K returns the number of centers answered by queries.
func (c *Concurrent) K() int { return c.k }

// PointsStored sums shard memory in points (Table 4 metric).
func (c *Concurrent) PointsStored() int { return c.inner.PointsStored() }

// Name identifies the algorithm, e.g. "Sharded[8xCC]".
func (c *Concurrent) Name() string { return c.inner.Name() }

// CacheStats reports how many Centers calls were answered from the
// cached-centers fast path (hits) versus recomputed (misses).
func (c *Concurrent) CacheStats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Algo returns the per-shard summary structure (AlgoCT, AlgoCC or
// AlgoRCC) this clusterer was built — or restored — with.
func (c *Concurrent) Algo() Algo { return c.algo }

// Dim returns the point dimension recorded in the snapshot this clusterer
// was restored from, or 0 for a fresh instance (the clusterer itself is
// dimension-agnostic; the serving layer tracks dimension). A daemon
// restoring a checkpoint uses it to validate its -dim flag.
func (c *Concurrent) Dim() int { return c.dim }

// Snapshot serializes the clusterer's complete logical state to w as one
// versioned, checksummed sharded envelope: all per-shard summaries, the
// round-robin routing cursor, and the cached-centers entry (so a restored
// instance answers its first queries from the same cache). The shards are
// quiesced for the duration — concurrent ingest blocks briefly, queries
// on the cached fast path keep being served — making the snapshot an
// exactly consistent cut of the stream. Safe for concurrent use.
func (c *Concurrent) Snapshot(w io.Writer) error {
	env, err := c.snapshotEnvelope()
	if err != nil {
		return err
	}
	return persist.Save(w, env)
}

// snapshotEnvelope builds the quiesced KindSharded envelope Snapshot
// writes. The quota-carrying backend wrapper reuses it as the payload
// of a v3 typed envelope.
func (c *Concurrent) snapshotEnvelope() (persist.Envelope, error) {
	// refreshMu orders the snapshot against cache refreshes: both take
	// refreshMu before any shard lock, so the cache entry written below
	// can never be newer than the quiesced shard state.
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	env, err := persist.SnapshotSharded(c.inner)
	if err != nil {
		return persist.Envelope{}, err
	}
	s := env.Sharded
	s.Alpha = c.alpha
	if snap := c.cache.Load(); snap != nil {
		s.HasCache = true
		s.CachedCount = snap.count
		s.CachedCenters = make([][]float64, len(snap.centers))
		for i, p := range snap.centers {
			s.CachedCenters[i] = append([]float64(nil), p...)
		}
	}
	return env, nil
}

// NewConcurrentFromSnapshot reconstructs a Concurrent previously written
// by Snapshot, resuming with every ingested point's weight intact. cfg
// supplies only the non-serialized pieces (Seed, Builder, QueryRuns,
// QueryLloydIters, and optionally Alpha to override the snapshot's
// staleness threshold); structural fields (K, BucketSize, ...) come from
// the snapshot. Randomness is not captured: queries after a restore are
// statistically equivalent but not bit-identical to an uninterrupted run.
func NewConcurrentFromSnapshot(r io.Reader, cfg Config) (*Concurrent, error) {
	env, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	if env.Kind != persist.KindSharded {
		return nil, fmt.Errorf("streamkm: snapshot holds a single %q clusterer, not a sharded one (use Load)", env.Kind)
	}
	return concurrentFromSharded(env, cfg)
}

// concurrentFromSharded rebuilds a Concurrent from an already-loaded
// KindSharded envelope — shared by NewConcurrentFromSnapshot and the
// spec-driven Restore factory (which also accepts the envelope wrapped in
// a v3 backend envelope).
func concurrentFromSharded(env persist.Envelope, cfg Config) (*Concurrent, error) {
	userAlpha := cfg.Alpha
	// Validate only the fields actually used; a zero Config is fine.
	cfg.K = 1
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	inner, err := persist.RestoreSharded(env, cfg.Seed, b, cfg.queryOptions())
	if err != nil {
		return nil, err
	}
	s := env.Sharded
	alpha := s.Alpha
	if userAlpha != 0 {
		alpha = userAlpha
	}
	if alpha <= 1 {
		alpha = 1.2 // snapshot predates alpha capture; fall back to the default
	}
	c := &Concurrent{
		inner: inner,
		k:     s.K,
		alpha: alpha,
		algo:  Algo(s.Shards[0].Kind),
		dim:   s.Dim,
	}
	if s.HasCache {
		centers := make([]Point, len(s.CachedCenters))
		for i, p := range s.CachedCenters {
			centers[i] = append([]float64(nil), p...)
		}
		c.cache.Store(&centersSnapshot{centers: centers, count: s.CachedCount})
	}
	return c, nil
}
