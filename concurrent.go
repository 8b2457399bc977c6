package streamkm

import (
	"fmt"
	"io"
	"math/rand"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/geom"
	"streamkm/internal/parallel"
	"streamkm/internal/persist"
)

// Concurrent is a thread-safe streaming clusterer built for serving
// traffic: many producer goroutines ingest concurrently while any number
// of goroutines query Centers, with neither side serializing the other.
// It is the concurrent backend Open builds for BackendConcurrent specs.
//
// Ingest is sharded P ways (the paper's Section 6 open question on
// parallel streams, resolved by the coreset union property: the union of
// per-shard coresets is a coreset of the union of the substreams). Each
// shard is independently locked, so producers pinned to distinct shards
// never contend; AddBatch amortizes one lock acquisition over a whole
// batch, and ends it by publishing the shard's summary as an immutable
// view: a CC shard caches the coreset of every prefix of its bucket count
// that CC's query path needs (Lemma 4) and publishes the cached major
// prefix plus the tree buckets after it and the partial bucket,
// unreduced; an RCC shard runs its coreset query. A recomputation unions
// those views without taking the shard locks, so it neither reduces on
// the query path nor waits for a batch in progress; only a shard fed
// point by point (Add, AddTo, AddWeighted) since its last batch, or
// restored and not yet fed a batch, builds its view under its lock. Each
// view records the points it covers, and the cache entry is stamped with
// the sum over the views its union came from. Shards copy the coordinates
// they keep into storage they own, so callers may reuse their point
// slices once an add returns.
//
// Queries take the cached-centers fast path: the centers computed by the
// previous query are reused until the stream has grown by more than a
// factor Alpha since they were computed — the same cost-staleness idea
// OnlineCC (Algorithm 7) uses to answer most queries in O(1). A stale
// cache triggers exactly one recomputation (single-flight): queries that
// find the cache stale meanwhile wait for that recomputation and return
// its result rather than starting their own.
type Concurrent struct {
	laneBackend
	sh *parallel.Sharded
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
	b, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	sh, err := parallel.NewSharded(p, cfg.K, cfg.Seed, cfg.queryOptions(), driverFactory(algo, cfg, b))
	if err != nil {
		return nil, err
	}
	spec := BackendSpec{Type: BackendConcurrent, Algo: algo, K: cfg.K, Shards: p}
	return newConcurrent(spec, sh, cfg.Alpha), nil
}

// newConcurrent serves sh behind the cached-centers fast path.
func newConcurrent(spec BackendSpec, sh *parallel.Sharded, alpha float64) *Concurrent {
	c := &Concurrent{sh: sh}
	c.spec, c.lanes, c.alpha = spec, concurrentLanes{sh}, alpha
	return c
}

// driverFactory builds the per-lane driver constructor for CT, CC and
// RCC lanes, concurrent and decayed alike: each lane gets its own
// structure and rng from its lane-specific seed. cfg must already carry
// defaults and algo must be CT, CC or RCC.
func driverFactory(algo Algo, cfg Config, b coreset.Builder) func(lane int, seed int64) *core.Driver {
	return func(_ int, seed int64) *core.Driver {
		rng := rand.New(rand.NewSource(seed))
		var s core.Structure
		switch algo {
		case AlgoCT:
			s = core.NewCT(cfg.MergeDegree, cfg.BucketSize, b, rng)
		case AlgoCC:
			s = core.NewCC(cfg.MergeDegree, cfg.BucketSize, b, rng)
		default:
			s = core.NewRCC(cfg.RCCOrder, cfg.BucketSize, b, rng)
		}
		return core.NewDriver(s, cfg.K, cfg.BucketSize, rng, cfg.queryOptions())
	}
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
	c.sh.Add(geom.Point(p))
}

// AddTo feeds one point to a specific shard (0 <= shard < NumShards).
// One producer goroutine per shard is the contention-free discipline.
func (c *Concurrent) AddTo(shard int, p Point) {
	c.sh.AddTo(shard, geom.Point(p))
}

// K returns the number of centers answered by queries.
func (c *Concurrent) K() int { return c.spec.K }

// Algo returns the per-shard summary structure (AlgoCT, AlgoCC or
// AlgoRCC) this clusterer was built — or restored — with.
func (c *Concurrent) Algo() Algo { return c.spec.Algo }

// Dim returns the point dimension recorded in the snapshot this clusterer
// was restored from (or passed to Open), or 0 for a fresh instance (the
// clusterer itself is dimension-agnostic; the serving layer tracks
// dimension). A daemon restoring a checkpoint uses it to validate its
// -dim flag.
func (c *Concurrent) Dim() int { return c.spec.Dim }

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
	return concurrentFromSharded(env.Sharded, cfg)
}

// concurrentFromSharded rebuilds a Concurrent from an already-loaded
// sharded snapshot — shared by NewConcurrentFromSnapshot and the
// spec-driven Restore factory (which also accepts it wrapped in a v3
// backend envelope).
func concurrentFromSharded(s *persist.ShardedSnapshot, cfg Config) (*Concurrent, error) {
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
	sh, err := persist.RestoreSharded(persist.Envelope{Kind: persist.KindSharded, Sharded: s}, cfg.Seed, b, cfg.queryOptions())
	if err != nil {
		return nil, err
	}
	alpha := s.Alpha
	if userAlpha != 0 {
		alpha = userAlpha
	}
	if alpha <= 1 {
		alpha = 1.2 // snapshot predates alpha capture; fall back to the default
	}
	spec := BackendSpec{Type: BackendConcurrent, Algo: Algo(s.Shards[0].Kind), K: s.K, Dim: s.Dim, Shards: len(s.Shards)}
	c := newConcurrent(spec, sh, alpha)
	if s.HasCache {
		c.cache.Store(&centersSnapshot{centers: clonePoints(s.CachedCenters), count: s.CachedCount})
	}
	return c, nil
}
