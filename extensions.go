package streamkm

import (
	"fmt"
	"io"
	"math/rand"

	"streamkm/internal/core"
	"streamkm/internal/decay"
	"streamkm/internal/geom"
	"streamkm/internal/kmedian"
	"streamkm/internal/persist"
	"streamkm/internal/quality"
)

// This file wires the library's extensions — the future-work directions
// from the paper's conclusion plus operational features — into the public
// API:
//
//   - snapshot/restore of live clusterer state (Save/Load);
//   - streaming k-median via coreset caching (NewKMedian);
//   - time-decayed weighting for concept drift (NewDecayed).
//
// Parallel and distributed streams are served by Concurrent (AddTo routes
// a point to a chosen shard).

// Save serializes the clusterer's complete logical state to w in a
// versioned, checksummed binary format. Only single-stream clusterers
// created by New can be saved here; a Concurrent writes a sharded
// envelope (one nested clusterer per shard plus routing metadata) via
// Concurrent.Snapshot instead. Randomness is not captured: a restored
// clusterer continues with the seed passed to Load.
func Save(w io.Writer, c Clusterer) error {
	wr, ok := c.(*wrapper)
	if !ok {
		return fmt.Errorf("streamkm: cannot snapshot %T (only built-in clusterers)", c)
	}
	env, err := persist.SnapshotClusterer(wr.inner)
	if err != nil {
		return err
	}
	return persist.Save(w, env)
}

// Load reconstructs a clusterer previously written by Save. cfg supplies
// the non-serialized pieces (Seed, Builder, query options); its structural
// fields (K, BucketSize, ...) are ignored in favor of the snapshot's.
// Snapshots written by Concurrent.Snapshot carry a sharded envelope and
// are rejected here — restore those with NewConcurrentFromSnapshot.
func Load(r io.Reader, cfg Config) (Clusterer, error) {
	// Validate only the fields Load actually uses; a zero Config is fine.
	cfg.K = 1
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	env, err := persist.Load(r)
	if err != nil {
		return nil, err
	}
	inner, err := persist.RestoreClusterer(env, cfg.Seed, b, cfg.queryOptions())
	if err != nil {
		return nil, err
	}
	return &wrapper{inner: inner}, nil
}

// NewKMedian creates a streaming k-median clusterer: the same cached
// coreset machinery with reductions and queries under the distance (not
// squared distance) objective — the extension proposed in the paper's
// conclusion. algo selects the summary structure (AlgoCT, AlgoCC or
// AlgoRCC; others are rejected).
func NewKMedian(algo Algo, cfg Config) (Clusterer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := kmedian.Builder{}
	var s core.Structure
	switch algo {
	case AlgoCT:
		s = core.NewCT(cfg.MergeDegree, cfg.BucketSize, b, rng)
	case AlgoCC:
		s = core.NewCC(cfg.MergeDegree, cfg.BucketSize, b, rng)
	case AlgoRCC:
		s = core.NewRCC(cfg.RCCOrder, cfg.BucketSize, b, rng)
	default:
		return nil, fmt.Errorf("streamkm: k-median supports CT, CC and RCC, not %q", algo)
	}
	opt := kmedian.Options{Runs: cfg.QueryRuns, RefineIters: cfg.QueryLloydIters}
	return &wrapper{inner: kmedian.NewDriver(s, cfg.K, cfg.BucketSize, rng, opt)}, nil
}

// KMedianCost returns the k-median cost (sum of weighted distances) of
// points against centers.
func KMedianCost(points []Point, centers []Point) float64 {
	wp := make([]geom.Weighted, len(points))
	for i, p := range points {
		wp[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	cs := make([]geom.Point, len(centers))
	for i, c := range centers {
		cs[i] = geom.Point(c)
	}
	return kmedian.Cost(wp, cs)
}

// NewDecayed creates a clusterer whose points fade with exponential time
// decay: a point's influence halves every halfLife arrivals (forward
// decay, addressing the paper's concept-drift open question). algo selects
// the summary structure (AlgoCT, AlgoCC or AlgoRCC).
func NewDecayed(algo Algo, cfg Config, halfLife float64) (Clusterer, error) {
	if halfLife <= 0 {
		return nil, fmt.Errorf("streamkm: halfLife must be > 0, got %v", halfLife)
	}
	switch algo {
	case AlgoCT, AlgoCC, AlgoRCC:
	default:
		return nil, fmt.Errorf("streamkm: decay supports CT, CC and RCC, not %q", algo)
	}
	c, err := New(algo, cfg)
	if err != nil {
		return nil, err
	}
	drv := c.(*wrapper).inner.(*core.Driver)
	lambda := ln2 / halfLife
	return &wrapper{inner: decay.New(drv, lambda)}, nil
}

// ln2 avoids importing math for one constant.
const ln2 = 0.6931471805599453

// QualityReport summarizes clustering quality beyond cost: silhouette
// coefficient (higher is better, in [-1, 1]), Davies–Bouldin index (lower
// is better), per-cluster masses, and empty-cluster count.
type QualityReport struct {
	K             int
	N             int
	SSQ           float64
	Silhouette    float64
	DaviesBouldin float64
	ClusterSizes  []float64
	EmptyClusters int
}

// Evaluate scores centers against points with standard clustering quality
// diagnostics. Silhouette is computed on a uniform sample for large inputs;
// seed makes the sampling reproducible.
func Evaluate(points []Point, centers []Point, seed int64) QualityReport {
	wp := make([]geom.Weighted, len(points))
	for i, p := range points {
		wp[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	cs := make([]geom.Point, len(centers))
	for i, c := range centers {
		cs[i] = geom.Point(c)
	}
	r := quality.Evaluate(rand.New(rand.NewSource(seed)), wp, cs)
	return QualityReport{
		K:             r.K,
		N:             r.N,
		SSQ:           r.SSQ,
		Silhouette:    r.Silhouette,
		DaviesBouldin: r.DaviesBouldin,
		ClusterSizes:  r.ClusterSizes,
		EmptyClusters: r.EmptyClusters,
	}
}
