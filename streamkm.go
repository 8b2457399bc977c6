// Package streamkm is a streaming k-means clustering library with fast
// queries, implementing Zhang, Tangwongsan & Tirthapura, "Streaming k-Means
// Clustering with Fast Queries" (ICDE 2017).
//
// A streaming k-means clusterer ingests an unbounded stream of points and,
// at any moment, answers a query for k cluster centers summarizing
// everything observed so far. All algorithms here keep memory
// polylogarithmic in the stream length and return centers whose cost is an
// O(log k)-approximation of the optimal in expectation. They differ in how
// fast they answer queries:
//
//   - CT (coreset tree, = streamkm++): the prior state of the art. Queries
//     merge every active coreset: O(r·log N/log r) buckets.
//   - CC (cached coreset tree): caches the coreset computed for the previous
//     query and merges at most r buckets per query — a log N-factor faster.
//   - RCC (recursive cached coreset tree): applies caching recursively;
//     ~2·log log N bucket merges per query and O(1) coreset levels.
//   - OnlineCC: a hybrid with MacQueen's sequential k-means; most queries
//     return in O(1) without running k-means++ at all, falling back to CC
//     only when a cost bound degrades past a threshold alpha.
//   - Sequential: MacQueen's sequential k-means baseline (fast, no
//     guarantee).
//
// # Quick start
//
//	c, err := streamkm.New(streamkm.AlgoCC, streamkm.Config{K: 10})
//	if err != nil { ... }
//	for p := range source {
//		c.Add(p) // p is a []float64
//	}
//	centers := c.Centers() // at any time, between any two Adds
//
// Clusterers returned by New are single-goroutine objects. For concurrent
// workloads — many producer goroutines ingesting while queries are served
// — use Concurrent (sharded ingest, with AddTo for explicit per-shard
// routing, plus a cached-centers query fast path).
//
// Serving layers create backends through the spec factory instead of a
// concrete constructor: Open(BackendSpec{...}, cfg) builds a concurrent,
// forward-decayed or sliding-window Backend behind one interface, and
// Restore resumes any of them from a snapshot; cmd/streamkmd serves them
// over HTTP with per-tenant backend selection.
package streamkm

import (
	"fmt"
	"math/rand"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
	"streamkm/internal/seqkm"
)

// Point is a dense point in R^d. All points fed to one Clusterer must share
// the same dimension.
type Point = []float64

// Clusterer is a streaming k-means algorithm: feed points with Add, get k
// centers with Centers at any time. Implementations returned by New are
// not safe for concurrent use — use Concurrent for that.
type Clusterer interface {
	// Add observes the next stream point with weight 1.
	Add(p Point)
	// AddWeighted observes a point carrying weight w > 0 — equivalent to w
	// unit points at the same coordinates (Problem 1 in the paper takes a
	// weight function; pre-aggregated inputs use this).
	AddWeighted(p Point, w float64)
	// Centers returns k cluster centers for the stream so far. The slices
	// are copies owned by the caller.
	Centers() []Point
	// PointsStored reports memory use in stored points (the paper's Table 4
	// metric; multiply by dimension × 8 bytes for an estimate in bytes).
	PointsStored() int
	// Name identifies the algorithm ("CT", "CC", "RCC", "OnlineCC",
	// "Sequential").
	Name() string
}

// Algo selects one of the implemented algorithms.
type Algo string

// Available algorithms.
const (
	AlgoCT         Algo = "CT"         // coreset tree (streamkm++)
	AlgoCC         Algo = "CC"         // cached coreset tree
	AlgoRCC        Algo = "RCC"        // recursive cached coreset tree
	AlgoOnlineCC   Algo = "OnlineCC"   // sequential + CC hybrid
	AlgoSequential Algo = "Sequential" // MacQueen's sequential k-means
)

// Algos lists every available algorithm in the paper's order.
func Algos() []Algo {
	return []Algo{AlgoSequential, AlgoCT, AlgoCC, AlgoRCC, AlgoOnlineCC}
}

// BuilderKind selects the coreset construction.
type BuilderKind string

// Available coreset builders.
const (
	// BuilderKMeansPP reduces a bucket by k-means++ seeding with m centers
	// and weight transfer — the construction used by streamkm++ and by the
	// paper's experiments. Default.
	BuilderKMeansPP BuilderKind = "kmeanspp"
	// BuilderSensitivity is Feldman–Langberg importance sampling, the
	// theoretical construction behind the paper's Theorem 2.
	BuilderSensitivity BuilderKind = "sensitivity"
	// BuilderUniform is uniform sampling — no guarantee; ablation baseline.
	BuilderUniform BuilderKind = "uniform"
)

// Config configures a Clusterer. The zero value of every field selects the
// paper's defaults (Section 5.2): bucket size m = 20·K, merge degree r = 2,
// RCC nesting depth 3, OnlineCC threshold alpha = 1.2, one k-means++ run at
// query time.
type Config struct {
	// K is the number of cluster centers returned by queries. Required.
	K int
	// BucketSize is the base bucket / coreset size m. Default 20·K.
	BucketSize int
	// MergeDegree is the coreset tree merge degree r (CT, CC, OnlineCC's
	// inner CC). Default 2.
	MergeDegree int
	// RCCOrder is the nesting depth of RCC; merge degrees are 2^(2^i) for
	// each order i ≤ RCCOrder. Default 3 (degrees 2, 4, 16, 256).
	RCCOrder int
	// Alpha is OnlineCC's switching threshold (> 1): queries fall back to
	// CC when the running cost estimate exceeds Alpha times the cost at the
	// previous fallback. Default 1.2.
	Alpha float64
	// Epsilon is the coreset accuracy parameter used by OnlineCC to inflate
	// its post-fallback cost estimate: phiNow = phi/(1-Epsilon). Default 0.1.
	Epsilon float64
	// Builder selects the coreset construction. Default BuilderKMeansPP.
	Builder BuilderKind
	// QueryRuns is the number of independent k-means++ restarts per query;
	// the best result wins. Default 1 (the paper's accuracy experiments use
	// 5; see QueryLloydIters).
	QueryRuns int
	// QueryLloydIters caps Lloyd refinement iterations after each query-time
	// seeding. Default 0 (the paper's accuracy experiments use 20).
	QueryLloydIters int
	// Seed makes the clusterer deterministic. Default 1.
	Seed int64
}

// withDefaults materializes the paper's default parameters.
func (c Config) withDefaults() (Config, error) {
	if c.K < 1 {
		return c, fmt.Errorf("streamkm: Config.K must be >= 1, got %d", c.K)
	}
	if c.BucketSize == 0 {
		c.BucketSize = 20 * c.K
	}
	if c.BucketSize < 1 {
		return c, fmt.Errorf("streamkm: Config.BucketSize must be >= 1, got %d", c.BucketSize)
	}
	if c.MergeDegree == 0 {
		c.MergeDegree = 2
	}
	if c.MergeDegree < 2 {
		return c, fmt.Errorf("streamkm: Config.MergeDegree must be >= 2, got %d", c.MergeDegree)
	}
	if c.RCCOrder == 0 {
		c.RCCOrder = 3
	}
	if c.RCCOrder < 0 {
		return c, fmt.Errorf("streamkm: Config.RCCOrder must be >= 0, got %d", c.RCCOrder)
	}
	if c.Alpha == 0 {
		c.Alpha = 1.2
	}
	if c.Alpha <= 1 {
		return c, fmt.Errorf("streamkm: Config.Alpha must be > 1, got %v", c.Alpha)
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return c, fmt.Errorf("streamkm: Config.Epsilon must be in (0,1), got %v", c.Epsilon)
	}
	if c.Builder == "" {
		c.Builder = BuilderKMeansPP
	}
	if c.QueryRuns == 0 {
		c.QueryRuns = 1
	}
	if c.QueryRuns < 1 {
		return c, fmt.Errorf("streamkm: Config.QueryRuns must be >= 1, got %d", c.QueryRuns)
	}
	if c.QueryLloydIters < 0 {
		return c, fmt.Errorf("streamkm: Config.QueryLloydIters must be >= 0, got %d", c.QueryLloydIters)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

func (c Config) builder() (coreset.Builder, error) {
	switch c.Builder {
	case BuilderKMeansPP:
		return coreset.KMeansPP{}, nil
	case BuilderSensitivity:
		return coreset.Sensitivity{}, nil
	case BuilderUniform:
		return coreset.Uniform{}, nil
	}
	return nil, fmt.Errorf("streamkm: unknown coreset builder %q", c.Builder)
}

func (c Config) queryOptions() kmeans.Options {
	return kmeans.Options{Runs: c.QueryRuns, LloydIters: c.QueryLloydIters, Tol: 1e-4}
}

// New creates a Clusterer running the selected algorithm with the given
// configuration.
func New(algo Algo, cfg Config) (Clusterer, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if algo == AlgoSequential {
		return &wrapper{inner: seqkm.New(cfg.K)}, nil
	}
	b, err := cfg.builder()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch algo {
	case AlgoCT:
		s := core.NewCT(cfg.MergeDegree, cfg.BucketSize, b, rng)
		return &wrapper{inner: core.NewDriver(s, cfg.K, cfg.BucketSize, rng, cfg.queryOptions())}, nil
	case AlgoCC:
		s := core.NewCC(cfg.MergeDegree, cfg.BucketSize, b, rng)
		return &wrapper{inner: core.NewDriver(s, cfg.K, cfg.BucketSize, rng, cfg.queryOptions())}, nil
	case AlgoRCC:
		s := core.NewRCC(cfg.RCCOrder, cfg.BucketSize, b, rng)
		return &wrapper{inner: core.NewDriver(s, cfg.K, cfg.BucketSize, rng, cfg.queryOptions())}, nil
	case AlgoOnlineCC:
		o := core.NewOnlineCC(cfg.K, cfg.BucketSize, cfg.MergeDegree, cfg.Alpha, cfg.Epsilon,
			b, rng, cfg.queryOptions())
		return &wrapper{inner: o}, nil
	}
	return nil, fmt.Errorf("streamkm: unknown algorithm %q", algo)
}

// MustNew is New that panics on configuration errors; convenient in
// examples and tests.
func MustNew(algo Algo, cfg Config) Clusterer {
	c, err := New(algo, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// wrapper adapts the internal Clusterer (geom.Point based) to the public
// Point type. geom.Point and Point share the underlying []float64, so no
// copying happens on Add.
type wrapper struct {
	inner core.Clusterer
}

// weightedAdder is satisfied by every internal clusterer (Driver, OnlineCC,
// Sequential, kmedian.Driver, decay.Clusterer).
type weightedAdder interface {
	AddWeighted(wp geom.Weighted)
}

func (w *wrapper) Add(p Point) { w.inner.Add(geom.Point(p)) }

func (w *wrapper) AddWeighted(p Point, weight float64) {
	w.inner.(weightedAdder).AddWeighted(geom.Weighted{P: geom.Point(p), W: weight})
}

func (w *wrapper) PointsStored() int { return w.inner.PointsStored() }
func (w *wrapper) Name() string      { return w.inner.Name() }

// counter is implemented by inner clusterers that track stream length.
type counter interface{ Count() int64 }

// Count returns the number of points observed so far, or -1 when the
// underlying algorithm does not track it. Every algorithm created by New
// tracks it; access via a type assertion on the returned Clusterer:
//
//	n := c.(interface{ Count() int64 }).Count()
//
// Serving layers use this to report stream length and to verify that a
// restored snapshot lost no points.
func (w *wrapper) Count() int64 {
	if c, ok := w.inner.(counter); ok {
		return c.Count()
	}
	return -1
}

func (w *wrapper) Centers() []Point {
	cs := w.inner.Centers()
	out := make([]Point, len(cs))
	for i, c := range cs {
		out[i] = []float64(c)
	}
	return out
}

// Cost returns the k-means cost (within-cluster sum of squared distances,
// SSQ) of points against centers — the paper's accuracy metric.
func Cost(points []Point, centers []Point) float64 {
	wp := make([]geom.Weighted, len(points))
	for i, p := range points {
		wp[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	cs := make([]geom.Point, len(centers))
	for i, c := range centers {
		cs[i] = geom.Point(c)
	}
	return kmeans.Cost(wp, cs)
}

// KMeansPlusPlus runs the batch k-means++ algorithm (with optional Lloyd
// refinement) on a static point set — the paper's batch baseline. runs
// selects the number of restarts (best result wins), lloydIters the
// refinement cap per restart.
func KMeansPlusPlus(points []Point, k int, seed int64, runs, lloydIters int) []Point {
	wp := make([]geom.Weighted, len(points))
	for i, p := range points {
		wp[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	rng := rand.New(rand.NewSource(seed))
	centers, _ := kmeans.Run(rng, wp, k, kmeans.Options{Runs: runs, LloydIters: lloydIters, Tol: 1e-4})
	out := make([]Point, len(centers))
	for i, c := range centers {
		out[i] = []float64(c)
	}
	return out
}
