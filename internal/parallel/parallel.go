// Package parallel clusters distributed and parallel streams, the paper's
// second open question ("clustering on distributed and parallel streams",
// Section 6).
//
// The construction follows directly from Observation 1: if each of P
// parallel substreams maintains a coreset of what it has seen (via any of
// the driver-based structures — CT, CC, RCC), then the union of the shard
// coresets is a coreset of the union of the substreams. A global query
// therefore unions the per-shard summaries and runs k-means++ once.
//
// Shards are independently locked, so P producer goroutines can feed their
// shards concurrently with queries; there is no shared mutable state
// between shards beyond the query-time union. A shard fed in batches
// publishes an immutable view of its summary at the end of each batch
// (core.Driver.View: for CC, the cached coreset for the major prefix
// [1, major(N)] plus the tree buckets after it and the partial bucket,
// unreduced), so queries gather those shards without taking their locks
// and without reducing. Each view records the points it covers, and a
// gather returns their sum.
package parallel

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"streamkm/internal/core"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

// Sharded is a streaming k-means clusterer over P parallel substreams.
// Each shard owns one driver-based clusterer guarded by its own mutex.
// Queries union the shard summaries, reading each shard's published view
// without its lock, and locking only a shard that has none, to publish
// one.
type Sharded struct {
	shards   []*shard
	k        int
	queryOpt kmeans.Options

	n  atomic.Int64 // points observed across all shards
	rr atomic.Int64 // round-robin shard cursor

	qmu sync.Mutex // guards rng at query time
	rng *rand.Rand
}

type shard struct {
	mu  sync.Mutex
	drv *core.Driver

	// view is the shard's last published summary, or nil when it has
	// none: fresh, restored, or fed a point since. It is written under mu
	// and read without it.
	view atomic.Pointer[laneView]
}

// laneView is one published shard summary. It is never modified after it
// is published: its slice is freshly built with copies of the weights,
// and the coordinates it shares sit in driver-owned blocks and coreset
// buckets that are never written again.
type laneView struct {
	pts   []geom.Weighted // the driver's View
	count int64           // points the driver had observed
}

// publish builds the shard's view and publishes it. Caller holds sh.mu.
func (sh *shard) publish() *laneView {
	v := &laneView{pts: sh.drv.View(), count: sh.drv.Count()}
	sh.view.Store(v)
	return v
}

// NewSharded builds a P-shard clusterer. newDriver is called once per
// shard with the shard index and a shard-specific seed, and must return a
// fresh driver (shards must not share structures). k is the number of
// centers returned by global queries.
func NewSharded(p, k int, seed int64, queryOpt kmeans.Options,
	newDriver func(shardIdx int, seed int64) *core.Driver) (*Sharded, error) {
	if p < 1 {
		return nil, fmt.Errorf("parallel: need at least 1 shard, got %d", p)
	}
	if k < 1 {
		return nil, fmt.Errorf("parallel: k must be >= 1, got %d", k)
	}
	s := &Sharded{
		shards:   make([]*shard, p),
		k:        k,
		queryOpt: queryOpt,
		rng:      rand.New(rand.NewSource(seed)),
	}
	for i := range s.shards {
		drv := newDriver(i, seed+int64(i)*7919)
		if drv == nil {
			return nil, fmt.Errorf("parallel: newDriver returned nil for shard %d", i)
		}
		s.shards[i] = &shard{drv: drv}
	}
	return s, nil
}

// NewShardedFromState rebuilds a Sharded around already-restored per-shard
// drivers — the persistence layer's entry point (internal/persist
// deserializes the drivers, then reassembles the sharded structure here).
// rr and count restore the round-robin cursor and the global point
// counter, so routing and Count continue exactly where the snapshotted
// instance stopped.
func NewShardedFromState(k int, seed int64, queryOpt kmeans.Options,
	drvs []*core.Driver, rr, count int64) (*Sharded, error) {
	if len(drvs) < 1 {
		return nil, fmt.Errorf("parallel: need at least 1 restored shard, got %d", len(drvs))
	}
	if k < 1 {
		return nil, fmt.Errorf("parallel: k must be >= 1, got %d", k)
	}
	if count < 0 {
		return nil, fmt.Errorf("parallel: negative restored count %d", count)
	}
	if rr < 0 {
		// NextShard would index a negative shard.
		return nil, fmt.Errorf("parallel: negative restored round-robin cursor %d", rr)
	}
	s := &Sharded{
		shards:   make([]*shard, len(drvs)),
		k:        k,
		queryOpt: queryOpt,
		rng:      rand.New(rand.NewSource(seed)),
	}
	for i, drv := range drvs {
		if drv == nil {
			return nil, fmt.Errorf("parallel: nil restored driver for shard %d", i)
		}
		s.shards[i] = &shard{drv: drv}
	}
	s.rr.Store(rr)
	s.n.Store(count)
	return s, nil
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// K returns the number of centers answered by global queries.
func (s *Sharded) K() int { return s.k }

// Quiesce locks every shard in index order, then calls f with the
// per-shard drivers and the current round-robin cursor and global count.
// While f runs no ingest or shard-touching query can proceed, so f sees a
// consistent cut of the entire structure: the count equals exactly the
// points applied to the drivers. The drivers are passed by reference; f
// must not retain them past its return.
func (s *Sharded) Quiesce(f func(drvs []*core.Driver, rr, count int64) error) error {
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.Unlock()
		}
	}()
	drvs := make([]*core.Driver, len(s.shards))
	for i, sh := range s.shards {
		drvs[i] = sh.drv
	}
	return f(drvs, s.rr.Load(), s.n.Load())
}

// AddTo feeds one point to a specific shard. Safe for concurrent use by
// one goroutine per shard (or any routing discipline).
func (s *Sharded) AddTo(shardIdx int, p geom.Point) {
	s.AddWeightedTo(shardIdx, geom.Weighted{P: p, W: 1})
}

// AddWeightedTo feeds one weighted point to a specific shard. It clears
// the shard's view, so the next gather builds and publishes one under
// the shard's lock.
func (s *Sharded) AddWeightedTo(shardIdx int, wp geom.Weighted) {
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	sh.view.Store(nil)
	sh.drv.AddWeighted(wp)
	s.n.Add(1)
	sh.mu.Unlock()
}

// AddBatchTo feeds a whole batch of weighted points to one shard under a
// single lock acquisition — the ingest fast path for high-throughput
// producers, amortizing the per-point lock cost over the batch.
//
// Before releasing the lock it publishes the shard's view
// (core.Driver.View), which queries read without the lock: a CC shard
// caches the coreset for every key of prefixsum(N) it lacks and publishes
// the major prefix plus the buckets after it unreduced, an RCC shard runs
// its coreset query, so the reduce moves off the query path and a query
// never waits for a batch in progress. The view records how many points
// the shard's driver has observed. The per-point add paths clear the view.
//
// The global counter advances inside the shard critical section (here and
// in the other add paths), so a Quiesce holding every shard lock observes
// a count that exactly matches the points applied to the drivers.
func (s *Sharded) AddBatchTo(shardIdx int, wps []geom.Weighted) {
	if len(wps) == 0 {
		return
	}
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	for _, wp := range wps {
		sh.drv.AddWeighted(wp)
	}
	sh.publish()
	s.n.Add(int64(len(wps)))
	sh.mu.Unlock()
}

// Add routes a point to a shard by round-robin on a running counter. For
// multi-goroutine producers prefer AddTo with a fixed shard per producer.
func (s *Sharded) Add(p geom.Point) {
	s.AddWeighted(geom.Weighted{P: p, W: 1})
}

// AddWeighted routes a weighted point to a shard by round-robin.
func (s *Sharded) AddWeighted(wp geom.Weighted) {
	s.AddWeightedTo(s.NextShard(), wp)
}

// NextShard advances the round-robin cursor and returns the shard a
// routing-agnostic producer should feed next. Lock-free.
func (s *Sharded) NextShard() int {
	return int((s.rr.Add(1) - 1) % int64(len(s.shards)))
}

// Centers answers a global clustering query: union every shard's coreset
// (including partial buckets) and run k-means++ once. Safe for concurrent
// use with AddTo.
func (s *Sharded) Centers() []geom.Point {
	return s.CoresetCenters(s.CoresetUnion())
}

// CoresetCenters runs the query-time k-means++ over an already-gathered
// union (as returned by Gather or CoresetUnion).
func (s *Sharded) CoresetCenters(union []geom.Weighted) []geom.Point {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	centers, _ := kmeans.Run(s.rng, union, s.k, s.queryOpt)
	return centers
}

// CoresetUnion returns the union of all shard summaries — itself a coreset
// of the full multi-stream (Observation 1); see Gather.
func (s *Sharded) CoresetUnion() []geom.Weighted {
	union, _ := s.Gather()
	return union
}

// Gather returns the union of all shard views and the number of points
// it covers, the sum of the views' counts. A shard with a published view
// contributes it without being locked; a shard without one is locked only
// while its view is built and published, so every gather reads one
// composition. The union is freshly allocated.
func (s *Sharded) Gather() ([]geom.Weighted, int64) {
	views := make([]*laneView, len(s.shards))
	size, count := 0, int64(0)
	for i, sh := range s.shards {
		v := sh.view.Load()
		if v == nil {
			sh.mu.Lock()
			if v = sh.view.Load(); v == nil {
				v = sh.publish()
			}
			sh.mu.Unlock()
		}
		views[i] = v
		size += len(v.pts)
		count += v.count
	}
	union := make([]geom.Weighted, 0, size)
	for _, v := range views {
		union = append(union, v.pts...)
	}
	return union, count
}

// PointsStored sums shard memory in points.
func (s *Sharded) PointsStored() int {
	var total int
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += sh.drv.PointsStored()
		sh.mu.Unlock()
	}
	return total
}

// Count returns the number of points observed across shards. It reads a
// single atomic counter maintained by the add paths, so it is cheap enough
// to call on every query (the cached-centers fast path does).
func (s *Sharded) Count() int64 { return s.n.Load() }

// Name identifies the algorithm in reports.
func (s *Sharded) Name() string {
	return fmt.Sprintf("Sharded[%dx%s]", len(s.shards), s.shards[0].drv.Name())
}
