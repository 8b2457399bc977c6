package decay

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"streamkm/internal/core"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
	"streamkm/internal/parallel"
)

// Sharded is a forward-decay streaming clusterer over P parallel ingest
// lanes. The sequencing step (parallel.Lanes.Reserve) assigns each batch
// its global arrival span lock-free; the coreset insertion — the
// expensive part — then runs under a per-lane lock, so P producers
// proceed in parallel exactly as in the stationary sharded clusterer.
//
// Decay semantics are preserved exactly: the point with global arrival
// index i carries insertion weight exp(lambda*i) no matter which lane
// stores it (wall-clock mode substitutes seconds for indices). Lanes
// renormalize their stored scales independently; a query rescales every
// lane's coreset to the newest reference time before unioning — uniform
// per-lane scalings, under which the k-means objective is invariant — so
// the merged union is a coreset of the decayed stream by the same
// Observation 1 argument as the stationary case.
//
// Each batch ends, under its lane's lock, by publishing the lane's view:
// its driver's View (core.Driver.View, unreduced parts of CC's prefix
// cache) with the lane's reference time and applied count. A query reads
// the views without locks and without reducing; only a lane that has
// none (fresh, restored, or fed a one-point batch since) is locked, to
// publish one.
type Sharded struct {
	lanes  *parallel.Lanes[*Shard]
	views  []atomic.Pointer[laneView] // per lane; nil until published
	k      int
	lambda float64

	qmu      sync.Mutex // guards rng at query time
	rng      *rand.Rand
	queryOpt kmeans.Options
}

// NewSharded builds a P-lane forward-decay clusterer with rate lambda.
// newDriver is called once per lane with the lane index and a
// lane-specific seed, as for parallel.NewSharded.
func NewSharded(p, k int, lambda float64, seed int64, queryOpt kmeans.Options,
	newDriver func(lane int, seed int64) *core.Driver) (*Sharded, error) {
	if p < 1 {
		return nil, fmt.Errorf("decay: need at least 1 lane, got %d", p)
	}
	if k < 1 {
		return nil, fmt.Errorf("decay: k must be >= 1, got %d", k)
	}
	shards := make([]*Shard, p)
	for i := range shards {
		drv := newDriver(i, seed+int64(i)*7919)
		if drv == nil {
			return nil, fmt.Errorf("decay: newDriver returned nil for lane %d", i)
		}
		sh, err := NewShard(drv, lambda, 0)
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}
	return newSharded(shards, k, lambda, seed, queryOpt)
}

func newSharded(shards []*Shard, k int, lambda float64, seed int64, queryOpt kmeans.Options) (*Sharded, error) {
	lanes, err := parallel.NewLanes(shards)
	if err != nil {
		return nil, err
	}
	return &Sharded{lanes: lanes, views: make([]atomic.Pointer[laneView], len(shards)),
		k: k, lambda: lambda, rng: rand.New(rand.NewSource(seed)), queryOpt: queryOpt}, nil
}

// laneView is one lane's published summary. It is never modified after
// it is published: pts is freshly built with copies of the weights, so a
// later renormalization of the lane (advanceRef) leaves it unchanged.
type laneView struct {
	refT  float64         // the lane's reference time when pts was built
	pts   []geom.Weighted // the lane driver's View, weighted relative to refT
	count int64           // arrivals the lane's driver had observed
}

// publish builds the lane's view and publishes it. Caller holds the
// lane's lock.
func (s *Sharded) publish(lane int, sh *Shard) *laneView {
	v := &laneView{refT: sh.RefT(), pts: sh.Driver().View(), count: sh.Driver().Count()}
	s.views[lane].Store(v)
	return v
}

// apply runs add on the lane under its lock and publishes the lane's view
// before the applied count advances. A one-point batch, the path weighted
// points take, clears the view instead: the next gather builds it under
// the lane lock, so point-by-point ingest does not maintain CC's prefix
// cache at every bucket, as on concurrent lanes.
func (s *Sharded) apply(lane int, wps []geom.Weighted, add func(sh *Shard)) {
	s.lanes.Apply(lane, len(wps), func(sh *Shard) {
		add(sh)
		if len(wps) == 1 {
			s.views[lane].Store(nil)
		} else {
			s.publish(lane, sh)
		}
	})
}

// NewShardedFromShards reassembles a Sharded around already-restored
// lanes — the persistence layer's entry point. clock, rr and count
// restore the sequencer cursors.
func NewShardedFromShards(k int, lambda float64, seed int64, queryOpt kmeans.Options,
	shards []*Shard, clock, rr, count int64) (*Sharded, error) {
	if k < 1 {
		return nil, fmt.Errorf("decay: k must be >= 1, got %d", k)
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("decay: nil restored shard for lane %d", i)
		}
		if sh.lambda != lambda {
			return nil, fmt.Errorf("decay: lane %d rate %v disagrees with stream rate %v", i, sh.lambda, lambda)
		}
	}
	s, err := newSharded(shards, k, lambda, seed, queryOpt)
	if err != nil {
		return nil, err
	}
	if err := s.lanes.RestoreCursors(clock, rr, count); err != nil {
		return nil, err
	}
	return s, nil
}

// AddBatch observes a batch under arrival-count decay: the batch's
// points take the next len(wps) global arrival indices as their decay
// times.
func (s *Sharded) AddBatch(wps []geom.Weighted) {
	if len(wps) == 0 {
		return
	}
	first, lane := s.lanes.Reserve(len(wps))
	s.apply(lane, wps, func(sh *Shard) { sh.AddBatchAt(float64(first), 1, wps) })
}

// AddBatchWall observes a batch under wall-clock decay: every point in
// the batch shares the timestamp sec (seconds since the stream epoch,
// captured by the caller at sequencing time). Arrival indices are still
// consumed so Count keeps meaning total arrivals.
func (s *Sharded) AddBatchWall(sec float64, wps []geom.Weighted) {
	if len(wps) == 0 {
		return
	}
	_, lane := s.lanes.Reserve(len(wps))
	s.apply(lane, wps, func(sh *Shard) { sh.AddBatchAt(sec, 0, wps) })
}

// Coreset returns the union of the lane views rescaled to the newest
// lane reference time: a coreset of the decayed stream. See Gather.
func (s *Sharded) Coreset() []geom.Weighted {
	union, _ := s.Gather()
	return union
}

// Gather returns the union of every lane's view, each rescaled from its
// own reference time to the newest one (factors never exceed 1, so they
// cannot overflow; entries whose weights underflow to zero, more than
// ~1000 half-lives stale, are dropped), and the arrivals it covers, the
// sum of the views' counts. Views are read without locks; a lane that
// has none is locked only while it builds and publishes one.
func (s *Sharded) Gather() ([]geom.Weighted, int64) {
	views := make([]*laneView, len(s.views))
	globalRef := math.Inf(-1)
	size, count := 0, int64(0)
	for i := range s.views {
		v := s.views[i].Load()
		if v == nil {
			s.lanes.View(i, func(sh *Shard) {
				if v = s.views[i].Load(); v == nil {
					v = s.publish(i, sh)
				}
			})
		}
		views[i] = v
		globalRef = math.Max(globalRef, v.refT)
		size += len(v.pts)
		count += v.count
	}
	union := make([]geom.Weighted, 0, size)
	for _, v := range views {
		union = geom.AppendScaled(union, v.pts, math.Exp(s.lambda*(v.refT-globalRef)))
	}
	return union, count
}

// CoresetCenters runs the query-time k-means++ over an already-merged
// coreset (as returned by Coreset) — split out so the serving layer can
// time the merge and the solve as separate trace stages.
func (s *Sharded) CoresetCenters(union []geom.Weighted) []geom.Point {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	centers, _ := kmeans.Run(s.rng, union, s.k, s.queryOpt)
	return centers
}

// Centers answers a global k-means query over the decayed stream.
func (s *Sharded) Centers() []geom.Point {
	return s.CoresetCenters(s.Coreset())
}

// Quiesce locks every lane for a consistent cut; see
// parallel.Lanes.Quiesce.
func (s *Sharded) Quiesce(f func(shards []*Shard, clock, rr, count int64) error) error {
	return s.lanes.Quiesce(f)
}

// Count returns total arrivals applied across lanes.
func (s *Sharded) Count() int64 { return s.lanes.Count() }

// Clock returns the arrival indices issued so far (>= Count while
// batches are in flight).
func (s *Sharded) Clock() int64 { return s.lanes.Clock() }

// NumLanes returns the ingest parallelism.
func (s *Sharded) NumLanes() int { return s.lanes.NumLanes() }

// K returns the number of centers answered by queries.
func (s *Sharded) K() int { return s.k }

// Lambda returns the decay rate.
func (s *Sharded) Lambda() float64 { return s.lambda }

// PointsStored sums lane memory in points.
func (s *Sharded) PointsStored() int {
	total := 0
	s.lanes.Each(func(_ int, sh *Shard) { total += sh.Driver().PointsStored() })
	return total
}

// Name identifies the algorithm in reports.
func (s *Sharded) Name() string {
	var inner string
	s.lanes.View(0, func(sh *Shard) { inner = sh.Driver().Name() })
	return fmt.Sprintf("Decay[%dx%s]", s.lanes.NumLanes(), inner)
}

// Dim probes the point dimension from stored points (0 when empty).
func (s *Sharded) Dim() int {
	dim := 0
	s.lanes.Each(func(_ int, sh *Shard) {
		if dim != 0 {
			return
		}
		for _, wp := range sh.Driver().CoresetUnion() {
			dim = len(wp.P)
			return
		}
	})
	return dim
}
