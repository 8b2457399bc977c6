package streamkm

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"streamkm/internal/decay"
	"streamkm/internal/geom"
	"streamkm/internal/parallel"
	"streamkm/internal/persist"
	"streamkm/internal/trace"
	"streamkm/internal/window"
)

// laneSet is one variant's lane-sharded pipeline as a laneBackend drives
// it: concurrent lanes (parallel.Sharded), forward-decayed lanes
// (decay.Sharded) or sliding-window lanes (window.Sharded). Each lane
// keeps a coreset of its substream, so the union a gather returns is a
// coreset of the whole stream (the paper's Observation 1; for windows,
// Braverman et al.'s union of per-lane window coresets).
type laneSet interface {
	// AddBatch observes a batch on one lane.
	AddBatch(wps []geom.Weighted)
	// AddWeighted observes one weighted point.
	AddWeighted(wp geom.Weighted)
	// Gather returns the union of the lane summaries and the number of
	// arrivals it covers; the count never exceeds what the union covers.
	Gather() ([]geom.Weighted, int64)
	// NumLanes reports the lane count.
	NumLanes() int
	Count() int64
	PointsStored() int
	Name() string
	// CoresetCenters runs the query k-means over a gathered union.
	CoresetCenters(union []geom.Weighted) []geom.Point
	// snapshot writes the variant's snapshot envelope for b to w.
	snapshot(w io.Writer, b *laneBackend) error
}

// laneBackend serves any lane set behind one cached-centers fast path:
// the centers computed by the previous query are reused until the stream
// has grown by more than a factor alpha since they were computed — the
// same cost-staleness idea OnlineCC (Algorithm 7) uses to answer most
// queries in O(1). A stale cache triggers exactly one recomputation
// (single-flight): queries that find the cache stale while it runs wait
// for it and return its result, unless the entry it installs is still
// stale for them. The recomputation gathers the lanes (the shard-merge
// trace stage), runs the query k-means over the union, and stamps the
// cache entry with the arrivals the union covers.
//
// The freshness test keys on arrival count only. For windowed lanes
// expiry is keyed to arrival order, and for decayed lanes with no new
// arrivals decay scales every weight by the same factor, which leaves
// k-means centers unchanged; so a count-fresh entry stays correct as
// long as no new points arrive.
type laneBackend struct {
	spec  BackendSpec
	lanes laneSet
	alpha float64

	cache        atomic.Pointer[centersSnapshot]
	refreshMu    sync.Mutex // single-flight guard for recomputation
	hits, misses atomic.Int64

	// refreshed, when set, sees every refresh's union and the cache entry
	// stamped from it (a test hook; nil otherwise).
	refreshed func(union []geom.Weighted, entry *centersSnapshot)
}

// centersSnapshot is one immutable cache entry: the centers computed by a
// query and the number of points the union they were computed from
// covers.
type centersSnapshot struct {
	centers []Point
	count   int64
}

// AddBatch observes a batch of unit-weight points on one lane, under a
// single lane lock acquisition — the preferred ingest path for networked
// producers. Successive batches rotate across lanes.
func (b *laneBackend) AddBatch(pts [][]float64) {
	if len(pts) == 0 {
		return
	}
	wps := make([]geom.Weighted, len(pts))
	for i, p := range pts {
		wps[i] = geom.Weighted{P: geom.Point(p), W: 1}
	}
	b.lanes.AddBatch(wps)
}

// AddWeighted observes one point carrying weight w > 0.
func (b *laneBackend) AddWeighted(p []float64, w float64) {
	b.lanes.AddWeighted(geom.Weighted{P: geom.Point(p), W: w})
}

// Centers returns k cluster centers for everything observed so far,
// from the cache while it is fresh. The returned slices are copies owned
// by the caller.
func (b *laneBackend) Centers() [][]float64 {
	return b.CentersContext(context.Background())
}

// CentersContext is Centers carrying the request context, so the
// shard-merge stage of a cache-miss recomputation lands in the request's
// trace span.
func (b *laneBackend) CentersContext(ctx context.Context) [][]float64 {
	n := b.lanes.Count()
	if snap := b.cache.Load(); snap != nil && fresh(n, snap.count, b.alpha) {
		b.hits.Add(1)
		return clonePoints(snap.centers)
	}
	b.misses.Add(1)
	b.refreshMu.Lock()
	defer b.refreshMu.Unlock()
	// A query that queued behind another's recomputation reuses its
	// result instead of recomputing again.
	if snap := b.cache.Load(); snap != nil && fresh(n, snap.count, b.alpha) {
		return clonePoints(snap.centers)
	}
	return clonePoints(b.refreshLocked(ctx))
}

// Refresh recomputes the centers unconditionally, replaces the cache, and
// returns them. Use it when an up-to-the-last-point answer matters more
// than latency.
func (b *laneBackend) Refresh() [][]float64 {
	return b.RefreshContext(context.Background())
}

// RefreshContext is Refresh carrying the request context for trace
// staging.
func (b *laneBackend) RefreshContext(ctx context.Context) [][]float64 {
	b.refreshMu.Lock()
	defer b.refreshMu.Unlock()
	return clonePoints(b.refreshLocked(ctx))
}

// refreshLocked gathers the lanes (the shard-merge trace stage), runs the
// query k-means over the union, and installs the new cache entry, stamped
// with the arrivals the union covers. Caller holds refreshMu.
func (b *laneBackend) refreshLocked(ctx context.Context) []Point {
	done := trace.FromContext(ctx).StartStage("shard-merge")
	union, count := b.lanes.Gather()
	done()
	cs := b.lanes.CoresetCenters(union)
	entry := &centersSnapshot{centers: make([]Point, len(cs)), count: count}
	for i, p := range cs {
		entry.centers[i] = []float64(p)
	}
	b.cache.Store(entry)
	if b.refreshed != nil {
		b.refreshed(union, entry)
	}
	return entry.centers
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

// CacheStats reports how many Centers calls were answered from the
// cached-centers fast path (hits) versus recomputed (misses).
func (b *laneBackend) CacheStats() (hits, misses int64) {
	return b.hits.Load(), b.misses.Load()
}

// Count returns the number of points observed so far (one atomic load).
func (b *laneBackend) Count() int64 { return b.lanes.Count() }

// PointsStored sums lane memory in points (Table 4 metric).
func (b *laneBackend) PointsStored() int { return b.lanes.PointsStored() }

// Name identifies the algorithm, e.g. "Sharded[8xCC]".
func (b *laneBackend) Name() string { return b.lanes.Name() }

// NumShards returns the ingest lane count.
func (b *laneBackend) NumShards() int { return b.lanes.NumLanes() }

// Spec reports the spec this backend was opened or restored with.
func (b *laneBackend) Spec() BackendSpec { return b.spec }

// Snapshot serializes the backend's complete logical state to w as one
// versioned, checksummed envelope. The lanes are quiesced for the
// duration — concurrent ingest blocks briefly, queries on the cached fast
// path keep being served — making the snapshot an exactly consistent cut
// of the stream. Safe for concurrent use.
func (b *laneBackend) Snapshot(w io.Writer) error { return b.lanes.snapshot(w, b) }

// concurrentLanes are infinite-stream lanes. Batches rotate round-robin
// across the shards; a single weighted point goes through AddWeightedTo,
// which clears its shard's view rather than publishing one per point.
type concurrentLanes struct{ *parallel.Sharded }

func (l concurrentLanes) AddBatch(wps []geom.Weighted) { l.AddBatchTo(l.NextShard(), wps) }

func (l concurrentLanes) NumLanes() int { return l.NumShards() }

// snapshot writes the v2 sharded envelope with the cached-centers entry,
// wrapped in a v3 typed envelope only when the spec carries quotas, so
// quota-free snapshots stay byte-compatible with pre-quota files.
func (l concurrentLanes) snapshot(w io.Writer, b *laneBackend) error {
	// refreshMu orders the snapshot against cache refreshes: both take
	// refreshMu before any shard lock, so the cache entry written below
	// can never be newer than the quiesced shard state.
	b.refreshMu.Lock()
	env, err := persist.SnapshotSharded(l.Sharded)
	snap := b.cache.Load()
	b.refreshMu.Unlock()
	if err != nil {
		return err
	}
	s := env.Sharded
	s.Alpha = b.alpha
	if snap != nil {
		s.HasCache = true
		s.CachedCount = snap.count
		s.CachedCenters = clonePoints(snap.centers)
	}
	if !b.spec.hasQuota() {
		return persist.Save(w, env)
	}
	return persist.Save(w, persist.Envelope{Kind: persist.KindBackend, Backend: &persist.BackendSnapshot{
		Type:             persist.BackendConcurrent,
		Algo:             string(b.spec.Algo),
		K:                s.K,
		Dim:              s.Dim,
		Shards:           len(s.Shards),
		Count:            s.Count,
		PointsPerSec:     b.spec.PointsPerSec,
		BytesPerSec:      b.spec.BytesPerSec,
		MaxResidentBytes: b.spec.MaxResidentBytes,
		Sharded:          s,
	}})
}

// decayedLanes are forward-decay lanes: the tiny sequencing step stamps
// every batch's global decay times (arrival indices, or monotonic
// wall-clock seconds in HalfLifeSeconds mode), coreset insertion proceeds
// under per-lane locks, and each batch ends by publishing its lane's
// view, which a gather rescales to a common reference time without
// taking a lane lock.
type decayedLanes struct {
	*decay.Sharded

	// Wall-clock mode (HalfLifeSeconds): decay times are seconds since
	// the stream epoch, read from Go's monotonic clock. base carries the
	// seconds accumulated before the last restore, so a restarted stream
	// continues the same timeline rather than rejuvenating its points.
	wall  bool
	epoch time.Time
	base  float64
}

// now returns the stream-relative timestamp for wall-clock decay,
// captured at sequencing time.
func (l *decayedLanes) now() float64 {
	return l.base + time.Since(l.epoch).Seconds()
}

func (l *decayedLanes) AddBatch(wps []geom.Weighted) {
	if l.wall {
		l.AddBatchWall(l.now(), wps)
	} else {
		l.Sharded.AddBatch(wps)
	}
}

func (l *decayedLanes) AddWeighted(wp geom.Weighted) { l.AddBatch([]geom.Weighted{wp}) }

// snapshot quiesces every lane — the sequencer cursors and all per-lane
// summaries captured under one global lock ladder, so acked == stored —
// and writes a v4 typed envelope of per-lane sub-envelopes.
func (l *decayedLanes) snapshot(w io.Writer, b *laneBackend) error {
	return l.Quiesce(func(shards []*decay.Shard, clock, rr, count int64) error {
		var elapsed float64
		if l.wall {
			// Read inside the quiesce: every applied batch's timestamp
			// precedes it, so the restored clock can never run behind a
			// stored point.
			elapsed = l.now()
		}
		sss, dim, err := persist.SnapshotDecayedShards(shards)
		if err != nil {
			return err
		}
		if dim == 0 {
			dim = b.spec.Dim
		}
		return persist.Save(w, persist.Envelope{Kind: persist.KindBackend, Backend: &persist.BackendSnapshot{
			Type:             persist.BackendDecayed,
			Algo:             string(b.spec.Algo),
			K:                b.spec.K,
			Dim:              dim,
			Shards:           len(shards),
			HalfLife:         b.spec.HalfLife,
			HalfLifeSeconds:  b.spec.HalfLifeSeconds,
			Count:            count,
			Clock:            clock,
			RR:               rr,
			ElapsedSeconds:   elapsed,
			PointsPerSec:     b.spec.PointsPerSec,
			BytesPerSec:      b.spec.BytesPerSec,
			MaxResidentBytes: b.spec.MaxResidentBytes,
			DecayedShards:    sss,
		}})
	})
}

// windowedLanes are sliding-window lanes: sequencing assigns global
// arrival indices, per-lane exponential histograms absorb the batches in
// parallel, and a gather expires every lane against the global clock
// before unioning the lane coresets.
type windowedLanes struct{ *window.Sharded }

func (l windowedLanes) AddWeighted(wp geom.Weighted) { l.AddBatch([]geom.Weighted{wp}) }

// Gather reads the count before the coresets, so the count never
// exceeds the arrivals the union covers.
func (l windowedLanes) Gather() ([]geom.Weighted, int64) {
	count := l.Count()
	return l.Coreset(), count
}

// snapshot quiesces every lane and writes a v4 typed envelope of
// per-lane window snapshots plus the sequencer cursors.
func (l windowedLanes) snapshot(w io.Writer, b *laneBackend) error {
	return l.Quiesce(func(subs []*window.Clusterer, clock, rr, count int64) error {
		wss := make([]window.Snapshot, len(subs))
		dim := 0
		for i, wc := range subs {
			wss[i] = wc.Snapshot()
			if dim == 0 {
				dim = wc.Dim()
			}
		}
		if dim == 0 {
			dim = b.spec.Dim
		}
		return persist.Save(w, persist.Envelope{Kind: persist.KindBackend, Backend: &persist.BackendSnapshot{
			Type:             persist.BackendWindowed,
			K:                b.spec.K,
			Dim:              dim,
			Shards:           len(subs),
			WindowN:          b.spec.WindowN,
			Count:            count,
			Clock:            clock,
			RR:               rr,
			PointsPerSec:     b.spec.PointsPerSec,
			BytesPerSec:      b.spec.BytesPerSec,
			MaxResidentBytes: b.spec.MaxResidentBytes,
			WindowShards:     wss,
		}})
	})
}
