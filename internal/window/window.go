// Package window implements sliding-window streaming k-means: queries
// summarize only the most recent W points of the stream, the recency
// semantics of Braverman, Lang, Levin & Monemizadeh, "Clustering Problems
// on Sliding Windows" (see PAPERS.md) — the standard alternative to the
// forward-decay weighting in internal/decay when tenants want a hard
// horizon rather than a smooth fade.
//
// The construction is an exponential histogram of coresets. Arriving
// points fill base buckets of m points; each bucket remembers the span of
// arrival indices it summarizes. A level holds at most r buckets: when it
// overflows, the two oldest are coreset-reduced (merge-and-reduce, the
// same Observation 1/2 machinery the infinite-stream structures use) into
// one bucket a level up, so a level-j bucket summarizes ~2^j base
// buckets. A bucket whose entire span has left the window is dropped —
// expiry is O(1) amortized and frees its memory immediately. The single
// oldest surviving bucket may straddle the window boundary; it is
// included whole, the usual exponential-histogram relaxation: the answer
// covers a window within a factor (1 + 1/r) of the requested length,
// converging on exact as the straddling bucket's span shrinks relative
// to W.
//
// Memory is O(r · m · log(W/m)) points — still polylogarithmic, so
// windowed tenants hibernate and restore exactly like infinite-stream
// ones.
package window

import (
	"fmt"
	"math/rand"

	"streamkm/internal/coreset"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

// bucket is one histogram entry: a coreset of the points that arrived in
// the inclusive span [start, end] of 1-based arrival indices.
type bucket struct {
	points     []geom.Weighted
	start, end int64
}

// Clusterer is a sliding-window streaming k-means clusterer. It is not
// safe for concurrent use; the public streamkm windowed backend wraps it
// with a mutex.
type Clusterer struct {
	k       int
	m       int
	r       int
	windowN int64

	builder  coreset.Builder
	rng      *rand.Rand
	queryOpt kmeans.Options

	levels       [][]bucket // levels[j]: buckets in arrival order, oldest first
	partial      []geom.Weighted
	block        []float64 // coordinate storage behind partial's points
	partialStart int64     // arrival index of partial[0]; 0 while partial is empty
	partialEnd   int64     // arrival index of the newest partial point; 0 while empty
	count        int64     // total arrivals observed (shard mode: newest global index seen)
}

// New creates a sliding-window clusterer answering k centers over the
// last windowN arrivals, with per-bucket coreset size m and histogram
// branching r (>= 2; larger r tightens the window boundary at r× the
// memory). windowN must be at least m, so the window always spans at
// least one full bucket.
func New(k, m, r int, windowN int64, b coreset.Builder, rng *rand.Rand, queryOpt kmeans.Options) (*Clusterer, error) {
	if k < 1 {
		return nil, fmt.Errorf("window: k must be >= 1, got %d", k)
	}
	if m < 1 {
		return nil, fmt.Errorf("window: bucket size m must be >= 1, got %d", m)
	}
	if r < 2 {
		return nil, fmt.Errorf("window: branching r must be >= 2, got %d", r)
	}
	if windowN < int64(m) {
		return nil, fmt.Errorf("window: window length %d smaller than bucket size %d", windowN, m)
	}
	if b == nil {
		return nil, fmt.Errorf("window: nil coreset builder")
	}
	return &Clusterer{k: k, m: m, r: r, windowN: windowN,
		builder: b, rng: rng, queryOpt: queryOpt}, nil
}

// Add observes one stream point with weight 1.
func (c *Clusterer) Add(p geom.Point) { c.AddWeighted(geom.Weighted{P: p, W: 1}) }

// AddWeighted observes one weighted point (one arrival tick regardless of
// weight, matching the infinite-stream driver's semantics).
func (c *Clusterer) AddWeighted(wp geom.Weighted) {
	c.AddWeightedAt(c.count+1, wp)
	c.ExpireBefore(c.count - c.windowN)
}

// AddWeightedAt observes one weighted point carrying an explicit global
// arrival index (1-based, strictly greater than any index this clusterer
// has seen). It is the shard-mode ingest path: each lane of a sharded
// windowed stream sees a gapped subsequence of the global indices — the
// gaps belong to sibling lanes — and tags its bucket spans with them, so
// merged buckets from different lanes expire against one shared clock.
// Expiry is NOT performed here; shard mode expires explicitly via
// ExpireBefore with a globally-derived cutoff.
//
// As in core.Driver, the point's coordinates are copied into a
// per-bucket block the clusterer owns; the caller's slice is not kept.
func (c *Clusterer) AddWeightedAt(idx int64, wp geom.Weighted) {
	c.count = idx
	if len(c.partial) == 0 {
		c.partialStart = idx
	}
	var p geom.Point
	c.block, p = geom.AppendOwned(c.block, wp.P, c.m-len(c.partial))
	c.partial = append(c.partial, geom.Weighted{P: p, W: wp.W})
	c.partialEnd = idx
	if len(c.partial) == c.m {
		sealed := bucket{points: c.partial, start: c.partialStart, end: idx}
		c.partial = make([]geom.Weighted, 0, c.m)
		c.block = nil
		c.partialStart = 0
		c.partialEnd = 0
		c.insert(0, sealed)
	}
}

// insert appends b at level j, then carries: a level past r buckets
// merges its two oldest into one bucket one level up, keeping spans
// contiguous and in arrival order.
func (c *Clusterer) insert(j int, b bucket) {
	for {
		for j >= len(c.levels) {
			c.levels = append(c.levels, nil)
		}
		c.levels[j] = append(c.levels[j], b)
		if len(c.levels[j]) <= c.r {
			return
		}
		a, bb := c.levels[j][0], c.levels[j][1]
		c.levels[j] = append(c.levels[j][:0], c.levels[j][2:]...)
		b = bucket{
			points: coreset.MergeBuild(c.builder, c.rng, c.m, a.points, bb.points),
			start:  a.start,
			end:    bb.end,
		}
		j++
	}
}

// ExpireBefore drops every bucket whose span lies entirely at or before
// cutoff (end <= cutoff), plus the partial bucket when even its newest
// point has left the window. The oldest surviving bucket may straddle
// the boundary and is kept whole. Single-stream ingest calls it with
// count-windowN after every arrival; shard mode calls it with a cutoff
// derived from the global arrival clock (on the ingesting lane after
// each batch, and on every lane at query time, so an idle lane cannot
// serve stale points forever).
func (c *Clusterer) ExpireBefore(cutoff int64) {
	if cutoff <= 0 {
		return
	}
	for j := range c.levels {
		lvl := c.levels[j]
		drop := 0
		for drop < len(lvl) && lvl[drop].end <= cutoff {
			drop++
		}
		if drop > 0 {
			c.levels[j] = append(lvl[:0], lvl[drop:]...)
		}
	}
	if len(c.partial) > 0 && c.partialEnd > 0 && c.partialEnd <= cutoff {
		// A query may still hold the expired points, so their block is
		// dropped rather than refilled.
		c.partial = c.partial[:0]
		c.block = nil
		c.partialStart = 0
		c.partialEnd = 0
	}
}

// Coreset returns the union of every live bucket plus the partial bucket
// — a coreset of (a (1+1/r)-approximate cover of) the window. The slice
// is freshly allocated but shares point storage with the structure.
func (c *Clusterer) Coreset() []geom.Weighted {
	var out []geom.Weighted
	for _, lvl := range c.levels {
		for _, b := range lvl {
			out = append(out, b.points...)
		}
	}
	out = append(out, c.partial...)
	return out
}

// Centers returns k cluster centers for the current window.
func (c *Clusterer) Centers() []geom.Point {
	centers, _ := kmeans.Run(c.rng, c.Coreset(), c.k, c.queryOpt)
	return centers
}

// Count returns the total number of points observed so far (the stream
// length, not the window occupancy — restart equivalence is asserted on
// this, like every other backend).
func (c *Clusterer) Count() int64 { return c.count }

// WindowOccupancy returns how many of the last windowN arrivals the
// window currently covers: min(count, windowN).
func (c *Clusterer) WindowOccupancy() int64 {
	if c.count < c.windowN {
		return c.count
	}
	return c.windowN
}

// OldestCovered returns the arrival index of the oldest point still
// contributing to queries — at most windowN+span(oldest bucket) behind
// count (the boundary-straddle relaxation). 0 for an empty structure.
func (c *Clusterer) OldestCovered() int64 {
	oldest := int64(0)
	for _, lvl := range c.levels {
		for _, b := range lvl {
			if oldest == 0 || b.start < oldest {
				oldest = b.start
			}
		}
	}
	if oldest == 0 {
		oldest = c.partialStart
	}
	return oldest
}

// PointsStored reports memory in stored points (Table 4 metric).
func (c *Clusterer) PointsStored() int {
	s := len(c.partial)
	for _, lvl := range c.levels {
		for _, b := range lvl {
			s += len(b.points)
		}
	}
	return s
}

// K returns the configured number of centers.
func (c *Clusterer) K() int { return c.k }

// M returns the per-bucket coreset size.
func (c *Clusterer) M() int { return c.m }

// R returns the histogram branching factor.
func (c *Clusterer) R() int { return c.r }

// WindowN returns the configured window length in points.
func (c *Clusterer) WindowN() int64 { return c.windowN }

// Dim probes the dimension of stored points (0 when empty).
func (c *Clusterer) Dim() int {
	if len(c.partial) > 0 {
		return len(c.partial[0].P)
	}
	for _, lvl := range c.levels {
		for _, b := range lvl {
			if len(b.points) > 0 {
				return len(b.points[0].P)
			}
		}
	}
	return 0
}

// Name identifies the algorithm in reports and stats responses.
func (c *Clusterer) Name() string { return fmt.Sprintf("Window[%d]", c.windowN) }
