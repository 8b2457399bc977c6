// Package core implements the paper's primary contribution: the stream
// clustering driver (Algorithm 1) and the three fast-query algorithms built
// on coreset caching — CC (Algorithm 3), RCC (Algorithms 4–6) and OnlineCC
// (Algorithm 7) — plus the prior-art CT baseline they are compared against.
package core

import (
	"math/rand"

	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

// Structure is the clustering data structure D plugged into the driver
// (Algorithm 1). CT, CC and RCC implement it.
type Structure interface {
	// Update inserts one full base bucket of m points.
	Update(bucket []geom.Weighted)
	// Coreset returns a weighted summary of every full bucket inserted so
	// far. The driver unions it with the partial bucket before running
	// k-means++.
	Coreset() []geom.Weighted
	// PointsStored reports the structure's memory footprint in points.
	PointsStored() int
	// Name identifies the structure in reports.
	Name() string
}

// Clusterer is the façade shared by every streaming algorithm in this
// repository: feed points one at a time, ask for k centers at any moment.
// Implementations are not safe for concurrent use.
type Clusterer interface {
	// Add observes one stream point with weight 1.
	Add(p geom.Point)
	// Centers returns k cluster centers for everything observed so far.
	Centers() []geom.Point
	// PointsStored reports total memory in stored points (Table 4 metric).
	PointsStored() int
	// Name identifies the algorithm in reports.
	Name() string
}

// Driver batches arriving points into base buckets of size m and forwards
// full buckets to the underlying Structure (Algorithm 1,
// StreamCluster-Update). At query time it runs k-means++ over the
// structure's coreset union plus the current partial bucket
// (StreamCluster-Query).
//
// The driver owns the storage of every point it keeps: each arriving
// point's coordinates are copied into a coordinate block allocated per
// base bucket, so the caller may reuse or mutate its slices after the
// call, and a point left in the partial bucket pins one bucket-sized
// block rather than whatever request buffer it was decoded into.
type Driver struct {
	s        Structure
	k        int
	m        int
	rng      *rand.Rand
	queryOpt kmeans.Options
	partial  []geom.Weighted
	block    []float64 // coordinate storage behind partial's points
	count    int64     // total points observed
}

// NewDriver wraps s with the batching driver. k is the number of centers
// returned at query time, m the base bucket size, queryOpt the k-means++
// configuration used at query time.
func NewDriver(s Structure, k, m int, rng *rand.Rand, queryOpt kmeans.Options) *Driver {
	if k < 1 {
		panic("core: k < 1")
	}
	if m < 1 {
		panic("core: bucket size m < 1")
	}
	return &Driver{s: s, k: k, m: m, rng: rng, queryOpt: queryOpt,
		partial: make([]geom.Weighted, 0, m)}
}

// Add implements Clusterer.
func (d *Driver) Add(p geom.Point) { d.AddWeighted(geom.Weighted{P: p, W: 1}) }

// AddWeighted observes one weighted stream point, copying its
// coordinates into driver-owned storage.
func (d *Driver) AddWeighted(wp geom.Weighted) {
	d.count++
	var p geom.Point
	d.block, p = geom.AppendOwned(d.block, wp.P, d.m-len(d.partial))
	d.partial = append(d.partial, geom.Weighted{P: p, W: wp.W})
	if len(d.partial) == d.m {
		d.s.Update(d.partial)
		d.partial = make([]geom.Weighted, 0, d.m)
		d.block = nil
	}
}

// Warm runs the structure's coreset query if the structure caches
// coresets (CC, RCC) and gained a bucket since its last query, so the
// next Coreset or CoresetUnion is an exact cache hit instead of a reduce.
// Lane-sharded ingest calls it at the end of each batch, while the lane
// is still locked, which moves the reduce from the query path onto the
// ingest path. CT keeps no cache; for it Warm does nothing.
func (d *Driver) Warm() {
	if w, ok := d.s.(interface{ Warm() }); ok {
		w.Warm()
	}
}

// Centers implements Clusterer: k-means++ on coreset ∪ partial bucket.
func (d *Driver) Centers() []geom.Point {
	cs := d.s.Coreset()
	union := make([]geom.Weighted, 0, len(cs)+len(d.partial))
	union = append(union, cs...)
	union = append(union, d.partial...)
	centers, _ := kmeans.Run(d.rng, union, d.k, d.queryOpt)
	return centers
}

// CoresetUnion returns the structure coreset plus partial bucket without
// running k-means++ — the raw summary a downstream consumer (e.g. the
// parallel merger or the persistence layer) would want.
func (d *Driver) CoresetUnion() []geom.Weighted {
	cs := d.s.Coreset()
	union := make([]geom.Weighted, 0, len(cs)+len(d.partial))
	union = append(union, cs...)
	union = append(union, d.partial...)
	return union
}

// PointsStored implements Clusterer: structure memory plus partial bucket.
func (d *Driver) PointsStored() int { return d.s.PointsStored() + len(d.partial) }

// Name implements Clusterer.
func (d *Driver) Name() string { return d.s.Name() }

// Count returns the number of points observed so far.
func (d *Driver) Count() int64 { return d.count }

// K returns the configured number of clusters.
func (d *Driver) K() int { return d.k }

// M returns the configured base bucket size.
func (d *Driver) M() int { return d.m }

// Structure exposes the wrapped structure (for tests and persistence).
func (d *Driver) Structure() Structure { return d.s }

// Partial returns the current partial bucket (aliased; do not modify).
func (d *Driver) Partial() []geom.Weighted { return d.partial }

// ScalePartialWeights multiplies the partial bucket's weights by factor
// (forward-decay epoch support; see the decay package).
func (d *Driver) ScalePartialWeights(factor float64) {
	for i := range d.partial {
		d.partial[i].W *= factor
	}
}
