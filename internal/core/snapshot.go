package core

import (
	"streamkm/internal/coretree"
	"streamkm/internal/geom"
)

// CCSnapshot is the exported state of a CC structure: its tree plus the
// coreset cache.
type CCSnapshot struct {
	Tree  coretree.TreeSnapshot
	Cache map[int]coretree.Bucket
	Stats CCStats
}

// Snapshot captures the CC's complete logical state (deep copies).
func (c *CC) Snapshot() CCSnapshot {
	cache := make(map[int]coretree.Bucket, c.cache.len())
	for _, key := range c.cache.keys() {
		b, _ := c.cache.get(key)
		cache[key] = coretree.Bucket{
			Points: geom.CloneWeighted(b.Points),
			Level:  b.Level, Start: b.Start, End: b.End,
		}
	}
	return CCSnapshot{Tree: c.tree.Snapshot(), Cache: cache, Stats: c.stats}
}

// Restore replaces the CC's state with the snapshot's.
func (c *CC) Restore(s CCSnapshot) {
	c.tree.Restore(s.Tree)
	c.r = s.Tree.R
	c.m = s.Tree.M
	c.cache = newCoresetCache()
	for key, b := range s.Cache {
		c.cache.put(key, coretree.Bucket{
			Points: geom.CloneWeighted(b.Points),
			Level:  b.Level, Start: b.Start, End: b.End,
		})
	}
	c.stats = s.Stats
}

// RCCSnapshot is the exported state of an RCC: the merge-degree schedule,
// the coreset size, plus the recursive node tree.
type RCCSnapshot struct {
	Degrees []int
	M       int
	Root    RCCNodeSnapshot
}

// RCCNodeSnapshot is the exported state of one RCC(i) structure. Children
// maps a level index to the nested structure's snapshot (levels without a
// nested structure are absent — gob cannot encode nil slice elements).
type RCCNodeSnapshot struct {
	Order    int
	N        int
	Levels   int // len(lists) in the live node
	Lists    [][]coretree.Bucket
	Children map[int]RCCNodeSnapshot
	Cache    map[int]coretree.Bucket
}

// Snapshot captures the RCC's complete logical state (deep copies).
func (r *RCC) Snapshot() RCCSnapshot {
	return RCCSnapshot{
		Degrees: append([]int(nil), r.degrees...),
		M:       r.m,
		Root:    snapshotNode(r.root),
	}
}

// Restore replaces the RCC's state with the snapshot's. The degree schedule
// must match the one the RCC was built with.
func (r *RCC) Restore(s RCCSnapshot) {
	r.degrees = append([]int(nil), s.Degrees...)
	r.m = s.M
	r.root = restoreNode(r, s.Root)
}

func snapshotNode(nd *rccNode) RCCNodeSnapshot {
	s := RCCNodeSnapshot{
		Order:    nd.order,
		N:        nd.n,
		Levels:   len(nd.lists),
		Lists:    make([][]coretree.Bucket, len(nd.lists)),
		Children: make(map[int]RCCNodeSnapshot),
		Cache:    make(map[int]coretree.Bucket, nd.cache.len()),
	}
	for i, lst := range nd.lists {
		s.Lists[i] = cloneBucketSlice(lst)
	}
	for i, ch := range nd.children {
		if ch != nil {
			s.Children[i] = snapshotNode(ch)
		}
	}
	for _, key := range nd.cache.keys() {
		b, _ := nd.cache.get(key)
		s.Cache[key] = cloneBucket(b)
	}
	return s
}

func restoreNode(r *RCC, s RCCNodeSnapshot) *rccNode {
	nd := r.newNode(s.Order)
	nd.n = s.N
	nd.lists = make([][]coretree.Bucket, s.Levels)
	for i, lst := range s.Lists {
		nd.lists[i] = cloneBucketSlice(lst)
	}
	nd.children = make([]*rccNode, s.Levels)
	for i, ch := range s.Children {
		nd.children[i] = restoreNode(r, ch)
	}
	for key, b := range s.Cache {
		nd.cache.put(key, cloneBucket(b))
	}
	return nd
}

func cloneBucket(b coretree.Bucket) coretree.Bucket {
	return coretree.Bucket{
		Points: geom.CloneWeighted(b.Points),
		Level:  b.Level, Start: b.Start, End: b.End,
	}
}

func cloneBucketSlice(bs []coretree.Bucket) []coretree.Bucket {
	out := make([]coretree.Bucket, len(bs))
	for i, b := range bs {
		out[i] = cloneBucket(b)
	}
	return out
}

// DriverSnapshot is the exported state of a Driver: configuration, the
// partial base bucket, and the observation counter. The wrapped structure
// is snapshotted separately (its concrete type decides the format).
type DriverSnapshot struct {
	K       int
	M       int
	Count   int64
	Partial []geom.Weighted
}

// Snapshot captures the driver-level state (not the inner structure).
func (d *Driver) Snapshot() DriverSnapshot {
	return DriverSnapshot{
		K: d.k, M: d.m, Count: d.count,
		Partial: geom.CloneWeighted(d.partial),
	}
}

// Restore replaces the driver-level state (not the inner structure).
func (d *Driver) Restore(s DriverSnapshot) {
	d.k = s.K
	d.m = s.M
	d.count = s.Count
	d.partial = geom.CloneWeighted(s.Partial)
	d.block = nil
}

// OnlineCCSnapshot is the exported state of an OnlineCC: configuration, the
// inner CC, the live centers with their weights, cost estimates and
// bootstrap state.
type OnlineCCSnapshot struct {
	K        int
	M        int
	Alpha    float64
	Eps      float64
	CC       CCSnapshot
	Partial  []geom.Weighted
	Centers  []geom.Point
	Weights  []float64
	PhiPrev  float64
	PhiNow   float64
	InitBuf  []geom.Weighted
	InitSize int
	Ready    bool
	Count    int64
	Stats    OnlineCCStats
}

// Snapshot captures the OnlineCC's complete logical state (deep copies).
func (o *OnlineCC) Snapshot() OnlineCCSnapshot {
	centers := make([]geom.Point, len(o.centers))
	for i, c := range o.centers {
		centers[i] = c.Clone()
	}
	return OnlineCCSnapshot{
		K:        o.k,
		M:        o.m,
		Alpha:    o.alpha,
		Eps:      o.eps,
		CC:       o.cc.Snapshot(),
		Partial:  geom.CloneWeighted(o.partial),
		Centers:  centers,
		Weights:  append([]float64(nil), o.weights...),
		PhiPrev:  o.phiPrev,
		PhiNow:   o.phiNow,
		InitBuf:  geom.CloneWeighted(o.initBuf),
		InitSize: o.initSize,
		Ready:    o.ready,
		Count:    o.count,
		Stats:    o.stats,
	}
}

// Restore replaces the OnlineCC's state with the snapshot's.
func (o *OnlineCC) Restore(s OnlineCCSnapshot) {
	o.k = s.K
	o.m = s.M
	o.alpha = s.Alpha
	o.eps = s.Eps
	o.cc.Restore(s.CC)
	o.partial = geom.CloneWeighted(s.Partial)
	o.centers = make([]geom.Point, len(s.Centers))
	for i, c := range s.Centers {
		o.centers[i] = c.Clone()
	}
	o.weights = append([]float64(nil), s.Weights...)
	o.phiPrev = s.PhiPrev
	o.phiNow = s.PhiNow
	o.initBuf = geom.CloneWeighted(s.InitBuf)
	o.initSize = s.InitSize
	o.ready = s.Ready
	o.count = s.Count
	o.stats = s.Stats
}
