package core

import (
	"fmt"
	"math/rand"

	"streamkm/internal/basen"
	"streamkm/internal/coreset"
	"streamkm/internal/coretree"
	"streamkm/internal/geom"
)

// DefaultRCCDegrees returns the merge degrees r_i = 2^(2^i) for orders
// 0..order (Section 4.2), capped at 1<<16 to keep arithmetic sane for very
// deep structures. depth 3 yields [2 4 16 256].
func DefaultRCCDegrees(order int) []int {
	out := make([]int, order+1)
	for i := range out {
		shift := uint(1) << uint(i)
		if shift > 16 {
			shift = 16
		}
		out[i] = 1 << shift
	}
	return out
}

// RCC is the Recursive Cached Coreset Tree (Algorithms 4–6). Each order-i
// structure keeps per-level bucket lists with merge degree r_i (large, so
// few levels exist) plus, for every level, a nested order-(i-1) RCC holding
// the same buckets. At query time the cached prefix is combined with the
// nested structure's recursively cached summary of the single partially
// filled level, so only ~2 coresets are merged per recursion order —
// O(log log N) total — while the large merge degrees keep coreset levels
// O(1).
type RCC struct {
	root    *rccNode
	degrees []int
	m       int
	builder coreset.Builder
	rng     *rand.Rand
	stats   CCStats // outcomes of the outermost structure's queries
}

// NewRCC returns an RCC of the given order (nesting depth) with merge
// degrees r_i = 2^(2^i). The paper's experiments use order 3.
func NewRCC(order, m int, b coreset.Builder, rng *rand.Rand) *RCC {
	return NewRCCWithDegrees(DefaultRCCDegrees(order), m, b, rng)
}

// NewRCCWithDegrees returns an RCC whose order-i structures use merge
// degree degrees[i]. len(degrees) determines the nesting depth: the
// outermost structure has order len(degrees)-1. Every degree must be >= 2
// and degrees should increase with order (the construction requires
// r_{i+1} = r_i^2 for its guarantees, but any increasing sequence works
// operationally).
func NewRCCWithDegrees(degrees []int, m int, b coreset.Builder, rng *rand.Rand) *RCC {
	if len(degrees) == 0 {
		panic("core: RCC needs at least one merge degree")
	}
	for i, d := range degrees {
		if d < 2 {
			panic(fmt.Sprintf("core: RCC degree[%d] = %d < 2", i, d))
		}
	}
	r := &RCC{degrees: degrees, m: m, builder: b, rng: rng}
	r.root = r.newNode(len(degrees) - 1)
	return r
}

// Update implements Structure (RCC-Update): insert one base bucket.
func (r *RCC) Update(bucket []geom.Weighted) {
	n := r.root.n + 1
	r.root.update(coretree.Bucket{Points: bucket, Level: 0, Start: n, End: n})
}

// Coreset implements Structure (RCC-Coreset).
func (r *RCC) Coreset() []geom.Weighted { return r.CoresetBucket().Points }

// CoresetBucket runs the recursive query (Algorithm 6) and returns the
// resulting bucket with its coreset level.
func (r *RCC) CoresetBucket() coretree.Bucket { return r.root.coreset(&r.stats) }

// Warm runs the query path if the outermost structure has not cached the
// coreset for [1, N] yet, so that the next query is an exact hit. When it
// is cached already, Warm touches neither the caches nor Stats.
func (r *RCC) Warm() {
	if n := r.root.n; n > 0 {
		if _, ok := r.root.cache.get(n); !ok {
			r.CoresetBucket()
		}
	}
}

// Stats counts how the outermost structure resolved queries, with CC's
// three outcomes: an exact hit, the cached major prefix plus the nested
// summary of one level, or a fallback over every level. Nested
// structures are not counted. The counters are not persisted; a restored
// RCC starts from zero.
func (r *RCC) Stats() CCStats { return r.stats }

// PointsStored implements Structure. Buckets referenced by both a level
// list and its nested structure are counted once per holder, matching the
// logical accounting of the paper's Table 4 (physical memory is lower
// because Go shares the underlying point storage).
func (r *RCC) PointsStored() int { return r.root.pointsStored() }

// Name implements Structure.
func (r *RCC) Name() string { return "RCC" }

// Order returns the nesting depth of the outermost structure.
func (r *RCC) Order() int { return r.root.order }

// ScaleWeights multiplies every stored weight — lists, caches, and nested
// structures — by factor (forward-decay epoch support). Buckets shared
// between a list and its nested structure are scaled once: the nested
// structure holds the same slices, so scaling the parent's lists suffices
// for shared buckets, and only caches (which hold fresh points) need their
// own pass.
func (r *RCC) ScaleWeights(factor float64) { r.root.scaleWeights(factor, true) }

// scaleWeights scales this node's cache always, and its lists only when
// scaleLists is set. Child nodes share their list buckets with this node's
// lists (the same backing arrays), so recursion scales only the children's
// caches to avoid double-scaling — except child-private merged buckets,
// which do live in child lists; those are reached because child lists hold
// either shared buckets (already scaled via parent) or buckets merged from
// them (fresh arrays, scaled via the child's list pass).
func (nd *rccNode) scaleWeights(factor float64, scaleLists bool) {
	if scaleLists {
		for _, lst := range nd.lists {
			for _, b := range lst {
				for i := range b.Points {
					b.Points[i].W *= factor
				}
			}
		}
	}
	for _, key := range nd.cache.keys() {
		b, _ := nd.cache.get(key)
		for i := range b.Points {
			b.Points[i].W *= factor
		}
	}
	for _, ch := range nd.children {
		if ch != nil {
			ch.scaleWeightsPrivate(factor)
		}
	}
}

// scaleWeightsPrivate scales the buckets a child owns privately: merged
// buckets in its lists above level 0 (level-0 entries alias the parent's
// list and were already scaled), its cache, and recursively its children.
func (nd *rccNode) scaleWeightsPrivate(factor float64) {
	for l, lst := range nd.lists {
		if l == 0 {
			continue // aliases the parent's buckets; already scaled
		}
		for _, b := range lst {
			for i := range b.Points {
				b.Points[i].W *= factor
			}
		}
	}
	for _, key := range nd.cache.keys() {
		b, _ := nd.cache.get(key)
		for i := range b.Points {
			b.Points[i].W *= factor
		}
	}
	for _, ch := range nd.children {
		if ch != nil {
			ch.scaleWeightsPrivate(factor)
		}
	}
}

// rccNode is one RCC(i) structure: R.L lists, R.cache, and nested RCC(i-1)
// structures per level.
type rccNode struct {
	owner    *RCC
	order    int
	r        int
	n        int // buckets received by this node
	lists    [][]coretree.Bucket
	children []*rccNode // parallel to lists; nil entries until used; only for order > 0
	cache    *coresetCache
}

func (r *RCC) newNode(order int) *rccNode {
	return &rccNode{
		owner: r,
		order: order,
		r:     r.degrees[order],
		cache: newCoresetCache(),
	}
}

// ensureLevel grows lists/children so that level l exists.
func (nd *rccNode) ensureLevel(l int) {
	for len(nd.lists) <= l {
		nd.lists = append(nd.lists, nil)
		nd.children = append(nd.children, nil)
	}
	if nd.order > 0 && nd.children[l] == nil {
		nd.children[l] = nd.owner.newNode(nd.order - 1)
	}
}

// update implements Algorithm 5 (RCC-Update).
func (nd *rccNode) update(b coretree.Bucket) {
	nd.n++
	nd.ensureLevel(0)
	nd.lists[0] = append(nd.lists[0], b)
	if nd.order > 0 {
		nd.children[0].update(b)
	}
	for l := 0; l < len(nd.lists); l++ {
		if len(nd.lists[l]) < nd.r {
			break
		}
		merged := coretree.MergeBuckets(nd.owner.builder, nd.owner.rng, nd.owner.m, nd.lists[l]...)
		nd.ensureLevel(l + 1)
		nd.lists[l+1] = append(nd.lists[l+1], merged)
		if nd.order > 0 {
			nd.children[l+1].update(merged)
		}
		// Empty the list and reset the nested structure for this level.
		nd.lists[l] = nil
		if nd.order > 0 {
			nd.children[l] = nd.owner.newNode(nd.order - 1)
		}
	}
}

// coreset implements Algorithm 6 (RCC-Coreset), counting the outcome in
// st when st is non-nil.
func (nd *rccNode) coreset(st *CCStats) coretree.Bucket {
	if st == nil {
		st = new(CCStats) // nested structures go uncounted
	}
	if nd.n == 0 {
		return coretree.Bucket{}
	}
	if b, ok := nd.cache.get(nd.n); ok {
		st.ExactHits++
		return b
	}

	var parts []coretree.Bucket
	major := basen.Major(nd.n, nd.r)
	if b1, ok := nd.cache.get(major); major > 0 && ok {
		// Cached prefix [1, major] plus a recursively cached summary of the
		// lowest non-empty level, which spans (major, n].
		st.MajorHits++
		lstar := nd.lowestNonEmptyLevel()
		parts = append(parts, b1)
		if nd.order > 0 {
			parts = append(parts, nd.children[lstar].coreset(nil))
		} else {
			parts = append(parts, nd.lists[lstar]...)
		}
	} else {
		// Fallback: union the recursive summaries of every level (order > 0)
		// or every bucket (order 0). Iterate levels from highest to lowest so
		// spans stay in stream order.
		st.Fallbacks++
		for l := len(nd.lists) - 1; l >= 0; l-- {
			if len(nd.lists[l]) == 0 {
				continue
			}
			if nd.order > 0 {
				parts = append(parts, nd.children[l].coreset(nil))
			} else {
				parts = append(parts, nd.lists[l]...)
			}
		}
	}

	merged := coretree.MergeBuckets(nd.owner.builder, nd.owner.rng, nd.owner.m, parts...)
	nd.cache.put(nd.n, merged)
	nd.cache.evictTo(nd.n, nd.r)
	return merged
}

// lowestNonEmptyLevel returns the smallest l with a non-empty list. Must
// only be called when n > 0.
func (nd *rccNode) lowestNonEmptyLevel() int {
	for l, lst := range nd.lists {
		if len(lst) > 0 {
			return l
		}
	}
	panic("core: RCC node has buckets but no non-empty level")
}

func (nd *rccNode) pointsStored() int {
	s := nd.cache.pointsStored()
	for _, lst := range nd.lists {
		for _, b := range lst {
			s += len(b.Points)
		}
	}
	for _, ch := range nd.children {
		if ch != nil {
			s += ch.pointsStored()
		}
	}
	return s
}
