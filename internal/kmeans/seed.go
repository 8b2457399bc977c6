package kmeans

import (
	"math"
	"math/rand"

	"streamkm/internal/geom"
)

// Seeding is the outcome of one k-means++ seeding pass: the chosen centers
// plus every input point's nearest chosen center, which the pass has to
// track anyway to draw the next center. Coreset reduction and query-time
// cost evaluation read the assignment from here instead of rescanning all
// n × k point–center pairs.
type Seeding struct {
	// Centers holds up to k centers, deep copies of input points.
	Centers []geom.Point
	// Assign[i] is the index in Centers of pts[i]'s nearest center. On
	// ties the lowest index wins, as in geom.FlatCenters.Nearest.
	Assign []int
	// MinSq[i] is the squared distance from pts[i] to Centers[Assign[i]],
	// bit-identical to what geom.FlatCenters.Nearest returns for it.
	MinSq []float64
	// Pruned counts the point–center distance evaluations the
	// triangle-inequality bound skipped. Without pruning a pass over n
	// points evaluates n distances per center after the first.
	Pruned int
}

// Pruning constants. Elkan's bound skips point p for a new center c when
// d²(c, a) > 4·d²(p, a), where a is p's nearest center so far: then
// d(p, c) >= d(c, a) − d(p, a) > d(p, a), so c can neither lower p's D²
// nor take it over. pruneFactor adds a relative margin of 1e-9 on top of
// the exact 4, far above the ~(dim+2)·2^-53 rounding error of a computed
// squared distance while dim <= maxPruneDim, so a skip never changes a
// computed D² or argmin. Below pruneFloor, squared distances can be made
// of subnormal terms whose rounding is not relative, so such points are
// always evaluated. Overflow needs no guard: a gap that overflows to +Inf
// exceeds any finite 4·D²·(1+1e-9), and a product that overflows skips
// nothing.
const (
	pruneFactor = 4 * (1 + 1e-9)
	pruneFloor  = 0x1p-900
	maxPruneDim = 1 << 20
)

// SeedPP runs weighted k-means++ seeding (D^2 sampling) and returns up to k
// centers chosen from pts. The returned centers are deep copies; mutating
// them does not affect pts. It is SeedPPAssign without the assignment.
func SeedPP(rng *rand.Rand, pts []geom.Weighted, k int) []geom.Point {
	return SeedPPAssign(rng, pts, k).Centers
}

// SeedPPAssign runs weighted k-means++ seeding and returns the centers
// together with each point's nearest center and squared distance to it.
//
// The first center is drawn with probability proportional to point weight;
// each subsequent center is drawn with probability proportional to
// w(x) * D^2(x, chosen). This is the weighted generalization of Arthur &
// Vassilvitskii's algorithm, which underlies both coreset reduction and
// query-time center extraction in the paper.
//
// D^2 is maintained incrementally, so seeding costs O(n*k*d) rather than
// O(n*k^2*d), and each new center skips the points Elkan's triangle bound
// rules out (see pruneFactor); the skips are exact, so the centers, the
// random draws and the assignment are bit-identical to an unpruned pass.
//
// If pts has fewer than k points (or total weight 0), all distinct points
// are returned; callers must tolerate fewer than k centers.
func SeedPPAssign(rng *rand.Rand, pts []geom.Weighted, k int) Seeding {
	return seedPP(rng, pts, k, true)
}

// seedPP is SeedPPAssign with pruning selectable, so tests can compare
// the pruned pass against the exhaustive one.
func seedPP(rng *rand.Rand, pts []geom.Weighted, k int, prune bool) Seeding {
	if k <= 0 || len(pts) == 0 {
		return Seeding{}
	}
	if len(pts) <= k {
		s := Seeding{Centers: make([]geom.Point, len(pts))}
		for i, wp := range pts {
			s.Centers[i] = wp.P.Clone()
		}
		s.Assign, s.MinSq = nearestAll(pts, s.Centers)
		return s
	}

	s := Seeding{
		Centers: make([]geom.Point, 0, k),
		Assign:  make([]int, len(pts)),
		MinSq:   make([]float64, len(pts)),
	}

	// First center: weight-proportional draw.
	first := sampleByWeight(rng, pts)
	s.Centers = append(s.Centers, pts[first].P.Clone())
	var total float64
	for i, wp := range pts {
		d := geom.SqDist(wp.P, s.Centers[0])
		s.MinSq[i] = d
		total += wp.W * d
	}

	// cc[a] holds d²(centers[a], c) for the newest center c once
	// ccAt[a] == len(centers)-1. It is filled on first use: centers whose
	// points all sit at D² zero (or below pruneFloor) never need it.
	var (
		cc   []float64
		ccAt []int
	)
	if prune = prune && len(s.Centers[0]) <= maxPruneDim; prune {
		cc, ccAt = make([]float64, k), make([]int, k)
	}
	for len(s.Centers) < k {
		if total <= 0 {
			// All remaining mass sits exactly on chosen centers; any further
			// center would duplicate an existing one.
			break
		}
		target := rng.Float64() * total
		var acc float64
		pick := -1
		for i, wp := range pts {
			acc += wp.W * s.MinSq[i]
			if acc >= target {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Floating-point slack: fall back to the last point with mass.
			for i := len(pts) - 1; i >= 0; i-- {
				if pts[i].W*s.MinSq[i] > 0 {
					pick = i
					break
				}
			}
			if pick < 0 {
				break
			}
		}
		j := len(s.Centers)
		c := pts[pick].P.Clone()
		s.Centers = append(s.Centers, c)
		total = 0
		for i, wp := range pts {
			m := s.MinSq[i]
			// m == 0: no distance is below zero, so c cannot take p over.
			skip := prune && m == 0
			if prune && m >= pruneFloor {
				a := s.Assign[i]
				if ccAt[a] != j {
					cc[a], ccAt[a] = geom.SqDist(s.Centers[a], c), j
				}
				skip = cc[a] > pruneFactor*m
			}
			if skip {
				s.Pruned++
			} else if d := geom.SqDist(wp.P, c); d < m {
				s.MinSq[i] = d
				s.Assign[i] = j
			}
			total += wp.W * s.MinSq[i]
		}
	}
	return s
}

// nearestAll scans every center for every point: the small-input path of
// seedPP, where there is no seeding pass to reuse.
func nearestAll(pts []geom.Weighted, centers []geom.Point) ([]int, []float64) {
	assign := make([]int, len(pts))
	minSq := make([]float64, len(pts))
	for i, wp := range pts {
		minSq[i] = geom.SqDist(wp.P, centers[0])
		for j := 1; j < len(centers); j++ {
			if d := geom.SqDist(wp.P, centers[j]); d < minSq[i] {
				minSq[i], assign[i] = d, j
			}
		}
	}
	return assign, minSq
}

// cost returns the weighted k-means cost of the seeded points against the
// seeding's centers — bit-identical to Cost(pts, s.Centers), without the
// rescan.
func (s Seeding) cost(pts []geom.Weighted) float64 {
	if len(pts) > 0 && len(s.Centers) == 0 {
		return math.Inf(1)
	}
	var c float64
	for i, wp := range pts {
		c += wp.W * s.MinSq[i]
	}
	return c
}

// sampleByWeight draws an index with probability proportional to point
// weight. Weights must be non-negative; if all are zero it returns a uniform
// draw.
func sampleByWeight(rng *rand.Rand, pts []geom.Weighted) int {
	var total float64
	for _, wp := range pts {
		total += wp.W
	}
	if total <= 0 {
		return rng.Intn(len(pts))
	}
	target := rng.Float64() * total
	var acc float64
	for i, wp := range pts {
		acc += wp.W
		if acc >= target {
			return i
		}
	}
	return len(pts) - 1
}
