package coreset

import (
	"math/rand"

	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

// Sensitivity is a Feldman–Langberg style importance-sampling coreset
// builder: the theoretical construction behind Theorem 2 of the paper
// (constant-size coresets, [15]/[16]).
//
// Build computes a bicriteria solution B with k-means++ seeding, derives an
// upper bound on each point's sensitivity
//
//	s(p) = w(p)*D^2(p,B)/phi_B(P) + w(p)/W(cluster(p))
//
// and samples m points i.i.d. proportional to s, reweighting each sampled
// point by w(p)/(m*q(p)) so that cost estimates are unbiased. Duplicate
// draws are merged, so the output can be smaller than m.
type Sensitivity struct {
	// K is the number of centers in the bicriteria solution. If zero, Build
	// uses max(2, m/10) which tracks the usual "m is O(k)" regime.
	K int
}

// Name implements Builder.
func (Sensitivity) Name() string { return "sensitivity-sampling" }

// Build implements Builder.
func (s Sensitivity) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	if len(pts) == 0 || m <= 0 {
		return nil
	}
	if len(pts) <= m {
		return geom.CloneWeighted(pts)
	}
	k := s.K
	if k <= 0 {
		k = m / 10
		if k < 2 {
			k = 2
		}
	}
	// The seeding reports each point's nearest center and residual cost.
	seed := kmeans.SeedPPAssign(rng, pts, k)
	var totalCost float64
	clusterW := make([]float64, len(seed.Centers))
	for i, wp := range pts {
		totalCost += wp.W * seed.MinSq[i]
		clusterW[seed.Assign[i]] += wp.W
	}

	// Sensitivity upper bounds and the sampling distribution q.
	q := make([]float64, len(pts))
	var S float64
	for i, wp := range pts {
		v := wp.W / clusterW[seed.Assign[i]]
		if totalCost > 0 {
			v += wp.W * seed.MinSq[i] / totalCost
		}
		q[i] = v
		S += v
	}
	if S <= 0 {
		return geom.CloneWeighted(pts[:m])
	}

	// Sample m i.i.d. draws from q via the inverse CDF; merge duplicates.
	cdf := make([]float64, len(pts))
	var acc float64
	for i, v := range q {
		acc += v
		cdf[i] = acc
	}
	counts := make(map[int]int, m)
	for j := 0; j < m; j++ {
		target := rng.Float64() * S
		idx := searchCDF(cdf, target)
		counts[idx]++
	}
	out := make([]geom.Weighted, 0, len(counts))
	for idx, c := range counts {
		w := float64(c) * pts[idx].W * S / (float64(m) * q[idx])
		out = append(out, geom.Weighted{P: pts[idx].P.Clone(), W: w})
	}
	return out
}

// searchCDF returns the smallest index i with cdf[i] >= target.
func searchCDF(cdf []float64, target float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Uniform is a uniform-sampling "coreset" builder used as an ablation
// baseline: it draws m points with probability proportional to weight and
// rescales weights to preserve total weight in expectation. It provides no
// coreset guarantee and exists to quantify how much the informed
// constructions matter.
type Uniform struct{}

// Name implements Builder.
func (Uniform) Name() string { return "uniform-sampling" }

// Build implements Builder.
func (Uniform) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	if len(pts) == 0 || m <= 0 {
		return nil
	}
	if len(pts) <= m {
		return geom.CloneWeighted(pts)
	}
	total := geom.TotalWeight(pts)
	cdf := make([]float64, len(pts))
	var acc float64
	for i, wp := range pts {
		acc += wp.W
		cdf[i] = acc
	}
	counts := make(map[int]int, m)
	for j := 0; j < m; j++ {
		idx := searchCDF(cdf, rng.Float64()*total)
		counts[idx]++
	}
	out := make([]geom.Weighted, 0, len(counts))
	per := total / float64(m)
	for idx, c := range counts {
		out = append(out, geom.Weighted{P: pts[idx].P.Clone(), W: float64(c) * per})
	}
	return out
}
