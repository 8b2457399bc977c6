// Package coreset implements k-means coreset construction — the "reduce"
// step of the merge-and-reduce framework every streaming algorithm in this
// repository is built on.
//
// A (k, eps)-coreset of a weighted point set P is a small weighted set C
// such that for every set Psi of k centers,
//
//	(1-eps)*phi_Psi(P) <= phi_Psi(C) <= (1+eps)*phi_Psi(P)
//
// (Definition 1 in the paper). Two constructions are provided:
//
//   - KMeansPP: select m points by k-means++ seeding and move each input
//     point's weight to its nearest selected point. This is the construction
//     streamkm++ (Ackermann et al.) and the paper's own experiments use
//     (Section 5.2: "The k-means++ algorithm ... is used to derive coresets").
//   - Sensitivity: Feldman–Langberg style importance sampling against a
//     bicriteria k-means++ solution, the theoretical O(k/eps^2)
//     construction of Theorem 2 ([16]).
//
// Both preserve total weight exactly (KMeansPP) or in expectation
// (Sensitivity), and both leave the input untouched.
package coreset

import (
	"math/rand"

	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

// Builder constructs a weighted coreset of size at most m from a weighted
// point set. Implementations must not mutate the input and must return
// points safe to retain (no aliasing of caller storage that the caller may
// later mutate).
type Builder interface {
	// Build summarizes pts into at most m weighted points.
	Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted
	// Name identifies the construction in reports and benchmarks.
	Name() string
}

// KMeansPP is the k-means++-reduce coreset builder used by streamkm++ and by
// the paper's experiments. Build runs one k-means++ seeding pass with m
// centers over the input and accumulates each input point's weight onto its
// nearest selected point. That pass is the whole reduce: the seeding
// (kmeans.SeedPPAssign) reports each point's nearest center as it goes and
// skips the distance evaluations Elkan's triangle bound rules out, so the
// coreset is bit-identical to seeding followed by a full nearest-center
// scan, at a fraction of its n × m distance evaluations.
type KMeansPP struct{}

// Name implements Builder.
func (KMeansPP) Name() string { return "kmeans++-reduce" }

// Build implements Builder. Total weight is preserved exactly.
func (KMeansPP) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	if len(pts) == 0 || m <= 0 {
		return nil
	}
	if len(pts) <= m {
		return geom.CloneWeighted(pts)
	}
	// The seeding pass already tracks every point's nearest center, so
	// the weight moves onto it without a second n × m scan.
	seed := kmeans.SeedPPAssign(rng, pts, m)
	out := make([]geom.Weighted, len(seed.Centers))
	for i, c := range seed.Centers {
		out[i] = geom.Weighted{P: c, W: 0}
	}
	for i, wp := range pts {
		out[seed.Assign[i]].W += wp.W
	}
	return compactZeroWeight(out)
}

// compactZeroWeight drops coreset points that attracted no weight (possible
// when seeding picks duplicate coordinates).
func compactZeroWeight(pts []geom.Weighted) []geom.Weighted {
	out := pts[:0]
	for _, wp := range pts {
		if wp.W > 0 {
			out = append(out, wp)
		}
	}
	return out
}

// MergeBuild unions several weighted point sets and reduces the union to a
// coreset of size at most m. This is the coreset-tree merge step
// (Observation 1 + reduce): the union of coresets of disjoint sets is a
// coreset of the union, and reducing it adds one coreset level.
func MergeBuild(b Builder, rng *rand.Rand, m int, sets ...[]geom.Weighted) []geom.Weighted {
	var n int
	for _, s := range sets {
		n += len(s)
	}
	union := make([]geom.Weighted, 0, n)
	for _, s := range sets {
		union = append(union, s...)
	}
	return b.Build(rng, union, m)
}
