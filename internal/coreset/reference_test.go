package coreset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"streamkm/internal/datagen"
	"streamkm/internal/geom"
)

// The two-pass reduces below are the builders as they were before seeding
// reported its assignment: an unpruned k-means++ seeding, then a second
// nearest-center scan over all n × m pairs. They stay here as references:
// the fused, pruned builders must reproduce them bit for bit, random
// draws included.

func refSeedPP(rng *rand.Rand, pts []geom.Weighted, k int) []geom.Point {
	if k <= 0 || len(pts) == 0 {
		return nil
	}
	if len(pts) <= k {
		out := make([]geom.Point, len(pts))
		for i, wp := range pts {
			out[i] = wp.P.Clone()
		}
		return out
	}
	centers := make([]geom.Point, 0, k)
	centers = append(centers, pts[refSampleByWeight(rng, pts)].P.Clone())
	minSq := make([]float64, len(pts))
	var total float64
	for i, wp := range pts {
		d := geom.SqDist(wp.P, centers[0])
		minSq[i] = d
		total += wp.W * d
	}
	for len(centers) < k {
		if total <= 0 {
			break
		}
		target := rng.Float64() * total
		var acc float64
		pick := -1
		for i, wp := range pts {
			acc += wp.W * minSq[i]
			if acc >= target {
				pick = i
				break
			}
		}
		if pick < 0 {
			for i := len(pts) - 1; i >= 0; i-- {
				if pts[i].W*minSq[i] > 0 {
					pick = i
					break
				}
			}
			if pick < 0 {
				break
			}
		}
		c := pts[pick].P.Clone()
		centers = append(centers, c)
		total = 0
		for i, wp := range pts {
			if d := geom.SqDist(wp.P, c); d < minSq[i] {
				minSq[i] = d
			}
			total += wp.W * minSq[i]
		}
	}
	return centers
}

func refSampleByWeight(rng *rand.Rand, pts []geom.Weighted) int {
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

func refKMeansPPBuild(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	if len(pts) == 0 || m <= 0 {
		return nil
	}
	if len(pts) <= m {
		return geom.CloneWeighted(pts)
	}
	centers := refSeedPP(rng, pts, m)
	out := make([]geom.Weighted, len(centers))
	for i, c := range centers {
		out[i] = geom.Weighted{P: c, W: 0}
	}
	fc := geom.FlattenCenters(centers)
	for _, wp := range pts {
		_, idx := fc.Nearest(wp.P)
		out[idx].W += wp.W
	}
	return compactZeroWeight(out)
}

func refSensitivityBuild(s Sensitivity, rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
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
	centers := refSeedPP(rng, pts, k)
	fc := geom.FlattenCenters(centers)
	assign := make([]int, len(pts))
	resid := make([]float64, len(pts))
	var totalCost float64
	clusterW := make([]float64, len(centers))
	for i, wp := range pts {
		d, idx := fc.Nearest(wp.P)
		assign[i] = idx
		resid[i] = d
		totalCost += wp.W * d
		clusterW[idx] += wp.W
	}
	q := make([]float64, len(pts))
	var S float64
	for i, wp := range pts {
		v := wp.W / clusterW[assign[i]]
		if totalCost > 0 {
			v += wp.W * resid[i] / totalCost
		}
		q[i] = v
		S += v
	}
	if S <= 0 {
		return geom.CloneWeighted(pts[:m])
	}
	cdf := make([]float64, len(pts))
	var acc float64
	for i, v := range q {
		acc += v
		cdf[i] = acc
	}
	counts := make(map[int]int, m)
	for j := 0; j < m; j++ {
		counts[searchCDF(cdf, rng.Float64()*S)]++
	}
	out := make([]geom.Weighted, 0, len(counts))
	for idx, c := range counts {
		w := float64(c) * pts[idx].W * S / (float64(m) * q[idx])
		out = append(out, geom.Weighted{P: pts[idx].P.Clone(), W: w})
	}
	return out
}

// reduceCase is one seeded input to the bit-identity test.
type reduceCase struct {
	name string
	pts  []geom.Weighted
	m    int
}

// reduceCases returns the bit-identity inputs: the Covtype stand-in at
// the serving shape (m = 200, d = 54), weighted and duplicated points,
// small-integer grids full of exact distance ties, and coordinates near
// 1e-150 whose squared distances are subnormal.
func reduceCases() []reduceCase {
	var cases []reduceCase
	for seed := int64(0); seed < 15; seed++ {
		cov := geom.Wrap(datagen.Covtype(1400, 100+seed).Points)
		cases = append(cases,
			reduceCase{fmt.Sprintf("covtype-400/%d", seed), cov[:400], 200},
			reduceCase{fmt.Sprintf("covtype-1400/%d", seed), cov, 200})
	}
	for seed := int64(0); seed < 70; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 50+rng.Intn(250), 5+rng.Intn(40)

		weighted := mixture(rng, mixCenters, n, 3)
		for i := range weighted {
			weighted[i].W = rng.ExpFloat64() * 5
		}

		distinct := mixture(rng, mixCenters, 3+rng.Intn(20), 4)
		dup := make([]geom.Weighted, n)
		for i := range dup {
			src := distinct[rng.Intn(len(distinct))]
			dup[i] = geom.Weighted{P: src.P.Clone(), W: float64(1 + rng.Intn(3))}
		}

		d := 2 + rng.Intn(3)
		grid := make([]geom.Weighted, n)
		for i := range grid {
			p := make(geom.Point, d)
			for j := range p {
				p[j] = float64(rng.Intn(4))
			}
			grid[i] = geom.Weighted{P: p, W: 1}
		}

		tiny := make([]geom.Weighted, n)
		for i := range tiny {
			p := make(geom.Point, 3)
			for j := range p {
				// Offsets from 1e-150 down to 1e-158: squared distances
				// span normal values near 1e-300 and subnormal ones.
				p[j] = 1e-150 + rng.Float64()*math.Pow(10, -150-float64(rng.Intn(9)))
			}
			tiny[i] = geom.Weighted{P: p, W: 1}
		}

		cases = append(cases,
			reduceCase{fmt.Sprintf("weighted/%d", seed), weighted, m},
			reduceCase{fmt.Sprintf("duplicated/%d", seed), dup, m},
			reduceCase{fmt.Sprintf("int-grid/%d", seed), grid, m},
			reduceCase{fmt.Sprintf("subnormal/%d", seed), tiny, m})
	}
	return cases
}

// TestFusedReduceMatchesTwoPassReference: the single pruned pass returns
// exactly the coreset the seeding-then-rescan reduce returned, for both
// seeding-based builders.
func TestFusedReduceMatchesTwoPassReference(t *testing.T) {
	cases := reduceCases()
	if len(cases) < 300 {
		t.Fatalf("only %d inputs", len(cases))
	}
	for ci, tc := range cases {
		seed := int64(1000 + ci)
		got := KMeansPP{}.Build(rand.New(rand.NewSource(seed)), tc.pts, tc.m)
		want := refKMeansPPBuild(rand.New(rand.NewSource(seed)), tc.pts, tc.m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: KMeansPP.Build differs from the two-pass reference", tc.name)
		}
		for _, s := range []Sensitivity{{}, {K: 3}} {
			got := s.Build(rand.New(rand.NewSource(seed)), tc.pts, tc.m)
			want := refSensitivityBuild(s, rand.New(rand.NewSource(seed)), tc.pts, tc.m)
			// The output order follows map iteration; compare as sets.
			if !reflect.DeepEqual(sortedWeighted(got), sortedWeighted(want)) {
				t.Fatalf("%s: Sensitivity{K: %d}.Build differs from the two-pass reference", tc.name, s.K)
			}
		}
	}
}

// sortedWeighted returns pts ordered by coordinates, then weight.
func sortedWeighted(pts []geom.Weighted) []geom.Weighted {
	out := append([]geom.Weighted(nil), pts...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for x := range a.P {
			if a.P[x] != b.P[x] {
				return a.P[x] < b.P[x]
			}
		}
		return a.W < b.W
	})
	return out
}
