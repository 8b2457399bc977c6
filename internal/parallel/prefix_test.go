package parallel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"streamkm/internal/basen"
	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/coretree"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
)

// countingBuilder is coreset.KMeansPP counting its builds and the largest
// input it reduced.
type countingBuilder struct {
	builds, maxIn int
}

func (b *countingBuilder) Name() string { return coreset.KMeansPP{}.Name() }

func (b *countingBuilder) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	b.builds++
	b.maxIn = max(b.maxIn, len(pts))
	return coreset.KMeansPP{}.Build(rng, pts, m)
}

// batchSize returns the length of a batch that completes c buckets, 0 <= c
// <= 5, on a lane whose partial bucket holds p < m points.
func batchSize(rng *rand.Rand, m, p int) int {
	c := rng.Intn(6)
	if c == 0 && p < m-1 {
		return 1 + rng.Intn(m-1-p)
	}
	return max(c, 1)*m - p + rng.Intn(m)
}

// carries returns the tree merges that raising the bucket count from n0
// to n performs: one per trailing zero base-r digit of each new count.
func carries(n0, n, r int) int {
	c := 0
	for x := n0 + 1; x <= n; x++ {
		for y := x; y%r == 0; y /= r {
			c++
		}
	}
	return c
}

// lemma5Bound is ceil(2·log_r n) - 1, computed exactly: the smallest j
// with r^j >= n², minus one.
func lemma5Bound(n, r int) int {
	j := 0
	for p := 1; p < n*n; p *= r {
		j++
	}
	return j - 1
}

// TestPrefixViewCountsLemmas4And5 checks CC's batch-end view by counting,
// not timing. After every AddBatchTo on a CC lane:
//   - the cache keys lie in prefixsum(N) ∪ {N} and include every key of
//     prefixsum(N) that is not 1·r^α (Lemma 4's precondition); on lane 0,
//     which is never queried, they are exactly those keys;
//   - beyond the tree's own merges the batch made exactly one build per
//     newly cached key, and no build reduced more than r·m points;
//   - the published view is exactly [1, major(N)], the buckets at N's
//     minor level and the partial bucket, and its unit weights sum to the
//     lane's count, which the view records;
//   - for N >= 2 every part has coreset level <= ceil(2·log_r N) - 1
//     (Lemma 5);
//   - on lane 1, a later CC.Coreset() is an exact or major-prefix hit
//     whenever major(N) > 0. For a single-digit N there is no prefix:
//     Algorithm 3 merges N's own buckets, and counts that as a fallback.
func TestPrefixViewCountsLemmas4And5(t *testing.T) {
	for _, r := range []int{2, 3} {
		for _, m := range []int{5, 20} {
			t.Run(fmt.Sprintf("r=%d/m=%d", r, m), func(t *testing.T) {
				b := &countingBuilder{}
				var ccs []*core.CC
				var drvs []*core.Driver
				s, err := NewSharded(2, 3, 1, kmeans.FastOptions(), func(_ int, seed int64) *core.Driver {
					rng := rand.New(rand.NewSource(seed))
					cc := core.NewCC(r, m, b, rng)
					d := core.NewDriver(cc, 3, m, rng, kmeans.FastOptions())
					ccs, drvs = append(ccs, cc), append(drvs, d)
					return d
				})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(10*r + m)))
				for batch := 0; batch < 160; batch++ {
					lane := batch % 2
					cc, drv := ccs[lane], drvs[lane]
					before := map[int]bool{}
					for _, key := range cc.CacheKeys() {
						before[key] = true
					}
					n0 := cc.Tree().N()
					b.builds, b.maxIn = 0, 0
					s.AddBatchTo(lane, gaussianBatch(rng, batchSize(rng, m, len(drv.Partial())), 1))
					n := cc.Tree().N()
					where := fmt.Sprintf("batch %d lane %d N=%d", batch, lane, n)

					allowed, needed := map[int]bool{n: true}, 0
					for _, key := range basen.PrefixSums(n, r) {
						allowed[key] = true
						if mt, _ := basen.MinorTerm(key, r); mt.Value == key && mt.Beta == 1 {
							continue // the tree's own bucket [1, r^α]
						}
						needed++
						if _, ok := cc.CachedBucket(key); !ok {
							t.Fatalf("%s: prefix key %d not cached (keys %v)", where, key, cc.CacheKeys())
						}
					}
					if lane == 0 && len(cc.CacheKeys()) != needed {
						// Lane 0 is never queried: the view alone caches
						// nothing beyond the keys it needs.
						t.Fatalf("%s: cache keys %v, want the %d keys of prefixsum(N) other than 1·r^α", where, cc.CacheKeys(), needed)
					}
					fresh := 0
					for _, key := range cc.CacheKeys() {
						if !allowed[key] {
							t.Fatalf("%s: cache key %d outside prefixsum(N) ∪ {N} (keys %v)", where, key, cc.CacheKeys())
						}
						if !before[key] {
							fresh++
						}
					}
					if got, tree := b.builds, carries(n0, n, r); got-tree != fresh {
						t.Fatalf("%s: %d builds beside %d tree merges for %d newly cached keys", where, got, tree, fresh)
					}
					if b.maxIn > r*m {
						t.Fatalf("%s: a build reduced %d points, more than r·m = %d", where, b.maxIn, r*m)
					}

					var parts []coretree.Bucket
					major := basen.Major(n, r)
					if major > 0 {
						head, ok := cc.CachedBucket(major)
						if mt, _ := basen.MinorTerm(major, r); !ok && mt.Value == major && mt.Beta == 1 {
							head = cc.Tree().BucketsAtLevel(mt.Alpha)[0]
						}
						if head.Start != 1 || head.End != major {
							t.Fatalf("%s: prefix part spans %s, want [1,%d]", where, head.Span(), major)
						}
						parts = append(parts, head)
					}
					if mt, ok := basen.MinorTerm(n, r); ok {
						minor := cc.Tree().BucketsAtLevel(mt.Alpha)
						if len(minor) != mt.Beta || minor[0].Start != major+1 || minor[len(minor)-1].End != n {
							t.Fatalf("%s: %d buckets at level %d do not span (%d, %d]", where, len(minor), mt.Alpha, major, n)
						}
						parts = append(parts, minor...)
					}
					var want []geom.Weighted
					for _, p := range parts {
						want = append(want, p.Points...)
						if n >= 2 && p.Level > lemma5Bound(n, r) {
							t.Fatalf("%s: part %s at coreset level %d, above Lemma 5's %d", where, p.Span(), p.Level, lemma5Bound(n, r))
						}
					}
					want = append(want, drv.Partial()...)
					v := s.shards[lane].view.Load()
					if !sameBits(v.pts, want) {
						t.Fatalf("%s: view of %d points is not [1, major(N)] + minor buckets + partial (%d points)", where, len(v.pts), len(want))
					}
					if w := geom.TotalWeight(v.pts); v.count != drv.Count() || w != float64(drv.Count()) {
						t.Fatalf("%s: view weight %v and count %d, lane count %d", where, w, v.count, drv.Count())
					}

					if lane == 1 && n > 0 {
						st := cc.Stats()
						cc.Coreset()
						if after := cc.Stats(); major > 0 && after.Fallbacks != st.Fallbacks {
							t.Fatalf("%s: query after the batch fell back (%+v -> %+v)", where, st, after)
						}
					}
				}
			})
		}
	}
}

// TestGatherCountIsUnionWeight races unit-weight batch producers on both
// lanes, a per-point producer and gatherers: every gather's count equals
// its union's total weight exactly and is at least the count read before
// it. Run with -race -count=10.
func TestGatherCountIsUnionWeight(t *testing.T) {
	for _, algo := range []string{"CC", "RCC", "CT"} {
		t.Run(algo, func(t *testing.T) {
			s, _ := ccLanes(t, algo, 3, 20)
			var wg sync.WaitGroup
			for lane := 0; lane < 2; lane++ {
				wg.Add(1)
				go func(lane int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(20 + lane)))
					for b := 0; b < 30; b++ {
						s.AddBatchTo(lane, gaussianBatch(rng, 37, 1))
					}
				}(lane)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					s.Add(geom.Point{float64(i), 1})
				}
			}()
			stop := make(chan struct{})
			var gathers sync.WaitGroup
			for g := 0; g < 2; g++ {
				gathers.Add(1)
				go func() {
					defer gathers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						n := s.Count()
						union, count := s.Gather()
						if w := geom.TotalWeight(union); w != float64(count) || count < n {
							t.Errorf("gather of weight %v covers %d points, count read before it %d", w, count, n)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			gathers.Wait()
			if union, count := s.Gather(); count != 2*30*37+200 || geom.TotalWeight(union) != float64(count) {
				t.Fatalf("final gather covers %d points with weight %v, want %d", count, geom.TotalWeight(union), 2*30*37+200)
			}
		})
	}
}
