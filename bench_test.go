// Benchmarks regenerating the shape of every table and figure in the
// paper's evaluation (Section 5). Each BenchmarkFigN / BenchmarkTableN
// exercises exactly the code path behind the corresponding experiment in
// internal/experiments (which cmd/streambench runs at full scale); the
// benchmark configurations are scaled down so `go test -bench=.` completes
// in minutes. Custom metrics report the paper's units (µs/point, points of
// memory) alongside ns/op.
//
// `go run ./cmd/streambench -exp all` regenerates the full-scale tables
// (`-exp fig4`, `-exp table3`, ... for one; `-n` scales the streams).
package streamkm_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/datagen"
	"streamkm/internal/experiments"
	"streamkm/internal/geom"
	"streamkm/internal/kmeans"
	"streamkm/internal/parallel"
	"streamkm/internal/workload"
)

// benchDataset caches one dataset per (name, n) across benchmarks.
var benchCache = map[string]datagen.Dataset{}

func benchData(b *testing.B, name string, n int) datagen.Dataset {
	b.Helper()
	key := fmt.Sprintf("%s/%d", name, n)
	ds, ok := benchCache[key]
	if !ok {
		var err error
		ds, err = datagen.ByName(name, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchCache[key] = ds
	}
	return ds
}

// streamOnce runs one full stream+query pass and reports paper-style
// per-point metrics.
func streamOnce(b *testing.B, algo string, ds datagen.Dataset, k, m int,
	alpha float64, sched workload.Schedule, opt kmeans.Options) workload.Result {
	b.Helper()
	alg, err := experiments.NewClusterer(algo, k, m, len(ds.Points)/m, alpha, 1, opt)
	if err != nil {
		b.Fatal(err)
	}
	return workload.Run(alg, ds.Points, sched)
}

func reportPerPoint(b *testing.B, res workload.Result) {
	b.ReportMetric(float64(res.UpdatePerPoint().Nanoseconds())/1e3, "update-µs/pt")
	b.ReportMetric(float64(res.QueryPerPoint().Nanoseconds())/1e3, "query-µs/pt")
	b.ReportMetric(float64(res.PointsStored), "mem-points")
}

// BenchmarkTable1QueryScaling validates the Table 1 asymptotics: query cost
// of CT grows with log N (all levels merged) while CC merges at most r
// buckets and RCC O(log log N) — so CT's per-query time should grow faster
// with stream length than CC's and RCC's.
func BenchmarkTable1QueryScaling(b *testing.B) {
	const k, m = 10, 200
	for _, algo := range []string{"StreamKM++", "CC", "RCC"} {
		for _, nBuckets := range []int{32, 256} {
			n := nBuckets * m
			ds := benchData(b, "power", n)
			b.Run(fmt.Sprintf("%s/buckets=%d", algo, nBuckets), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := streamOnce(b, algo, ds, k, m, 1.2,
						workload.FixedInterval{Q: int64(m)}, kmeans.AccuracyOptions())
					if i == b.N-1 {
						reportPerPoint(b, res)
					}
				}
			})
		}
	}
}

// BenchmarkTable1Update validates the Table 1 update column: amortized
// O(dm) per point for CT/CC, O(dm log log N) for RCC.
func BenchmarkTable1Update(b *testing.B) {
	const k, m = 10, 200
	ds := benchData(b, "power", 40000)
	for _, algo := range []string{"Sequential", "StreamKM++", "CC", "RCC", "OnlineCC"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := streamOnce(b, algo, ds, k, m, 1.2, workload.Never{}, kmeans.FastOptions())
				if i == b.N-1 {
					b.ReportMetric(float64(res.UpdatePerPoint().Nanoseconds())/1e3, "update-µs/pt")
				}
			}
		})
	}
}

// BenchmarkFig4Cost regenerates Figure 4's pipeline (accuracy vs k) for one
// dataset at k=10 and k=30: stream with queries, then accuracy-extract
// final centers. The benchmark measures the full pipeline cost; the
// resulting SSQ is reported as a custom metric so runs double as accuracy
// spot-checks.
func BenchmarkFig4Cost(b *testing.B) {
	ds := benchData(b, "power", 10000)
	for _, k := range []int{10, 30} {
		for _, algo := range experiments.AlgoNames {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				m := 20 * k
				for i := 0; i < b.N; i++ {
					res := streamOnce(b, algo, ds, k, m, 1.2,
						workload.FixedInterval{Q: 100}, kmeans.FastOptions())
					if i == b.N-1 {
						b.ReportMetric(workload.FinalCost(res, ds.Points), "ssq")
					}
				}
			})
		}
	}
}

// BenchmarkFig5TotalTime regenerates Figure 5: total stream+query time as
// the query interval q varies.
func BenchmarkFig5TotalTime(b *testing.B) {
	ds := benchData(b, "power", 10000)
	const k, m = 10, 200
	for _, algo := range []string{"StreamKM++", "CC", "RCC", "OnlineCC"} {
		for _, q := range []int64{50, 400, 3200} {
			b.Run(fmt.Sprintf("%s/q=%d", algo, q), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := streamOnce(b, algo, ds, k, m, 1.2,
						workload.FixedInterval{Q: q}, kmeans.AccuracyOptions())
					if i == b.N-1 {
						reportPerPoint(b, res)
					}
				}
			})
		}
	}
}

// BenchmarkFig6CostVsBucket regenerates Figure 6: cost as bucket size
// varies (benchmarked at factors 20 and 60).
func BenchmarkFig6CostVsBucket(b *testing.B) {
	ds := benchData(b, "power", 10000)
	const k = 10
	for _, algo := range []string{"StreamKM++", "CC", "RCC", "OnlineCC"} {
		for _, factor := range []int{20, 60} {
			b.Run(fmt.Sprintf("%s/m=%dk", algo, factor), func(b *testing.B) {
				m := factor * k
				for i := 0; i < b.N; i++ {
					res := streamOnce(b, algo, ds, k, m, 1.2,
						workload.FixedInterval{Q: 100}, kmeans.FastOptions())
					if i == b.N-1 {
						b.ReportMetric(workload.FinalCost(res, ds.Points), "ssq")
					}
				}
			})
		}
	}
}

// BenchmarkFig7TimeVsBucket regenerates Figure 7: per-point runtime as
// bucket size varies.
func BenchmarkFig7TimeVsBucket(b *testing.B) {
	ds := benchData(b, "power", 10000)
	const k = 10
	for _, algo := range []string{"StreamKM++", "CC", "RCC", "OnlineCC"} {
		for _, factor := range []int{20, 100} {
			b.Run(fmt.Sprintf("%s/m=%dk", algo, factor), func(b *testing.B) {
				m := factor * k
				for i := 0; i < b.N; i++ {
					res := streamOnce(b, algo, ds, k, m, 1.2,
						workload.FixedInterval{Q: 100}, kmeans.AccuracyOptions())
					if i == b.N-1 {
						reportPerPoint(b, res)
					}
				}
			})
		}
	}
}

// BenchmarkFig8to10Poisson regenerates Figures 8-10: per-point update,
// query and total time under Poisson query arrivals at a high and a low
// rate.
func BenchmarkFig8to10Poisson(b *testing.B) {
	ds := benchData(b, "power", 10000)
	const k, m = 10, 200
	for _, algo := range []string{"StreamKM++", "CC", "RCC", "OnlineCC"} {
		for _, lambda := range []float64{0.02, 0.0003125} {
			b.Run(fmt.Sprintf("%s/lambda=%g", algo, lambda), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sched := workload.Poisson{Lambda: lambda, Rng: rand.New(rand.NewSource(int64(i)))}
					res := streamOnce(b, algo, ds, k, m, 1.2, sched, kmeans.AccuracyOptions())
					if i == b.N-1 {
						reportPerPoint(b, res)
					}
				}
			})
		}
	}
}

// BenchmarkFig11Alpha regenerates Figure 11: OnlineCC runtime against the
// switching threshold alpha.
func BenchmarkFig11Alpha(b *testing.B) {
	ds := benchData(b, "power", 10000)
	const k, m = 10, 200
	for _, alpha := range []float64{1.2, 2.4, 9.6} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := streamOnce(b, "OnlineCC", ds, k, m, alpha,
					workload.FixedInterval{Q: 100}, kmeans.AccuracyOptions())
				if i == b.N-1 {
					reportPerPoint(b, res)
				}
			}
		})
	}
}

// BenchmarkTable4Memory regenerates Table 4: end-of-stream memory use in
// points (reported as a custom metric).
func BenchmarkTable4Memory(b *testing.B) {
	ds := benchData(b, "power", 20000)
	const k, m = 10, 200
	for _, algo := range []string{"StreamKM++", "CC", "RCC", "OnlineCC"} {
		b.Run(algo, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := streamOnce(b, algo, ds, k, m, 1.2,
					workload.FixedInterval{Q: 100}, kmeans.FastOptions())
				if i == b.N-1 {
					b.ReportMetric(float64(res.PointsStored), "mem-points")
					b.ReportMetric(float64(res.PointsStored*ds.Dim*8)/1e6, "mem-MB")
				}
			}
		})
	}
}

// --- Primitive benchmarks: the building blocks under every figure. ---

func benchWeighted(n, d int, seed int64) []geom.Weighted {
	rng := rand.New(rand.NewSource(seed))
	out := make([]geom.Weighted, n)
	for i := range out {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = rng.NormFloat64() * 10
		}
		out[i] = geom.Weighted{P: p, W: 1}
	}
	return out
}

// BenchmarkKMeansPPSeed measures the D^2-sampling seeding pass (Theorem 1):
// at d = 16, and at the serving shape over the Covtype stand-in (d = 54)
// for the query's k = 10 and the reduce's m = 200 centers. pruned-% is the
// share of point-center distance evaluations Elkan's bound skipped.
func BenchmarkKMeansPPSeed(b *testing.B) {
	b.Run("d=16/k=20", func(b *testing.B) {
		pts := benchWeighted(2000, 16, 1)
		rng := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = kmeans.SeedPP(rng, pts, 20)
		}
	})
	for _, n := range []int{400, 1400} {
		for _, k := range []int{10, 200} {
			b.Run(fmt.Sprintf("covtype/n=%d/k=%d", n, k), func(b *testing.B) {
				pts := servingBucket(b, n)
				rng := rand.New(rand.NewSource(2))
				var s kmeans.Seeding
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s = kmeans.SeedPPAssign(rng, pts, k)
				}
				reportPruned(b, s, n)
			})
		}
	}
}

// BenchmarkCoresetBuild measures one bucket reduce (Theorem 2's O(dnm)):
// every builder at d = 16, m = 100, and the seeding builders at the
// serving shape, reducing the Covtype stand-in (d = 54) to m = 200 from
// two buckets (n = 400) and from seven (n = 1400). pruned-% is the share
// of the seeding's distance evaluations Elkan's bound skipped.
func BenchmarkCoresetBuild(b *testing.B) {
	for _, builder := range []coreset.Builder{coreset.KMeansPP{}, coreset.Sensitivity{}, coreset.Uniform{}} {
		b.Run(builder.Name(), func(b *testing.B) {
			pts := benchWeighted(1000, 16, 3)
			rng := rand.New(rand.NewSource(4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = builder.Build(rng, pts, 100)
			}
		})
	}
	const m = 200
	for _, n := range []int{400, 1400} {
		for _, builder := range []coreset.Builder{coreset.KMeansPP{}, coreset.Sensitivity{}} {
			b.Run(fmt.Sprintf("covtype/n=%d/%s", n, builder.Name()), func(b *testing.B) {
				pts := servingBucket(b, n)
				rng := rand.New(rand.NewSource(4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_ = builder.Build(rng, pts, m)
				}
				b.StopTimer()
				k := m
				if _, ok := builder.(coreset.Sensitivity); ok {
					k = m / 10 // the bicriteria solution Sensitivity seeds
				}
				reportPruned(b, kmeans.SeedPPAssign(rand.New(rand.NewSource(4)), pts, k), n)
			})
		}
	}
}

// servingBucket returns the first n points of the Covtype stand-in as
// unit-weight points: a merge of n/200 base buckets at the serving shape.
func servingBucket(b *testing.B, n int) []geom.Weighted {
	return geom.Wrap(benchData(b, "covtype", 1400).Points[:n])
}

// reportPruned reports the share of a seeding's n-per-center distance
// evaluations that the triangle bound skipped.
func reportPruned(b *testing.B, s kmeans.Seeding, n int) {
	if evals := n * (len(s.Centers) - 1); evals > 0 {
		b.ReportMetric(100*float64(s.Pruned)/float64(evals), "pruned-%")
	}
}

// BenchmarkStructureUpdate measures the amortized bucket insert for each
// structure (Table 1's update column at the structure level).
func BenchmarkStructureUpdate(b *testing.B) {
	const m = 200
	mk := map[string]func() core.Structure{
		"CT": func() core.Structure {
			return core.NewCT(2, m, coreset.KMeansPP{}, rand.New(rand.NewSource(5)))
		},
		"CC": func() core.Structure {
			return core.NewCC(2, m, coreset.KMeansPP{}, rand.New(rand.NewSource(6)))
		},
		"RCC": func() core.Structure {
			return core.NewRCC(2, m, coreset.KMeansPP{}, rand.New(rand.NewSource(7)))
		},
	}
	bucket := benchWeighted(m, 16, 8)
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			s := f()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(geom.CloneWeighted(bucket))
			}
		})
	}
}

// countingBuilder is coreset.KMeansPP counting the builds it runs and the
// points they reduce.
type countingBuilder struct{ builds, points int }

func (c *countingBuilder) Name() string { return coreset.KMeansPP{}.Name() }

func (c *countingBuilder) Build(rng *rand.Rand, pts []geom.Weighted, m int) []geom.Weighted {
	c.builds++
	c.points += len(pts)
	return coreset.KMeansPP{}.Build(rng, pts, m)
}

// BenchmarkLaneBatch measures the serving shape of a concurrent tenant's
// lanes: a 2-lane parallel.Sharded of CC drivers (k = 10, m = 200, r = 2)
// fed 512-point AddBatchTo batches of the Covtype stand-in (d = 54, a
// 64-batch pool replayed in order, as perfbench replays its bodies) until
// each lane holds 600 buckets. It reports the time per batch, the points
// all coreset builds reduced per batch, the part of them reduced at batch
// end (all builds minus the tree's own merges of r buckets), and the
// points one lane publishes for queries to gather.
func BenchmarkLaneBatch(b *testing.B) {
	const (
		k, m, r, lanes = 10, 200, 2, 2
		batch, buckets = 512, 600
		poolBatches    = 64
	)
	pool := geom.Wrap(benchData(b, "covtype", poolBatches*batch).Points)
	batches := (lanes*buckets*m + batch - 1) / batch
	// Tree merges at 600 buckets per lane: one per trailing zero binary
	// digit of each bucket count, each over r·m points.
	treeMerges := 0
	for n := 1; n <= buckets; n++ {
		for x := n; x%r == 0; x /= r {
			treeMerges++
		}
	}
	for i := 0; i < b.N; i++ {
		cb := &countingBuilder{}
		sh, err := parallel.NewSharded(lanes, k, 1, kmeans.FastOptions(), func(_ int, seed int64) *core.Driver {
			rng := rand.New(rand.NewSource(seed))
			return core.NewDriver(core.NewCC(r, m, cb, rng), k, m, rng, kmeans.FastOptions())
		})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		for j := 0; j < batches; j++ {
			off := (j % poolBatches) * batch
			sh.AddBatchTo(sh.NextShard(), pool[off:off+batch])
		}
		elapsed := time.Since(start)
		if i == b.N-1 {
			b.ReportMetric(float64(elapsed.Microseconds())/1e3/float64(batches), "ms/batch")
			b.ReportMetric(float64(cb.points)/float64(batches), "reduced-pts/batch")
			b.ReportMetric(float64(cb.points-lanes*treeMerges*r*m)/float64(batches), "batch-end-pts/batch")
			b.ReportMetric(float64(len(sh.CoresetUnion()))/lanes, "view-pts/lane")
		}
	}
}
