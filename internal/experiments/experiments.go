// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment function consumes a Config and
// returns one or more text tables whose rows mirror the series plotted in
// the corresponding figure. The cmd/streambench CLI and the repository's
// testing.B benchmarks both call into this package, so the CLI
// (`streambench -exp all`) and the benchmarks report the same code paths.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"streamkm/internal/core"
	"streamkm/internal/coreset"
	"streamkm/internal/datagen"
	"streamkm/internal/kmeans"
	"streamkm/internal/seqkm"
	"streamkm/internal/workload"
)

// AlgoNames lists the streaming algorithms in the paper's legend order.
// "StreamKM++" is the CT structure with merge degree 2, exactly as the
// paper equates them (Section 5.2).
var AlgoNames = []string{"Sequential", "StreamKM++", "CC", "RCC", "OnlineCC"}

// Config holds the shared experiment parameters. Zero values select the
// paper's defaults at a laptop-friendly scale.
type Config struct {
	// Datasets to run (default: all four of Table 3).
	Datasets []string
	// N is the number of points generated per dataset. Default 20000.
	// Use datagen.PaperSizes values to reproduce at full paper scale.
	N int
	// K is the number of clusters (default 30, the paper's default).
	K int
	// Q is the fixed query interval in points (default 100).
	Q int64
	// Runs is the number of repetitions; tables report the median (the
	// paper uses 9; default 1 for speed).
	Runs int
	// Seed seeds data generation and algorithms. Default 1.
	Seed int64
	// FastQueries downgrades query-time k-means++ from the paper's pipeline
	// (best of 5 runs × 20 Lloyd iterations, Section 5.2) to a single bare
	// seeding pass. Runs much faster but distorts the timing shapes: the
	// caching advantage of CC/RCC scales with the k-means++ work a query
	// performs. Use only for smoke runs.
	FastQueries bool

	// Sweeps; nil selects the paper's values.
	Ks            []int     // Figure 4 (default 10,20,30,40,50)
	Qs            []int64   // Figure 5 (default 50..3200)
	BucketFactors []int     // Figures 6-7: m = factor*k (default 20,40,60,80,100)
	Lambdas       []float64 // Figures 8-10 (default 1/50..1/3200)
	Alphas        []float64 // Figure 11 (default 1.2..9.6)
}

// WithDefaults fills in the paper's default parameters.
func (c Config) WithDefaults() Config {
	if len(c.Datasets) == 0 {
		c.Datasets = datagen.Names()
	}
	if c.N == 0 {
		c.N = 20000
	}
	if c.K == 0 {
		c.K = 30
	}
	if c.Q == 0 {
		c.Q = 100
	}
	if c.Runs == 0 {
		c.Runs = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{10, 20, 30, 40, 50}
	}
	if len(c.Qs) == 0 {
		c.Qs = []int64{50, 100, 200, 400, 800, 1600, 3200}
	}
	if len(c.BucketFactors) == 0 {
		c.BucketFactors = []int{20, 40, 60, 80, 100}
	}
	if len(c.Lambdas) == 0 {
		c.Lambdas = []float64{1.0 / 50, 1.0 / 100, 1.0 / 200, 1.0 / 400,
			1.0 / 800, 1.0 / 1600, 1.0 / 3200}
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{1.2, 2.4, 3.6, 4.8, 7.2, 9.6}
	}
	return c
}

// queryOptions returns the query-time k-means++ configuration: the paper's
// full pipeline by default, a bare seeding pass with FastQueries.
func (c Config) queryOptions() kmeans.Options {
	if c.FastQueries {
		return kmeans.FastOptions()
	}
	return kmeans.AccuracyOptions()
}

// PaperRCCDegrees returns the merge-degree schedule the paper's experiments
// use for RCC (Section 5.2): nesting depth 3 with degrees N^(1/2), N^(1/4),
// N^(1/8) over an innermost CC of degree 2, where N is the expected number
// of base buckets. Every degree is clamped to at least 2.
func PaperRCCDegrees(nBuckets int) []int {
	if nBuckets < 2 {
		nBuckets = 2
	}
	root := func(p float64) int {
		v := int(math.Round(math.Pow(float64(nBuckets), p)))
		if v < 2 {
			v = 2
		}
		return v
	}
	return []int{2, root(1.0 / 8), root(1.0 / 4), root(1.0 / 2)}
}

// NewClusterer builds one of the paper's algorithms under the experiment's
// conventions. m is the bucket size, nBuckets the expected number of base
// buckets (used only to size RCC's merge degrees like the paper does).
func NewClusterer(name string, k, m, nBuckets int, alpha float64, seed int64, opt kmeans.Options) (core.Clusterer, error) {
	rng := rand.New(rand.NewSource(seed))
	b := coreset.KMeansPP{}
	switch name {
	case "Sequential":
		return seqkm.New(k), nil
	case "StreamKM++", "CT":
		return core.NewDriver(core.NewCT(2, m, b, rng), k, m, rng, opt), nil
	case "CC":
		return core.NewDriver(core.NewCC(2, m, b, rng), k, m, rng, opt), nil
	case "RCC":
		s := core.NewRCCWithDegrees(PaperRCCDegrees(nBuckets), m, b, rng)
		return core.NewDriver(s, k, m, rng, opt), nil
	case "OnlineCC":
		return core.NewOnlineCC(k, m, 2, alpha, 0.1, b, rng, opt), nil
	}
	return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
}

// loadDatasets materializes the configured datasets once.
func (c Config) loadDatasets() ([]datagen.Dataset, error) {
	out := make([]datagen.Dataset, 0, len(c.Datasets))
	for _, name := range c.Datasets {
		ds, err := datagen.ByName(name, c.N, c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// medianOverRuns executes f Runs times with distinct seeds and returns the
// per-key medians. f returns a metric value per key (e.g. per algorithm).
func (c Config) medianOverRuns(f func(runSeed int64) (map[string]float64, error)) (map[string]float64, error) {
	acc := map[string][]float64{}
	for r := 0; r < c.Runs; r++ {
		vals, err := f(c.Seed + int64(r)*1000)
		if err != nil {
			return nil, err
		}
		for k, v := range vals {
			acc[k] = append(acc[k], v)
		}
	}
	out := make(map[string]float64, len(acc))
	for k, vs := range acc {
		out[k] = median(vs)
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// streamAndMeasure runs one algorithm over one dataset under a schedule.
func streamAndMeasure(name string, ds datagen.Dataset, k, m int, alpha float64,
	seed int64, sched workload.Schedule, opt kmeans.Options) (workload.Result, error) {
	nBuckets := len(ds.Points) / m
	alg, err := NewClusterer(name, k, m, nBuckets, alpha, seed, opt)
	if err != nil {
		return workload.Result{}, err
	}
	return workload.Run(alg, ds.Points, sched), nil
}
