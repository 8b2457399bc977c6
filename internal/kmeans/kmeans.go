package kmeans

import (
	"math"
	"math/rand"

	"streamkm/internal/geom"
)

// Options controls the full k-means++ pipeline (seeding plus Lloyd
// refinement). The zero value selects a single seeding run with no Lloyd
// refinement — the cheapest configuration, appropriate for timing
// experiments. The paper's accuracy experiments use Runs=5, LloydIters=20
// (Section 5.2).
type Options struct {
	// Runs is the number of independent k-means++ restarts; the best (lowest
	// cost) result wins. Values < 1 are treated as 1.
	Runs int
	// LloydIters caps the Lloyd refinement iterations after each seeding.
	// 0 disables refinement.
	LloydIters int
	// Tol is the relative cost-improvement threshold that stops Lloyd early.
	// 0 means iterate the full LloydIters.
	Tol float64
}

// AccuracyOptions returns the configuration the paper uses when measuring
// clustering cost: best of 5 independent k-means++ runs, each followed by up
// to 20 Lloyd iterations.
func AccuracyOptions() Options { return Options{Runs: 5, LloydIters: 20, Tol: 1e-4} }

// PipelineOptions returns the paper's query pipeline with a single restart:
// one k-means++ seeding followed by up to 20 Lloyd iterations. This is the
// default for timing experiments — the Lloyd refinement makes query cost
// proportional to the number of points fed to k-means++, which is exactly
// the quantity coreset caching reduces.
func PipelineOptions() Options { return Options{Runs: 1, LloydIters: 20, Tol: 1e-4} }

// FastOptions returns the cheapest useful configuration: one seeding pass,
// no refinement. Used on the latency-critical query path.
func FastOptions() Options { return Options{Runs: 1} }

// Run executes k-means++ (optionally with Lloyd refinement and restarts) on
// the weighted point set pts and returns the best set of at most k centers
// together with its cost on pts.
func Run(rng *rand.Rand, pts []geom.Weighted, k int, opt Options) ([]geom.Point, float64) {
	runs := opt.Runs
	if runs < 1 {
		runs = 1
	}
	var best []geom.Point
	bestCost := math.Inf(1)
	for i := 0; i < runs; i++ {
		seed := SeedPPAssign(rng, pts, k)
		centers, cost := seed.Centers, seed.cost(pts)
		if opt.LloydIters > 0 {
			centers, cost = Lloyd(pts, centers, opt.LloydIters, opt.Tol)
		}
		if cost < bestCost || best == nil {
			best, bestCost = centers, cost
		}
	}
	return best, bestCost
}
